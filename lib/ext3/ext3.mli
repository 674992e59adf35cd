(** ext3sim: the baseline journaling file system.

    Stands in for the paper's ext3-in-ordered-mode baseline (Section 7):
    metadata changes are journalled in a dedicated disk region, file data
    is written to its home location before the metadata that makes it
    reachable, and mounting replays the journal.  Lasagna stacks on top of
    this (or any other {!Vfs.ops}). *)

type t

val format : ?jblocks:int -> Simdisk.Disk.t -> t
(** Create a fresh, empty file system on [disk].  [jblocks] sizes the
    journal region (default 16384 blocks = 64 MB); the journal compacts
    into a snapshot frame when it nears the end.  Each compaction pass
    stamps its frames with a new epoch, so replay never picks up the
    previous pass's frames left behind the new tail. *)

val mount : ?jblocks:int -> Simdisk.Disk.t -> t
(** Rebuild the file system state by replaying the on-disk journal —
    used after a simulated crash.  Replay runs from the head frame,
    whose epoch it resumes, and stops at the first torn frame or frame
    of another epoch.  [jblocks] must match the value the file system
    was formatted with. *)

val ops : t -> Vfs.ops
(** The VFS face.  File pages are shared, immutable strings: a
    whole-block write caches the caller's string, and an aligned
    whole-block read returns the cached (or on-disk) page itself.

    [unlink] and [rename] over an existing name free the lost inode's
    pages: its blocks are discarded on the disk and its cached pages
    dropped (their cache slots stay taken until evicted), once the
    journal tail has moved past the frame that unlinked it, so no
    replay can bring the inode back without its data.  [rename] refuses
    a victim of the other kind ([EISDIR], [ENOTDIR]) or a non-empty
    directory victim ([ENOTEMPTY]). *)

val root_ino : Vfs.ino

val set_cache_capacity : t -> int -> unit
(** Resize the simulated page cache (in 4 KB blocks).  The System wiring
    halves it when Lasagna stacks on top (double buffering, Section 7). *)

val cache_stats : t -> int * int
(** (hits, misses). *)

val data_bytes_allocated : t -> int
(** Bytes of data-region blocks ever allocated (Table 3 accounting). *)

val journal_bytes_written : t -> int
val metadata_ops : t -> int

val live_bytes : t -> int
(** Sum of regular-file sizes currently reachable. *)
