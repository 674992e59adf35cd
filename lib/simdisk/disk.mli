(** Simulated block device.

    Tracks head position and charges seek, rotation and transfer time to
    the machine's {!Clock}, which is how the elapsed-time overheads of the
    paper's Table 2 emerge from provenance-log/data seek interference.
    Supports crash injection for testing the WAP recovery protocol. *)

val block_size : int
(** 4096 bytes. *)

type t

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable seeks : int;
  mutable seek_ns : int;
  mutable transfer_ns : int;
}

exception Crashed
(** Raised by any access to a crashed device. *)

exception Io_error
(** Raised when the fault plan injects a transient EIO on a block access
    (the file system above maps it to [Vfs.EIO]; a retry may succeed). *)

val create :
  registry:Telemetry.registry ->
  ?total_blocks:int ->
  ?stream_slots:int ->
  ?fault:Fault.plan ->
  clock:Clock.t ->
  unit ->
  t
(** [stream_slots] (default 5) is the number of concurrent sequential
    streams the simulated elevator can keep cheap; [registry] receives the
    [disk.*] instruments.  [fault] (default
    {!Fault.none}) injects transient errors, torn writes and silent
    corruption per its seeded schedule. *)

val set_fault : t -> Fault.plan -> unit
(** Swap the fault plan on a live device. *)

val stats : t -> stats
(** A point-in-time view over the [disk.*] telemetry instruments. *)

val clock : t -> Clock.t
val is_crashed : t -> bool

val schedule_crash : t -> after_writes:int -> unit
(** Fail permanently after [after_writes] more successful block writes. *)

val crash : t -> unit
(** Fail immediately. *)

val revive : t -> unit
(** Bring the device back up; data written before the crash persists. *)

(** {2 Data}

    Blocks are immutable strings and the device stores and returns them
    by reference: the string handed to {!write_block} is the one later
    reads return, and a page read from the device can be cached by the
    layer above without a copy.  No layer may mutate a page it got from,
    or gave to, the device. *)

val read_block : t -> int -> string
(** The block's current contents ({!block_size} bytes).  A block never
    written reads as zeros (one shared zero page); a discarded block
    raises {!Io_error}, after the read is charged. *)

val write_block : t -> int -> string -> unit
(** Store [data] (exactly {!block_size} bytes) as the block, without
    copying it.  Under a [Torn_write] or [Corrupt_sector] fault the
    device stores a damaged copy instead. *)

val discard : t -> int -> unit
(** [discard d blk] frees the block: the device drops its page, a later
    read raises {!Io_error}, and a later write starts from the zero page.
    It charges no time, counts nothing, draws no fault and does not
    advance a scheduled crash.  Once a [Torn_write] or [Corrupt_sector]
    has been applied, the device ignores discards: such damage can stop
    a journal replay early, and a file it brings back must still have
    its pages.  Raises {!Crashed} on a crashed device. *)

val resident_blocks : t -> int
(** Blocks that hold a page: written and not discarded since. *)

val read_bytes : t -> off:int -> len:int -> string
(** Byte-granularity read spanning blocks: one {!read_block} per block
    touched.  An aligned single-block read returns the stored page
    itself. *)

val write_bytes : t -> off:int -> string -> unit
(** Byte-granularity write spanning blocks: one block write per block
    touched, charged and fault-checked exactly like {!write_block}.  An
    aligned whole block is stored by reference; a partial block is kept
    as a patch over the stored page (folded into a new page on the next
    read, or after a bounded number of patches), so small writes never
    copy a whole block. *)

val io_ns : t -> int
(** Total simulated nanoseconds spent in I/O so far. *)
