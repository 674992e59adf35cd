(** Cold-tier provenance archive.

    Compaction moves expired versions into append-only, digest-framed
    archive segments named by the checkpoint MANIFEST.  This module
    loads them back — either eagerly ({!load_into}, used by fsck) or
    lazily on first sub-floor query ({!install_handler}, used by the
    query path). *)

val load_into :
  registry:Telemetry.registry ->
  Vfs.ops ->
  segments:(string * string) list ->
  Provdb.t ->
  (unit, Vfs.errno) result
(** Read, digest-verify and merge every [(name, digest)] segment under
    {!Checkpoint.dir} into the db, oldest first.  A digest mismatch
    against the manifest's record is [EIO]. *)

val install_handler :
  registry:Telemetry.registry ->
  Vfs.ops ->
  segments:(string * string) list ->
  Provdb.t ->
  unit
(** Arm the db to fault the listed segments in on the first query that
    needs versions below a node's floor.  No-op when [segments] is
    empty.  Instruments [waldo.archive_fault_ins],
    [waldo.archive_segments_loaded] and [waldo.archive_load_errors]. *)
