(** The durable-checkpoint protocol shared by Waldo and recovery.

    A checkpoint publishes a provdb image (plus optional cold-tier
    archive segments and a sidecar of open-transaction frames) under a
    small MANIFEST.  Every payload file is digest-framed and staged
    temp-then-rename; the manifest rename is the single commit point —
    ext3sim journals a rename as one checksummed frame, so a crash at
    any disk tick leaves either the previous checkpoint (with all WAP
    logs intact) or the new one.  Covered WAP logs are deleted only
    after the manifest commits, and that truncation is idempotent so
    recovery can finish it after a crash. *)

type manifest = {
  m_gen : int;  (** checkpoint generation, 1-based *)
  m_watermark : int;  (** WAP logs with seq < watermark are covered *)
  m_db_name : string;  (** hot provdb image file name *)
  m_db_digest : string;  (** MD5 of the raw image payload *)
  m_archives : (string * string) list;
      (** cumulative cold-tier segments, (name, digest), oldest first *)
  m_pending : (string * string) option;
      (** sidecar of open-transaction frames, (name, digest) *)
  m_pending_txns : int list;
      (** transaction ids buffered at checkpoint time, sorted *)
}

val dir : string
(** [/.waldo]: the directory on the lower file system that holds the
    MANIFEST and its payload files, as [/.pass] holds the WAP logs. *)

val manifest_name : string
val image_name : gen:int -> string
val archive_name : gen:int -> string
val pending_name : gen:int -> string

val write_atomic :
  Vfs.ops -> path:string -> string -> (string, Vfs.errno) result
(** [write_atomic lower ~path payload] digest-frames [payload], stages
    it at [path ^ ".tmp"], renames it over [path], and returns the
    payload digest. *)

val write_sized :
  Vfs.ops ->
  path:string ->
  size:int ->
  (Bytes.t -> int -> unit) ->
  (string, Vfs.errno) result
(** [write_sized lower ~path ~size fill] publishes a [size]-byte payload
    like {!write_atomic}, without a payload string: the framed file is
    one buffer of exactly its size, [fill b off] writes the payload into
    it at [off], and the digest is taken in place.  One
    [Vfs.write_file] stages it. *)

val read_verified :
  Vfs.ops -> path:string -> (string * string, Vfs.errno) result
(** Read a digest-framed payload back as [(payload, digest)].  Bad
    magic, a torn frame, or a digest mismatch all come back as [EIO]. *)

val write_manifest : Vfs.ops -> manifest -> (unit, Vfs.errno) result
(** Atomically publish [manifest] at [dir ^ "/MANIFEST"] — the commit
    point of a checkpoint. *)

val read_manifest : Vfs.ops -> (manifest option, Vfs.errno) result
(** [Ok None] when no checkpoint was ever committed; [EIO] on a corrupt
    manifest, including one whose generation is below 1. *)

val log_seq : string -> int option
(** Parse the sequence number out of a WAP log name ["log.<n>"]: the
    exact inverse of [Lasagna.log_name], so [<n>] must be a canonical
    non-negative decimal ([log.007], [log.-1], [log.0x10] are not logs). *)

val list_logs : Vfs.ops -> (Vfs.ino * (int * string) list, Vfs.errno) result
(** The inode of [/.pass] and its WAP logs as [(seq, name)], in sequence
    order; files {!log_seq} rejects are not logs.  [ENOENT] when there is
    no [/.pass]. *)

val truncate_covered :
  Vfs.ops -> watermark:int -> (int * (int * string) list, Vfs.errno) result
(** Delete every WAP log under [/.pass] with seq < watermark; returns
    how many were deleted and the logs that remain, in sequence order
    (none without a [/.pass]).  Idempotent; call only after the covering
    manifest is durable. *)
