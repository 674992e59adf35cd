(* The VFS interface of the simulated OS.  File systems — ext3sim, the
   Lasagna stackable layer, and the PA-NFS client — all present this
   record-of-operations, which is what lets Lasagna stack over ext3 locally
   and over the NFS client remotely without either knowing. *)

type errno =
  | ENOENT
  | EEXIST
  | ENOTDIR
  | EISDIR
  | ENOTEMPTY
  | EINVAL
  | EIO
  | ENOSPC
  | EBADF
  | ESTALE
  | ECRASH
  | EAGAIN

let errno_to_string = function
  | ENOENT -> "ENOENT"
  | EEXIST -> "EEXIST"
  | ENOTDIR -> "ENOTDIR"
  | EISDIR -> "EISDIR"
  | ENOTEMPTY -> "ENOTEMPTY"
  | EINVAL -> "EINVAL"
  | EIO -> "EIO"
  | ENOSPC -> "ENOSPC"
  | EBADF -> "EBADF"
  | ESTALE -> "ESTALE"
  | ECRASH -> "ECRASH"
  | EAGAIN -> "EAGAIN"

let errno_of_string = function
  | "ENOENT" -> Some ENOENT
  | "EEXIST" -> Some EEXIST
  | "ENOTDIR" -> Some ENOTDIR
  | "EISDIR" -> Some EISDIR
  | "ENOTEMPTY" -> Some ENOTEMPTY
  | "EINVAL" -> Some EINVAL
  | "EIO" -> Some EIO
  | "ENOSPC" -> Some ENOSPC
  | "EBADF" -> Some EBADF
  | "ESTALE" -> Some ESTALE
  | "ECRASH" -> Some ECRASH
  | "EAGAIN" -> Some EAGAIN
  | _ -> None

let pp_errno ppf e = Format.pp_print_string ppf (errno_to_string e)

(* Volume-fatal conditions hit on paths that cannot return a [result]
   (mounting a layer, allocating a fresh WAP log).  Typed so handlers can
   match on the errno instead of parsing a failwith string. *)
exception Fatal of string * errno

let fatal what e = raise (Fatal (what, e))

type ino = int
type kind = Regular | Directory

type stat = { st_ino : ino; st_kind : kind; st_size : int }

type ops = {
  root : unit -> ino;
  lookup : dir:ino -> string -> (ino, errno) result;
  create : dir:ino -> string -> kind -> (ino, errno) result;
  unlink : dir:ino -> string -> (unit, errno) result;
  rename :
    src_dir:ino -> src_name:string -> dst_dir:ino -> dst_name:string ->
    (unit, errno) result;
  read : ino -> off:int -> len:int -> (string, errno) result;
  write : ino -> off:int -> string -> (unit, errno) result;
  truncate : ino -> int -> (unit, errno) result;
  getattr : ino -> (stat, errno) result;
  readdir : ino -> (string list, errno) result;
  fsync : ino -> (unit, errno) result;
  sync : unit -> (unit, errno) result;
}

let ( let* ) = Result.bind

(* --- path helpers over any [ops] ----------------------------------------

   The walkers take a path already split into segments; the string
   helpers split once and delegate, so a caller that has the segments
   (the kernel, after its mount name) never rebuilds a path string. *)

(* Segment [path.[start .. stop - 1]] onto [acc], unless it is empty or ".". *)
let add_segment path start stop acc =
  let len = stop - start in
  if len = 0 || (len = 1 && path.[start] = '.') then acc
  else String.sub path start len :: acc

(* One pass from the right, so the segments come out in order: [stop]
   ends the segment being scanned. *)
let rec split_from path i stop acc =
  if i < 0 then add_segment path 0 stop acc
  else if path.[i] = '/' then split_from path (i - 1) i (add_segment path (i + 1) stop acc)
  else split_from path (i - 1) stop acc

let split_path path =
  let n = String.length path in
  split_from path (n - 1) n []

(* One directory step; with [mkparents], a missing directory is created. *)
let step ~mkparents fs ~dir seg =
  match fs.lookup ~dir seg with
  | Error ENOENT when mkparents -> fs.create ~dir seg Directory
  | r -> r

(* The walkers match on each result instead of binding with [let*], so
   a step allocates no closure. *)
let rec walk ~mkparents fs dir = function
  | [] -> Ok dir
  | seg :: rest -> (
      match step ~mkparents fs ~dir seg with
      | Ok next -> walk ~mkparents fs next rest
      | Error _ as e -> e)

let lookup_segs fs segs = walk ~mkparents:false fs (fs.root ()) segs
let mkdir_segs fs segs = walk ~mkparents:true fs (fs.root ()) segs

(* Resolve every segment but the last, which names the leaf; [EINVAL]
   for no segments. *)
let rec walk_parent ~mkparents fs dir = function
  | [] -> Error EINVAL
  | [ leaf ] -> Ok (dir, leaf)
  | seg :: rest -> (
      match step ~mkparents fs ~dir seg with
      | Ok next -> walk_parent ~mkparents fs next rest
      | Error _ as e -> e)

let parent_and_leaf_segs fs segs = walk_parent ~mkparents:false fs (fs.root ()) segs

let create_segs ?(mkparents = false) fs segs kind =
  match walk_parent ~mkparents fs (fs.root ()) segs with
  | Ok (dir, leaf) -> fs.create ~dir leaf kind
  | Error _ as e -> e

let remove_segs fs segs =
  match parent_and_leaf_segs fs segs with
  | Ok (dir, leaf) -> fs.unlink ~dir leaf
  | Error _ as e -> e

let rename_segs fs src dst =
  let* src_dir, src_name = parent_and_leaf_segs fs src in
  let* dst_dir, dst_name = parent_and_leaf_segs fs dst in
  fs.rename ~src_dir ~src_name ~dst_dir ~dst_name

let lookup_path fs path = lookup_segs fs (split_path path)
let parent_and_leaf fs path = parent_and_leaf_segs fs (split_path path)
let mkdir_p fs path = mkdir_segs fs (split_path path)
let create_path ?mkparents fs path kind = create_segs ?mkparents fs (split_path path) kind

let read_file fs path =
  let* ino = lookup_path fs path in
  let* st = fs.getattr ino in
  fs.read ino ~off:0 ~len:st.st_size

let write_file ?(mkparents = false) fs path data =
  let* ino =
    match lookup_path fs path with
    | Ok ino -> Ok ino
    | Error ENOENT -> create_path ~mkparents fs path Regular
    | Error _ as e -> e
  in
  let* () = fs.truncate ino (String.length data) in
  let* () = fs.write ino ~off:0 data in
  Ok ino

let remove_path fs path = remove_segs fs (split_path path)
let rename_path fs src dst = rename_segs fs (split_path src) (split_path dst)
