(* The simulated OS kernel.

   Hosts a process table, per-process file descriptors, pipes, a mount
   table, and the system-call layer.  When the kernel is provenance-aware
   (PASS mode), every relevant system call is intercepted and reported to
   the observer, exactly the call set of paper §5.3: execve, fork, exit,
   read, write, mmap, open, pipe, and the drop_inode kernel operation.
   Data-path calls are then *performed by* the observer through the DPAPI
   stack (observer -> analyzer -> distributor -> volume router -> Lasagna),
   so provenance and data flow together.  In vanilla mode the same system
   calls go straight to the mounted file system.

   Mounts: each volume is mounted at /<name>; the first component of an
   absolute path selects the volume. *)

module Dpapi = Pass_core.Dpapi
module Ctx = Pass_core.Ctx
module Observer = Pass_core.Observer
module Analyzer = Pass_core.Analyzer
module Distributor = Pass_core.Distributor
module Clock = Simdisk.Clock

type mount = {
  m_name : string;
  m_ops : Vfs.ops; (* the file system processes see *)
  m_endpoint : Dpapi.endpoint option; (* DPAPI face when provenance-aware *)
  m_file_handle : (Vfs.ino -> (Dpapi.handle, Vfs.errno) result) option;
  m_flush : (unit -> (unit, Vfs.errno) result) option;
      (* close-to-open hook: a remote file system (PA-NFS) flushes its
         write-behind buffers when a file on this mount is closed *)
}

type pass_stack = {
  observer : Observer.t;
  analyzer : Analyzer.t;
  distributor : Distributor.t;
}

type fd_entry = {
  fd_mount : mount;
  fd_ino : Vfs.ino;
  mutable fd_off : int;
  fd_path : string;
}

type process = {
  pid : int;
  fds : (int, fd_entry) Hashtbl.t;
  mutable next_fd : int;
  mutable alive : bool;
}

type pipe = {
  pipe_id : int;
  mutable buffer : string list; (* chunks, oldest last *)
}

type errno = Vfs.errno

type t = {
  clock : Clock.t;
  ctx : Ctx.t;
  mounts : (string, mount) Hashtbl.t;
  procs : (int, process) Hashtbl.t;
  pipes : (int, pipe) Hashtbl.t;
  mutable next_pid : int;
  mutable next_pipe : int;
  mutable pass : pass_stack option;
  mutable syscall_count : int;
  tracer : Pvtrace.t;
}

(* CPU cost knobs (simulated ns). *)
let syscall_base_ns = 400
let intercept_ns = 250

let create ?(tracer = Pvtrace.disabled) ~clock ~machine () =
  {
    clock;
    ctx = Ctx.create ~machine;
    mounts = Hashtbl.create 8;
    procs = Hashtbl.create 64;
    pipes = Hashtbl.create 16;
    next_pid = 2;
    next_pipe = 1;
    pass = None;
    syscall_count = 0;
    tracer;
  }

(* Every system call runs inside a root span: the trace minted here is the
   causal context every downstream DPAPI span (and, over the wire, every
   PA-NFS server span) parents into. *)
let sys t op f = Pvtrace.span t.tracer ~layer:"simos" ~op f

let clock t = t.clock
let ctx t = t.ctx
let charge t ns = Clock.advance t.clock ns
let cpu = charge
let syscall_count t = t.syscall_count
let pass_stack t = t.pass

let mount t ~name ~ops ?endpoint ?file_handle ?flush () =
  Hashtbl.replace t.mounts name
    { m_name = name; m_ops = ops; m_endpoint = endpoint; m_file_handle = file_handle;
      m_flush = flush }

let set_pass t stack = t.pass <- Some stack

(* the init process *)
let init_pid = 1

let proc t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some p -> p
  | None ->
      let p = { pid; fds = Hashtbl.create 8; next_fd = 3; alive = true } in
      Hashtbl.add t.procs pid p;
      p

let ( let* ) = Result.bind

let enter t =
  t.syscall_count <- t.syscall_count + 1;
  charge t syscall_base_ns;
  if t.pass <> None then charge t intercept_ns

let lift_dpapi : ('a, Dpapi.error) result -> ('a, errno) result = function
  | Ok v -> Ok v
  | Error e ->
      Error
        (match e with
        | Dpapi.Enoent -> Vfs.ENOENT
        | Dpapi.Eexist -> Vfs.EEXIST
        | Dpapi.Einval -> Vfs.EINVAL
        | Dpapi.Estale -> Vfs.ESTALE
        | Dpapi.Enospc -> Vfs.ENOSPC
        | Dpapi.Ecrashed -> Vfs.ECRASH
        | Dpapi.Ebadf -> Vfs.EBADF
        | Dpapi.Eagain -> Vfs.EAGAIN
        | Dpapi.Eio | Dpapi.Emsg _ -> Vfs.EIO)

(* --- path resolution ----------------------------------------------------- *)

let resolve_mount t path =
  match Vfs.split_path path with
  | [] -> Error Vfs.EINVAL
  | vol :: rest -> (
      match Hashtbl.find_opt t.mounts vol with
      | Some m -> Ok (m, "/" ^ String.concat "/" rest)
      | None -> Error Vfs.ENOENT)

let file_handle_of m ino =
  match (m.m_file_handle, m.m_endpoint) with
  | Some fh, Some _ -> (
      match fh ino with Ok h -> Some h | Error _ -> None)
  | _ -> None

(* --- process lifecycle --------------------------------------------------- *)

let fork t ~parent =
  sys t "syscall.fork" @@ fun () ->
  enter t;
  let child = t.next_pid in
  t.next_pid <- child + 1;
  let _ : process = proc t parent in
  let _ : process = proc t child in
  (match t.pass with
  | Some s ->
      let _ : (unit, Dpapi.error) result =
        Observer.fork s.observer ~parent ~child
      in
      ()
  | None -> ());
  child

let execve t ~pid ~path ~argv ~env =
  sys t "syscall.execve" @@ fun () ->
  enter t;
  let* m, rel = resolve_mount t path in
  let* ino = Vfs.lookup_path m.m_ops rel in
  match t.pass with
  | Some s -> (
      match file_handle_of m ino with
      | Some binary ->
          lift_dpapi (Observer.execve s.observer ~pid ~path ~argv ~env ~binary)
      | None -> Ok ())
  | None -> Ok ()

let exit t ~pid =
  sys t "syscall.exit" @@ fun () ->
  enter t;
  let p = proc t pid in
  p.alive <- false;
  Hashtbl.reset p.fds;
  (match t.pass with
  | Some s ->
      let _ : (unit, Dpapi.error) result = Observer.exit s.observer ~pid in
      ()
  | None -> ());
  Ok ()

(* --- file I/O ------------------------------------------------------------ *)

let open_file t ~pid ~path ~create =
  sys t "syscall.open" @@ fun () ->
  enter t;
  let* m, rel = resolve_mount t path in
  let* ino =
    match Vfs.lookup_path m.m_ops rel with
    | Ok ino -> Ok ino
    | Error Vfs.ENOENT when create -> Vfs.create_path ~mkparents:true m.m_ops rel Vfs.Regular
    | Error _ as e -> e
  in
  let p = proc t pid in
  let fd = p.next_fd in
  p.next_fd <- fd + 1;
  Hashtbl.replace p.fds fd { fd_mount = m; fd_ino = ino; fd_off = 0; fd_path = rel };
  Ok fd

let fd_entry t ~pid ~fd =
  match Hashtbl.find_opt (proc t pid).fds fd with
  | Some e -> Ok e
  | None -> Error Vfs.EBADF

let read t ~pid ~fd ~len =
  sys t "syscall.read" @@ fun () ->
  enter t;
  let* e = fd_entry t ~pid ~fd in
  let* data =
    match (t.pass, file_handle_of e.fd_mount e.fd_ino) with
    | Some s, Some h ->
        let* r = lift_dpapi (Observer.read s.observer ~pid ~file:h ~off:e.fd_off ~len) in
        Ok r.Dpapi.data
    | _ -> e.fd_mount.m_ops.read e.fd_ino ~off:e.fd_off ~len
  in
  e.fd_off <- e.fd_off + String.length data;
  Ok data

let write t ~pid ~fd ~data =
  sys t "syscall.write" @@ fun () ->
  enter t;
  let* e = fd_entry t ~pid ~fd in
  let* () =
    match (t.pass, file_handle_of e.fd_mount e.fd_ino) with
    | Some s, Some h ->
        let* _v = lift_dpapi (Observer.write s.observer ~pid ~file:h ~off:e.fd_off ~data) in
        Ok ()
    | _ -> e.fd_mount.m_ops.write e.fd_ino ~off:e.fd_off data
  in
  e.fd_off <- e.fd_off + String.length data;
  Ok ()

let seek t ~pid ~fd ~off =
  let* e = fd_entry t ~pid ~fd in
  e.fd_off <- off;
  Ok ()

let close t ~pid ~fd =
  sys t "syscall.close" @@ fun () ->
  enter t;
  let p = proc t pid in
  match Hashtbl.find_opt p.fds fd with
  | Some e ->
      Hashtbl.remove p.fds fd;
      (* close-to-open consistency: a remote mount pushes its write-behind
         buffers (data and provenance) to the server on close *)
      (match e.fd_mount.m_flush with Some f -> f () | None -> Ok ())
  | None -> Error Vfs.EBADF

let mmap t ~pid ~fd ~writable =
  sys t "syscall.mmap" @@ fun () ->
  enter t;
  let* e = fd_entry t ~pid ~fd in
  match (t.pass, file_handle_of e.fd_mount e.fd_ino) with
  | Some s, Some h -> lift_dpapi (Observer.mmap s.observer ~pid ~file:h ~writable)
  | _ -> Ok ()

(* --- pipes ---------------------------------------------------------------- *)

let pipe t ~pid =
  sys t "syscall.pipe" @@ fun () ->
  enter t;
  let id = t.next_pipe in
  t.next_pipe <- id + 1;
  Hashtbl.replace t.pipes id { pipe_id = id; buffer = [] };
  (match t.pass with
  | Some s ->
      let _ : (unit, Dpapi.error) result =
        Observer.pipe_create s.observer ~pid ~pipe_id:id
      in
      ()
  | None -> ());
  id

let pipe_write t ~pid ~pipe_id ~data =
  sys t "syscall.pipe_write" @@ fun () ->
  enter t;
  match Hashtbl.find_opt t.pipes pipe_id with
  | None -> Error Vfs.EBADF
  | Some p ->
      p.buffer <- data :: p.buffer;
      (match t.pass with
      | Some s -> lift_dpapi (Observer.pipe_write s.observer ~pid ~pipe_id)
      | None -> Ok ())

let pipe_read t ~pid ~pipe_id =
  sys t "syscall.pipe_read" @@ fun () ->
  enter t;
  match Hashtbl.find_opt t.pipes pipe_id with
  | None -> Error Vfs.EBADF
  | Some p ->
      let data = String.concat "" (List.rev p.buffer) in
      p.buffer <- [];
      let* () =
        match t.pass with
        | Some s -> lift_dpapi (Observer.pipe_read s.observer ~pid ~pipe_id)
        | None -> Ok ()
      in
      Ok data

(* --- namespace operations ------------------------------------------------ *)

let mkdir_p t ~path =
  sys t "syscall.mkdir" @@ fun () ->
  enter t;
  let* m, rel = resolve_mount t path in
  let* _ino = Vfs.mkdir_p m.m_ops rel in
  Ok ()

let unlink t ~pid:_ ~path =
  sys t "syscall.unlink" @@ fun () ->
  enter t;
  let* m, rel = resolve_mount t path in
  (match (t.pass, Vfs.lookup_path m.m_ops rel) with
  | Some s, Ok ino -> (
      match file_handle_of m ino with
      | Some h ->
          let _ : (unit, Dpapi.error) result =
            Observer.drop_inode s.observer ~file:h
          in
          ()
      | None -> ())
  | _ -> ());
  Vfs.remove_path m.m_ops rel

let rename t ~pid:_ ~src ~dst =
  sys t "syscall.rename" @@ fun () ->
  enter t;
  let* ms, rels = resolve_mount t src in
  let* md, reld = resolve_mount t dst in
  if not (String.equal ms.m_name md.m_name) then Error Vfs.EINVAL
  else Vfs.rename_path ms.m_ops rels reld

let stat t ~path =
  sys t "syscall.stat" @@ fun () ->
  enter t;
  let* m, rel = resolve_mount t path in
  let* ino = Vfs.lookup_path m.m_ops rel in
  m.m_ops.getattr ino

let readdir t ~path =
  sys t "syscall.readdir" @@ fun () ->
  enter t;
  let* m, rel = resolve_mount t path in
  let* ino = Vfs.lookup_path m.m_ops rel in
  m.m_ops.readdir ino

(* handle of a file by path, for examples and tests that disclose
   provenance about files *)
let handle_of_path t path =
  let* m, rel = resolve_mount t path in
  let* ino = Vfs.lookup_path m.m_ops rel in
  match file_handle_of m ino with
  | Some h -> Ok h
  | None -> Error Vfs.EINVAL
