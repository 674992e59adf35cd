(* The PA-NFS client.

   Presents Vfs.ops (so it can be mounted like any file system, and so
   Lasagna-style layering above it keeps working) and the DPAPI (so the
   client machine's distributor can route provenance to the server volume).

   Versioning (paper §6.1.2): when the client's analyzer issues a
   pass_freeze, the client increments the version *locally* and attaches a
   freeze record to the file, so a subsequent pass_read returns the
   correct version without a server round trip.  The queued freeze records
   travel to the server inside the next OP_PASSWRITE for that file, which
   keeps freeze ordered with respect to the writes it protects.  Because
   of NFS close-to-open consistency, two clients can produce the same
   version number independently — version branching — which the paper
   accepts; [test_panfs] exercises it.

   Large writes (provenance + data > 64 KB) are encapsulated in
   transactions; the individual steps are exposed so tests can simulate a
   client crash between OP_BEGINTXN and the terminating OP_PASSWRITE. *)

module Dpapi = Pass_core.Dpapi
module Ctx = Pass_core.Ctx
module Record = Pass_core.Record
module Pnode = Pass_core.Pnode

type stats = {
  mutable rpcs : int;
  mutable txns : int;
  mutable inline_writes : int; (* pass_writes that fit in one OP_PASSWRITE *)
  mutable retries : int; (* retransmissions after a timeout *)
  mutable backpressure : int; (* EAGAINs returned when the backlog was full *)
}

(* Registry-backed instruments; [stats] is a view built on demand. *)
type instruments = {
  rpcs : Telemetry.counter;
  txns : Telemetry.counter;
  inline_writes : Telemetry.counter;
  rpc_latency : Telemetry.histogram; (* simulated ns per RPC round trip *)
  retries : Telemetry.counter; (* nfs.retries *)
  backpressure : Telemetry.counter; (* nfs.backpressure *)
  wb_queued : Telemetry.counter; (* nfs.wb_queued *)
  txns_abandoned : Telemetry.counter; (* nfs.txns_abandoned *)
  wb_backlog : Telemetry.gauge; (* nfs.wb_backlog: queued writes right now *)
}

let instruments registry =
  let c name = Telemetry.counter ~registry ("panfs." ^ name) in
  let n name = Telemetry.counter ~registry ("nfs." ^ name) in
  {
    rpcs = c "rpcs";
    txns = c "txns";
    inline_writes = c "inline_writes";
    rpc_latency = Telemetry.histogram ~registry "panfs.rpc_latency";
    retries = n "retries";
    backpressure = n "backpressure";
    wb_queued = n "wb_queued";
    txns_abandoned = n "txns_abandoned";
    wb_backlog = Telemetry.gauge ~registry "nfs.wb_backlog";
  }

(* Write-behind buffers, one per kind (plain data, provenance): the
   client coalesces contiguous streaming writes to one file up to the
   64 KB block size before issuing one WRITE / OP_PASSWRITE, the way a
   real NFS client's wsize batching works.  Close-to-open consistency
   allows it: buffers are flushed before any read, getattr or namespace
   operation.

   A buffer holds the caller's strings by reference with a running
   length: a run written in one piece is flushed as that same string, a
   run of several pieces is concatenated once, at flush. *)
type pieces = { mutable rev : string list; mutable len : int }

let pieces data = { rev = [ data ]; len = String.length data }

let add_piece p data =
  p.rev <- data :: p.rev;
  p.len <- p.len + String.length data

let contents p = match p.rev with [ d ] -> d | rev -> String.concat "" (List.rev rev)

type plain_buf = { pb_ino : Vfs.ino; pb_off : int; pb_data : pieces }

type prov_buf = {
  vb_handle : Dpapi.handle;
  vb_off : int;
  vb_data : pieces;
  mutable vb_bundle : Dpapi.bundle; (* reversed *)
}

(* One provenance write waiting out a partition in the write-behind
   backlog. *)
type wb_item = {
  wi_handle : Dpapi.handle;
  wi_off : int;
  wi_data : string option;
  wi_bundle : Dpapi.bundle;
}

type t = {
  net : Proto.net;
  handler : Proto.call -> Proto.resp;
  ctx : Ctx.t; (* the client machine's context *)
  mount_name : string; (* volume name on the client *)
  pnode_cache : (Vfs.ino, Pnode.t) Hashtbl.t;
  pending_freezes : (Pnode.t, Record.t list) Hashtbl.t;
  tracer : Pvtrace.t;
  i : instruments;
  client_id : int;
  mutable seq : int;
  wb : wb_item Queue.t; (* provenance writes the server couldn't take *)
  wb_high_water : int;
  mutable crashed : bool;
  mutable plain_pending : plain_buf option;
  mutable prov_pending : prov_buf option;
}

let create ~registry ?(wb_high_water = 64) ?(tracer = Pvtrace.disabled) ~net ~handler ~ctx
    ~mount_name () =
  {
    net; handler; ctx; mount_name;
    pnode_cache = Hashtbl.create 256;
    pending_freezes = Hashtbl.create 16;
    tracer;
    i = instruments registry;
    client_id = Proto.fresh_client net;
    seq = 0;
    wb = Queue.create ();
    wb_high_water = max 1 wb_high_water;
    crashed = false;
    plain_pending = None;
    prov_pending = None;
  }

let stats t : stats =
  let v = Telemetry.value in
  {
    rpcs = v t.i.rpcs;
    txns = v t.i.txns;
    inline_writes = v t.i.inline_writes;
    retries = v t.i.retries;
    backpressure = v t.i.backpressure;
  }

(* Simulate the client host dying: every subsequent call fails.  Used by
   the orphaned-transaction tests. *)
let crash t = t.crashed <- true

(* Retry policy: capped exponential backoff.  The sequence number stays
   fixed across retransmissions of one call, so the server's
   duplicate-request cache replays rather than re-executes.  The backoff
   budget (~0.8 s of simulated time) comfortably outlives the fault
   plan's transient partitions but gives up on a long outage, at which
   point provenance writes fall back to the write-behind backlog. *)
let initial_backoff_ns = Simdisk.Clock.ns_of_ms 2
let backoff_cap_ns = Simdisk.Clock.ns_of_ms 50
let max_attempts = 16

(* Retransmit [c] until it is answered; [None] after [max_attempts]
   timeouts. *)
let rec attempt t c n backoff =
  match Proto.rpc t.net t.handler c with
  | Ok resp -> Some resp
  | Error `Timeout ->
      if n + 1 >= max_attempts then None
      else begin
        Telemetry.incr t.i.retries;
        Simdisk.Clock.advance t.net.Proto.clock backoff;
        attempt t c (n + 1) (min (2 * backoff) backoff_cap_ns)
      end

(* One logical call: a fresh sequence number, one envelope, retries. *)
let send t req =
  let seq = t.seq in
  t.seq <- seq + 1;
  (* The RPC span is the wire context.  The envelope — context included —
     is built once per logical call, so every retransmission carries the
     same trace and span ids, and the server parents the retried work
     onto the original span. *)
  let c_trace, c_span =
    match Pvtrace.current t.tracer with Some c -> c | None -> (0, 0)
  in
  let c = { Proto.c_client = t.client_id; c_seq = seq; c_trace; c_span; c_req = req } in
  match attempt t c 0 initial_backoff_ns with
  | Some _ as r -> r
  | None ->
      Pvtrace.set_outcome t.tracer "unreachable";
      None

(* Simulated round-trip nanoseconds since [t0], into [panfs.rpc_latency]. *)
let observe_rtt t t0 =
  Telemetry.observe t.i.rpc_latency (float_of_int (Simdisk.Clock.now t.net.Proto.clock - t0))

(* [None] = the call timed out [max_attempts] times (server unreachable).
   The untraced path allocates no closure: the span wrapper is entered
   only when the tracer records, and the round trip is observed inline. *)
let call_opt t req =
  if t.crashed then Some (Proto.R_err Vfs.ECRASH)
  else begin
    Telemetry.incr t.i.rpcs;
    let t0 = Simdisk.Clock.now t.net.Proto.clock in
    match
      if Pvtrace.enabled t.tracer then
        Pvtrace.span t.tracer ~layer:"panfs.client" ~op:(Proto.req_name req) (fun () ->
            send t req)
      else send t req
    with
    | r ->
        observe_rtt t t0;
        r
    | exception e ->
        observe_rtt t t0;
        raise e
  end

let call t req =
  match call_opt t req with
  | Some resp -> resp
  | None -> Proto.R_err Vfs.EIO

let lift_err = function
  | Vfs.ENOENT -> Dpapi.Enoent
  | Vfs.EEXIST -> Dpapi.Eexist
  | Vfs.EINVAL -> Dpapi.Einval
  | Vfs.ESTALE | Vfs.EBADF -> Dpapi.Estale
  | Vfs.ENOSPC -> Dpapi.Enospc
  | Vfs.ECRASH -> Dpapi.Ecrashed
  | Vfs.EAGAIN -> Dpapi.Eagain
  | Vfs.EIO | Vfs.ENOTDIR | Vfs.EISDIR | Vfs.ENOTEMPTY -> Dpapi.Eio

let lower_err = function
  | Dpapi.Enoent -> Vfs.ENOENT
  | Dpapi.Eexist -> Vfs.EEXIST
  | Dpapi.Einval -> Vfs.EINVAL
  | Dpapi.Estale -> Vfs.ESTALE
  | Dpapi.Enospc -> Vfs.ENOSPC
  | Dpapi.Ecrashed -> Vfs.ECRASH
  | Dpapi.Ebadf -> Vfs.EBADF
  | Dpapi.Eagain -> Vfs.EAGAIN
  | Dpapi.Eio | Dpapi.Emsg _ -> Vfs.EIO

(* --- write-behind ------------------------------------------------------------ *)

let flush_plain t =
  match t.plain_pending with
  | None -> Ok ()
  | Some pb ->
      t.plain_pending <- None;
      if pb.pb_data.len = 0 then Ok ()
      else begin
        match call t (Proto.Write { ino = pb.pb_ino; off = pb.pb_off; data = contents pb.pb_data }) with
        | Proto.R_ok -> Ok ()
        | Proto.R_err e -> Error e
        | _ -> Error Vfs.EIO
      end

let buffered_plain_write t ino ~off data =
  let fits =
    match t.plain_pending with
    | Some pb -> pb.pb_ino = ino && pb.pb_off + pb.pb_data.len = off
    | None -> false
  in
  let ( let* ) = Result.bind in
  let* () = if fits then Ok () else flush_plain t in
  let pb =
    match t.plain_pending with
    | Some pb ->
        add_piece pb.pb_data data;
        pb
    | None ->
        let pb = { pb_ino = ino; pb_off = off; pb_data = pieces data } in
        t.plain_pending <- Some pb;
        pb
  in
  (* flush at the 64 KB block size, or immediately for a non-streaming
     (short) write *)
  if pb.pb_data.len >= Proto.block_limit || String.length data < 4096 then
    flush_plain t
  else Ok ()

(* --- handles ---------------------------------------------------------------- *)

let file_handle t ino =
  match Hashtbl.find_opt t.pnode_cache ino with
  | Some p -> Ok (Dpapi.handle ~volume:t.mount_name p)
  | None -> (
      match call t (Proto.Op_pnode { ino }) with
      | Proto.R_handle { pnode } ->
          Hashtbl.replace t.pnode_cache ino pnode;
          Ok (Dpapi.handle ~volume:t.mount_name pnode)
      | Proto.R_err e -> Error e
      | _ -> Error Vfs.EIO)

(* --- transactions ----------------------------------------------------------- *)

(* The steps of a large write, each one call: [`Timeout] = the server
   never answered, [`Err] = it answered with an error. *)
let step_err = function
  | Proto.R_err e -> `Err (lift_err e)
  | _ -> `Err Dpapi.Eio

let begin_step t =
  match call_opt t Proto.Op_begintxn with
  | None -> Error `Timeout
  | Some (Proto.R_txn id) ->
      Telemetry.incr t.i.txns;
      Ok id
  | Some resp -> Error (step_err resp)

let prov_step t ~txn chunk =
  match call_opt t (Proto.Op_passprov { txn; chunk }) with
  | None -> Error `Timeout
  | Some Proto.R_ok -> Ok ()
  | Some resp -> Error (step_err resp)

let end_step t ~txn (h : Dpapi.handle) ~off ~data =
  let endtxn =
    [ Dpapi.entry h [ Record.make Record.Attr.endtxn (Pass_core.Pvalue.Int txn) ] ]
  in
  match
    call_opt t (Proto.Op_passwrite { pnode = h.pnode; off; data; bundle = endtxn; txn = Some txn })
  with
  | None -> Error `Timeout
  | Some (Proto.R_version v) -> Ok v
  | Some resp -> Error (step_err resp)

(* Exposed for crash tests: a timeout reads as EIO. *)
let lift_step = function
  | Ok v -> Ok v
  | Error `Timeout -> Error Dpapi.Eio
  | Error (`Err e) -> Error e

let begin_txn t = lift_step (begin_step t)
let send_prov_chunk t ~txn chunk = lift_step (prov_step t ~txn chunk)
let end_txn_write t ~txn h ~off ~data = lift_step (end_step t ~txn h ~off ~data)

(* Encoded-size budget for one OP_PASSWRITE run or provenance chunk
   (headroom for the envelope framing). *)
let envelope_budget = Proto.block_limit - 1024

(* Split a bundle into chunks whose encoded size stays under the 64 KB
   client block size.  An entry whose own record list is oversized is
   split into several entries for the same target. *)
let chunk_bundle bundle =
  (* first explode oversized entries *)
  let exploded =
    List.concat_map
      (fun (e : Dpapi.bundle_entry) ->
        if Dpapi.bundle_size [ e ] <= envelope_budget then [ e ]
        else begin
          let groups = ref [] and current = ref [] and size = ref 0 in
          List.iter
            (fun r ->
              let rsz = Record.encoded_size r in
              if !size + rsz > envelope_budget && !current <> [] then begin
                groups := List.rev !current :: !groups;
                current := [];
                size := 0
              end;
              current := r :: !current;
              size := !size + rsz)
            e.records;
          if !current <> [] then groups := List.rev !current :: !groups;
          List.rev_map (fun records -> Dpapi.entry e.target records) !groups
        end)
      bundle
  in
  let rec go current current_size acc = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | (e : Dpapi.bundle_entry) :: rest ->
        let sz = Dpapi.bundle_size [ e ] in
        if current <> [] && current_size + sz > envelope_budget then
          go [ e ] sz (List.rev current :: acc) rest
        else go (e :: current) (current_size + sz) acc rest
  in
  go [] 0 [] exploded

(* --- DPAPI face -------------------------------------------------------------- *)

let take_pending t pnode =
  match Hashtbl.find_opt t.pending_freezes pnode with
  | Some records ->
      Hashtbl.remove t.pending_freezes pnode;
      List.rev records
  | None -> []

let attach_pending t (h : Dpapi.handle) bundle =
  let pending = take_pending t h.pnode in
  if pending = [] then bundle else Dpapi.entry h pending :: bundle

(* The actual wire send: one OP_PASSWRITE, or a transaction when the
   bundle plus data exceed the block size.  [`Timeout] means the server
   never acknowledged (possibly mid-transaction — the server-side
   fragment becomes an orphan Waldo discards); the caller may park the
   write in the backlog and replay it later. *)
let send_passwrite_now t (h : Dpapi.handle) ~off ~data bundle =
  let total = Dpapi.bundle_size bundle + match data with Some d -> String.length d | None -> 0 in
  if total <= Proto.block_limit then begin
    Telemetry.incr t.i.inline_writes;
    match call_opt t (Proto.Op_passwrite { pnode = h.pnode; off; data; bundle; txn = None }) with
    | None -> Error `Timeout
    | Some (Proto.R_version v) -> Ok v
    | Some resp -> Error (step_err resp)
  end
  else begin
    let ( let* ) = Result.bind in
    let* txn = begin_step t in
    let rec send_chunks = function
      | [] -> Ok ()
      | chunk :: rest ->
          let* () = prov_step t ~txn chunk in
          send_chunks rest
    in
    match
      let* () = send_chunks (chunk_bundle bundle) in
      end_step t ~txn h ~off ~data
    with
    | Error `Timeout as r ->
        (* a transaction that dies part-way is abandoned: its server-side
           fragment is an orphan for Waldo, and the whole write will be
           replayed under a fresh transaction id *)
        Telemetry.incr t.i.txns_abandoned;
        r
    | r -> r
  end

(* --- write-behind backlog (graceful degradation under partition) ------------- *)

let backlog t = Queue.length t.wb

(* Replay queued writes one at a time, in FIFO order.  [`Blocked] = the
   server is still unreachable; everything not yet applied stays
   queued. *)
let drain_backlog_internal t =
  let pop () =
    ignore (Queue.pop t.wb : wb_item);
    Telemetry.set t.i.wb_backlog (float_of_int (Queue.length t.wb))
  in
  let rec go () =
    match Queue.peek_opt t.wb with
    | None -> Ok ()
    | Some it -> (
        match send_passwrite_now t it.wi_handle ~off:it.wi_off ~data:it.wi_data it.wi_bundle with
        | Ok _ ->
            pop ();
            go ()
        | Error `Timeout -> Error `Blocked
        | Error (`Err e) ->
            (* a hard server error is not transient: surface it rather
               than wedging the queue behind an unservable item *)
            pop ();
            Error (`Err e))
  in
  go ()

let enqueue_wb t (h : Dpapi.handle) ~off ~data bundle =
  if Queue.length t.wb >= t.wb_high_water then begin
    Telemetry.incr t.i.backpressure;
    Error Dpapi.Eagain
  end
  else begin
    Telemetry.incr t.i.wb_queued;
    Queue.add { wi_handle = h; wi_off = off; wi_data = data; wi_bundle = bundle } t.wb;
    Telemetry.set t.i.wb_backlog (float_of_int (Queue.length t.wb));
    Ok (Ctx.current_version t.ctx h.pnode)
  end

let send_passwrite t (h : Dpapi.handle) ~off ~data bundle =
  let bundle = attach_pending t h bundle in
  match drain_backlog_internal t with
  | Error `Blocked ->
      (* still partitioned: preserve ordering by queueing behind the
         existing backlog *)
      enqueue_wb t h ~off ~data bundle
  | Error (`Err e) -> Error e
  | Ok () -> (
      match send_passwrite_now t h ~off ~data bundle with
      | Ok v -> Ok v
      | Error (`Err e) -> Error e
      | Error `Timeout -> enqueue_wb t h ~off ~data bundle)

let drain_backlog t =
  match drain_backlog_internal t with
  | Ok () -> Ok ()
  | Error `Blocked -> Error Dpapi.Eagain
  | Error (`Err e) -> Error e

(* Flush the provenance write-behind buffer: one OP_PASSWRITE, or a
   transaction when it outgrew the block size with its records. *)
let flush_prov t =
  match t.prov_pending with
  | None -> Ok 0
  | Some vb ->
      t.prov_pending <- None;
      send_passwrite t vb.vb_handle ~off:vb.vb_off
        ~data:(Some (contents vb.vb_data))
        (List.rev vb.vb_bundle)

(* --- VFS face -------------------------------------------------------------- *)

(* Close-to-open flush: push both write-behind buffers now.  A partition
   parks provenance in the backlog instead of failing. *)
let flush t =
  match flush_prov t with
  | Error e -> Error (lower_err e)
  | Ok _ -> flush_plain t

(* Close-to-open consistency: both write-behind buffers — plain data and
   provenance — flush before any read, getattr or namespace operation
   observes server state.  [reply] maps the answer; the mappers close over
   nothing, so a call allocates no closure. *)
let flush_then t req reply =
  match flush t with Error e -> Error e | Ok () -> reply (call t req)

let bad = Error Vfs.EIO
let ino_reply = function Proto.R_ino ino -> Ok ino | Proto.R_err e -> Error e | _ -> bad
let unit_reply = function Proto.R_ok -> Ok () | Proto.R_err e -> Error e | _ -> bad
let data_reply = function Proto.R_data d -> Ok d | Proto.R_err e -> Error e | _ -> bad
let attr_reply = function Proto.R_attr st -> Ok st | Proto.R_err e -> Error e | _ -> bad
let names_reply = function Proto.R_names ns -> Ok ns | Proto.R_err e -> Error e | _ -> bad

let ops t : Vfs.ops =
  {
    root = (fun () -> Ext3.root_ino);
    lookup = (fun ~dir name -> flush_then t (Proto.Lookup { dir; name }) ino_reply);
    create = (fun ~dir name kind -> flush_then t (Proto.Create { dir; name; kind }) ino_reply);
    unlink = (fun ~dir name -> flush_then t (Proto.Remove { dir; name }) unit_reply);
    rename =
      (fun ~src_dir ~src_name ~dst_dir ~dst_name ->
        flush_then t (Proto.Rename { src_dir; src_name; dst_dir; dst_name }) unit_reply);
    read = (fun ino ~off ~len -> flush_then t (Proto.Read { ino; off; len }) data_reply);
    write = (fun ino ~off data -> buffered_plain_write t ino ~off data);
    truncate = (fun ino size -> flush_then t (Proto.Truncate { ino; size }) unit_reply);
    getattr = (fun ino -> flush_then t (Proto.Getattr { ino }) attr_reply);
    readdir = (fun ino -> flush_then t (Proto.Readdir { ino }) names_reply);
    fsync = (fun ino -> flush_then t (Proto.Commit { ino }) unit_reply);
    sync = (fun () -> flush t);
  }

let pass_read t (h : Dpapi.handle) ~off ~len =
  (match flush_prov t with Ok _ -> () | Error _ -> ());
  (match drain_backlog t with Ok () -> () | Error _ -> ());
  (match flush_plain t with Ok () -> () | Error _ -> ());
  match call t (Proto.Op_passread { pnode = h.pnode; off; len }) with
  | Proto.R_passread { data; pnode; version } ->
      Ctx.adopt t.ctx pnode ~version;
      (* the local view may be ahead (local freezes): serve the local
         version, no server trip needed (§6.1.2) *)
      Ok { Dpapi.data; r_pnode = pnode; r_version = Ctx.current_version t.ctx pnode }
  | Proto.R_err e -> Error (lift_err e)
  | _ -> Error Dpapi.Eio

let pass_write t (h : Dpapi.handle) ~off ~data bundle =
  let ( let* ) = Result.bind in
  match (data, t.prov_pending) with
  | None, Some vb when Pnode.equal vb.vb_handle.Dpapi.pnode h.pnode ->
      (* provenance-only: merge into this file's pending buffer *)
      vb.vb_bundle <- List.rev_append bundle vb.vb_bundle;
      Ok (Ctx.current_version t.ctx h.pnode)
  | None, _ -> send_passwrite t h ~off ~data bundle
  | Some d, pending ->
      let incoming = String.length d + Dpapi.bundle_size bundle in
      if incoming > envelope_budget then
        (* can never fit one envelope: flush what is queued (order) and
           send straight down — the transaction path takes over *)
        let* _ = flush_prov t in
        send_passwrite t h ~off ~data bundle
      else begin
        (* extend the pending run only with a contiguous write to the same
           file that keeps it within one envelope; anything else flushes
           it first and starts a new one *)
        match pending with
        | Some vb
          when Pnode.equal vb.vb_handle.Dpapi.pnode h.pnode
               && vb.vb_off + vb.vb_data.len = off
               && vb.vb_data.len + Dpapi.bundle_size vb.vb_bundle + incoming <= envelope_budget ->
            add_piece vb.vb_data d;
            vb.vb_bundle <- List.rev_append bundle vb.vb_bundle;
            Ok (Ctx.current_version t.ctx h.pnode)
        | _ -> (
            match flush_prov t with
            | Error e -> Error e
            | Ok _ ->
                t.prov_pending <-
                  Some { vb_handle = h; vb_off = off; vb_data = pieces d; vb_bundle = List.rev bundle };
                Ok (Ctx.current_version t.ctx h.pnode))
      end

let pass_freeze t (h : Dpapi.handle) =
  let old_version = Ctx.current_version t.ctx h.pnode in
  let version = Ctx.freeze t.ctx h.pnode in
  let records =
    [ Record.make Record.Attr.freeze (Pass_core.Pvalue.Int version);
      Record.input_of h.pnode old_version ]
  in
  let prev = Option.value (Hashtbl.find_opt t.pending_freezes h.pnode) ~default:[] in
  Hashtbl.replace t.pending_freezes h.pnode (List.rev_append records prev);
  Ok version

let pass_mkobj t =
  match call t Proto.Op_passmkobj with
  | Proto.R_handle { pnode } ->
      Ctx.adopt t.ctx pnode ~version:0;
      Ok (Dpapi.handle ~volume:t.mount_name pnode)
  | Proto.R_err e -> Error (lift_err e)
  | _ -> Error Dpapi.Eio

let pass_reviveobj t pnode version =
  match call t (Proto.Op_passreviveobj { pnode; version }) with
  | Proto.R_handle { pnode } -> Ok (Dpapi.handle ~volume:t.mount_name pnode)
  | Proto.R_err e -> Error (lift_err e)
  | _ -> Error Dpapi.Eio

let pass_sync t (h : Dpapi.handle) =
  (* flush buffered writes, the partition backlog and pending freeze
     records, then sync; EAGAIN while the backlog cannot drain *)
  let ( let*! ) r f = match r with Ok _ -> f () | Error e -> Error e in
  let*! () = flush_prov t in
  let*! () = drain_backlog t in
  let pending = take_pending t h.pnode in
  let ( let* ) = Result.bind in
  let* () =
    if pending = [] then Ok ()
    else
      match
        call t
          (Proto.Op_passwrite
             { pnode = h.pnode; off = 0; data = None; bundle = [ Dpapi.entry h pending ];
               txn = None })
      with
      | Proto.R_version _ -> Ok ()
      | Proto.R_err e -> Error (lift_err e)
      | _ -> Error Dpapi.Eio
  in
  match call t (Proto.Op_passsync { pnode = h.pnode }) with
  | Proto.R_ok -> Ok ()
  | Proto.R_err e -> Error (lift_err e)
  | _ -> Error Dpapi.Eio

let endpoint t : Dpapi.endpoint =
  {
    pass_read = (fun h ~off ~len -> pass_read t h ~off ~len);
    pass_write = (fun h ~off ~data b -> pass_write t h ~off ~data b);
    pass_freeze = (fun h -> pass_freeze t h);
    pass_mkobj = (fun ~volume:_ -> pass_mkobj t);
    pass_reviveobj = (fun p v -> pass_reviveobj t p v);
    pass_sync = (fun h -> pass_sync t h);
  }
