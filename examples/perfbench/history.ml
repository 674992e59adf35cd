(* history_query: an application discloses a growing versioned provenance
   graph straight through [Lasagna.endpoint], while PQL queries read the
   store the ingest writes.  Waldo runs the [Manual] policy with
   compaction and is checkpointed every fixed number of steps; the run
   ends with a disk crash, revive and [Waldo.recover].  The kernel, the
   observer/analyzer/distributor chain and NFS are bypassed, so this is
   where the write-ahead log, Waldo checkpointing and archiving, and the
   query planner do the work. *)

open Common
module Dpapi = Pass_core.Dpapi
module Record = Pass_core.Record
module Pvalue = Pass_core.Pvalue

let params =
  { Gen.h_initial = 1000; h_ops = 2000; h_checkpoint_every = 64; h_query_every = 5; h_batch = 32 }

let compact_keep = 2

type machine = {
  clock : Simdisk.Clock.t;
  disk : Simdisk.Disk.t;
  ext3 : Ext3.t;
  lasagna : Lasagna.t;
  waldo : Waldo.t;
  ep : Dpapi.endpoint;
  handles : Dpapi.handle array;
  versions : int array;
  buf : Buffer.t;
}

let record_bytes buf records =
  Buffer.clear buf;
  List.iter (Record.encode buf) records;
  Buffer.length buf

let new_object_records mc p i ~parent =
  [
    Record.name (Gen.object_name i);
    Record.typ "artifact";
    Record.make "BATCH" (Pvalue.Int (i / p.Gen.h_batch));
    Record.input_of mc.handles.(parent).Dpapi.pnode mc.versions.(parent);
  ]

(* Create object [i]; returns the record bytes disclosed. *)
let create_object m mc p i ~parent =
  let h = dok "mkobj" (Meter.span m "lasagna.mkobj" (fun () -> mc.ep.Dpapi.pass_mkobj ~volume:(Some "vol0"))) in
  mc.handles.(i) <- h;
  let records = if parent < 0 then [ Record.name (Gen.object_name i); Record.typ "artifact" ] else new_object_records mc p i ~parent in
  dok "write" (Meter.span m "lasagna.write" (fun () -> Dpapi.disclose mc.ep h records));
  record_bytes mc.buf records

let revise m mc j ~step =
  let h = mc.handles.(j) in
  let records = [ Record.make "REV" (Pvalue.Int step) ] in
  dok "write" (Meter.span m "lasagna.write" (fun () -> Dpapi.disclose mc.ep h records));
  mc.versions.(j) <- dok "freeze" (Meter.span m "lasagna.freeze" (fun () -> mc.ep.Dpapi.pass_freeze h));
  record_bytes mc.buf records

let setup ?(registry = Telemetry.create ()) ?(tracer = Pvtrace.disabled) p (w : Gen.history) =
  let clock = Simdisk.Clock.create () in
  let disk = Simdisk.Disk.create ~registry ~clock () in
  let ext3 = Ext3.format disk in
  let ctx = Pass_core.Ctx.create ~machine:1 in
  let lasagna =
    Lasagna.create ~registry ~tracer ~log_max:65536 ~lower:(Ext3.ops ext3) ~ctx ~volume:"vol0"
      ~charge:(Simdisk.Clock.advance clock) ()
  in
  let waldo = Waldo.create ~registry ~tracer ~policy:Waldo.Manual ~compact_keep ~lower:(Ext3.ops ext3) () in
  Waldo.attach waldo lasagna;
  let n = p.Gen.h_initial + p.Gen.h_ops in
  let mc =
    {
      clock;
      disk;
      ext3;
      lasagna;
      waldo;
      ep = Lasagna.endpoint lasagna;
      handles = Array.make n (Dpapi.handle (Pass_core.Pnode.of_int 0));
      versions = Array.make n 0;
      buf = Buffer.create 256;
    }
  in
  let q = Meter.create ~tracing:false in
  Array.iteri
    (fun i parent ->
      let _ : int = create_object q mc p i ~parent in
      ())
    w.Gen.initial_parents;
  ok "checkpoint" (Waldo.checkpoint waldo);
  mc

type checkpoints = { mutable ck_sim_ns : int; mutable ck_bytes : int }

let step m mc p ck i (st : Gen.step) =
  let bytes = create_object m mc p i ~parent:st.Gen.st_parent in
  let bytes = bytes + revise m mc st.Gen.st_revise ~step:i in
  dok "sync" (Meter.span m "lasagna.sync" (fun () -> mc.ep.Dpapi.pass_sync mc.handles.(i)));
  if (i - p.Gen.h_initial + 1) mod p.Gen.h_checkpoint_every = 0 then begin
    let s0 = Simdisk.Clock.now mc.clock in
    let b0 = (Simdisk.Disk.stats mc.disk).Simdisk.Disk.bytes_written in
    ok "checkpoint" (Meter.span m "waldo.checkpoint" (fun () -> Waldo.checkpoint mc.waldo));
    ck.ck_sim_ns <- ck.ck_sim_ns + (Simdisk.Clock.now mc.clock - s0);
    ck.ck_bytes <- ck.ck_bytes + ((Simdisk.Disk.stats mc.disk).Simdisk.Disk.bytes_written - b0)
  end;
  bytes

(* The database as a canonical string, archive faulted in, for the
   pre-crash vs recovered comparison. *)
let canonical w =
  Waldo.fault_in_archive w;
  let db = Waldo.db w in
  let nodes = List.sort (fun a b -> Pass_core.Pnode.compare a.Provdb.pnode b.Provdb.pnode) (Provdb.all_nodes db) in
  let b = Buffer.create 4096 in
  List.iter
    (fun (n : Provdb.node) ->
      let quads =
        List.sort
          (fun (a : Provdb.quad) (c : Provdb.quad) ->
            match Int.compare a.Provdb.q_version c.Provdb.q_version with
            | 0 -> String.compare a.Provdb.q_attr c.Provdb.q_attr
            | x -> x)
          (Provdb.records_all db n.Provdb.pnode)
      in
      List.iter
        (fun (q : Provdb.quad) ->
          Buffer.add_string b
            (Format.asprintf "%a %d %s %a\n" Pass_core.Pnode.pp q.Provdb.q_pnode q.Provdb.q_version q.Provdb.q_attr
               Pvalue.pp q.Provdb.q_value))
        quads)
    nodes;
  Buffer.contents b

(* The queries of the timed phase whose rows are also checked against
   the naive evaluator: a seeded sample, taken early while the naive
   evaluator is still cheap. *)
let checked_queries ~seed (w : Gen.history) =
  let n = Array.fold_left (fun acc st -> if Option.is_some st.Gen.st_query then acc + 1 else acc) 0 w.Gen.steps in
  let r = Gen.rng (seed + 11) in
  List.init 6 (fun _ -> Gen.int r (max 1 (n / 4)))

let round ?(p = params) m ~seed ~check ?tracer ?monitor () =
  let w = Gen.gen_history p ~seed in
  let registry = Telemetry.create () in
  Option.iter (fun mon -> Option.iter (Pvmon.attach_tracer mon) tracer) monitor;
  let t0 = Meter.now_ns () in
  let mc = setup ~registry ?tracer p w in
  let r = new_round ~setup_ns:(Meter.now_ns () - t0) in
  Option.iter (fun tr -> Pvtrace.set_now tr (fun () -> Simdisk.Clock.now mc.clock)) tracer;
  let sim_now () = Simdisk.Clock.now mc.clock in
  let c0 = snapshot registry and d0 = Simdisk.Disk.stats mc.disk and e0 = ext3_snapshot mc.ext3 in
  let ck = { ck_sim_ns = 0; ck_bytes = 0 } in
  let checked = if check then checked_queries ~seed w else [] in
  let qi = ref 0 and rows_total = ref 0 and examined_total = ref 0 in
  let s0 = sim_now () and h0 = Meter.now_ns () in
  Array.iteri
    (fun s (st : Gen.step) ->
      let i = p.Gen.h_initial + s in
      (match run_op m r ~sim_now (fun () -> step m mc p ck i st) with
      | Some bytes -> r.payload_bytes <- r.payload_bytes + bytes
      | None -> ());
      match st.Gen.st_query with
      | None -> ()
      | Some (kind, anchor) ->
          let db = Waldo.db mc.waldo in
          let text = Gen.history_query p kind anchor in
          let rows, plan = query m r ~kind db text in
          rows_total := !rows_total + List.length rows;
          examined_total := !examined_total + examined plan;
          if List.mem !qi checked && not (rows_match db text rows) then r.failed <- r.failed + 1;
          incr qi)
    w.Gen.steps;
  let _ : int = Meter.span m "waldo.drain" (fun () -> Waldo.finalize mc.waldo mc.lasagna) in
  r.pass_sim_ns <- sim_now () - s0;
  r.pass_host_ns <- Meter.now_ns () - h0;
  let d1 = Simdisk.Disk.stats mc.disk in
  r.disk_bytes <- d1.Simdisk.Disk.bytes_written - d0.Simdisk.Disk.bytes_written;
  let db = Waldo.db mc.waldo in
  r.prov_bytes <- Provdb.db_bytes db + Provdb.index_bytes db;
  let counts = delta c0 (snapshot registry) @ disk_counts d0 d1 @ ext3_counts mc.ext3 e0 in
  let db_bytes = Provdb.db_bytes db and index_bytes = Provdb.index_bytes db in
  let before = if check then canonical mc.waldo else "" in
  let w2, info = crash_and_recover ~policy:Waldo.Manual ~compact_keep m r ~clock:mc.clock mc.disk in
  if check then begin
    r.attempted <- r.attempted + 2;
    if not (String.equal before (canonical w2)) then r.failed <- r.failed + 1;
    if not (Pvcheck.clean (Pvcheck.check_db ~registry:(Telemetry.create ()) (Waldo.db w2))) then
      r.failed <- r.failed + 1
  end;
  r.counts <-
    counts
    @ [
        ("pql.rows", float_of_int !rows_total);
        ("pql.examined", float_of_int !examined_total);
        ("waldo.checkpoint.sim_ms", float_of_int ck.ck_sim_ns /. 1e6);
        ("waldo.checkpoint.bytes_written", float_of_int ck.ck_bytes);
        ("waldo.replay_frames", float_of_int info.Waldo.ri_frames_replayed);
        ("waldo.archives", float_of_int info.Waldo.ri_archives);
        ("waldo.db_bytes", float_of_int db_bytes);
        ("waldo.index_bytes", float_of_int index_bytes);
      ];
  r

(* Baseline: the application keeps the same records in a plain ext3
   log of its own, appended and fsynced once per step.  Object ids stand
   in for pnodes. *)
let baseline ?(p = params) ~seed () =
  let w = Gen.gen_history p ~seed in
  let clock = Simdisk.Clock.create () in
  let disk = Simdisk.Disk.create ~registry:(Telemetry.create ()) ~clock () in
  let ops = Ext3.ops (Ext3.format disk) in
  let ino = ok "create" (ops.Vfs.create ~dir:(ops.Vfs.root ()) "applog" Vfs.Regular) in
  let buf = Buffer.create 256 and off = ref 0 in
  let versions = Array.make (p.Gen.h_initial + p.Gen.h_ops) 0 in
  let pnode i = Pass_core.Pnode.of_int (i + 1) in
  let s0 = Simdisk.Clock.now clock and h0 = Meter.now_ns () in
  Array.iteri
    (fun s (st : Gen.step) ->
      let i = p.Gen.h_initial + s and j = st.Gen.st_revise in
      Buffer.clear buf;
      List.iter (Record.encode buf)
        [
          Record.name (Gen.object_name i);
          Record.typ "artifact";
          Record.make "BATCH" (Pvalue.Int (i / p.Gen.h_batch));
          Record.input_of (pnode st.Gen.st_parent) versions.(st.Gen.st_parent);
          Record.make "REV" (Pvalue.Int i);
        ];
      versions.(j) <- versions.(j) + 1;
      ok "append" (ops.Vfs.write ino ~off:!off (Buffer.contents buf));
      off := !off + Buffer.length buf;
      ok "fsync" (ops.Vfs.fsync ino))
    w.Gen.steps;
  { base_sim_ns = Simdisk.Clock.now clock - s0; base_host_ns = Meter.now_ns () - h0; data_bytes = !off; base_failed = 0 }
