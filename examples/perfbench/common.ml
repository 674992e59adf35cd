(* What one round of a workload measures, and the timed wrappers the
   workloads call the stack through. *)

module Ibuf = Meter.Ibuf

exception Op_failed of string

let ok what = function
  | Ok v -> v
  | Error e -> raise (Op_failed (what ^ ": " ^ Vfs.errno_to_string e))

let dok what = function
  | Ok v -> v
  | Error e -> raise (Op_failed (what ^ ": " ^ Pass_core.Dpapi.error_to_string e))

(* One round: set up a fresh machine, run the generated op stream
   closed-loop, then drain, query, crash and recover. *)
type round = {
  setup_ns : int;
  op_host : Ibuf.t;  (** host ns per op *)
  op_sim : Ibuf.t;  (** simulated ns per op *)
  mutable op_words : int;  (** words allocated inside ops *)
  mutable op_promoted : int;  (** words promoted to the major heap inside ops *)
  mutable op_minor_gcs : int;
  mutable op_major_gcs : int;
  query_host : Ibuf.t;  (** host ns per query (prepare + execute) *)
  mutable pass_sim_ns : int;  (** simulated ns of the ops plus the drain *)
  mutable pass_host_ns : int;  (** host ns of the ops plus the drain *)
  mutable payload_bytes : int;  (** user bytes written (records for history) *)
  mutable disk_bytes : int;  (** disk bytes written during ops + drain *)
  mutable prov_bytes : int;  (** provenance db + index bytes *)
  mutable recover_sim_ns : int;
  mutable attempted : int;
  mutable failed : int;
  mutable counts : (string * float) list;  (** per-layer counts of this round *)
}

let new_round ~setup_ns =
  {
    setup_ns;
    op_host = Ibuf.create ();
    op_sim = Ibuf.create ();
    op_words = 0;
    op_promoted = 0;
    op_minor_gcs = 0;
    op_major_gcs = 0;
    query_host = Ibuf.create ();
    pass_sim_ns = 0;
    pass_host_ns = 0;
    payload_bytes = 0;
    disk_bytes = 0;
    prov_bytes = 0;
    recover_sim_ns = 0;
    attempted = 0;
    failed = 0;
    counts = [];
  }

(* The same op stream on the configuration without provenance. *)
type baseline = {
  base_sim_ns : int;  (** simulated ns of the ops *)
  base_host_ns : int;
  data_bytes : int;  (** data footprint (Table 3's denominator) *)
  base_failed : int;
}

(* Run one op: host and simulated latency, words allocated.  An op that
   raises [Op_failed] counts as failed.  The op span is the root every
   layer span of the op hangs off. *)
let run_op m r ~sim_now f =
  let g0 = Gc.quick_stat () in
  let s0 = sim_now () in
  let t0 = Meter.now_ns () in
  let result = try Meter.span m "op" (fun () -> Ok (f ())) with Op_failed e -> Error e in
  let t1 = Meter.now_ns () in
  let s1 = sim_now () in
  let g1 = Gc.quick_stat () in
  r.op_words <- r.op_words + (Meter.words_of g1 - Meter.words_of g0);
  r.op_promoted <- r.op_promoted + int_of_float (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  r.op_minor_gcs <- r.op_minor_gcs + (g1.Gc.minor_collections - g0.Gc.minor_collections);
  r.op_major_gcs <- r.op_major_gcs + (g1.Gc.major_collections - g0.Gc.major_collections);
  Ibuf.push r.op_host (t1 - t0);
  Ibuf.push r.op_sim (s1 - s0);
  r.attempted <- r.attempted + 1;
  match result with
  | Ok v -> Some v
  | Error _ ->
      r.failed <- r.failed + 1;
      None

(* --- kernel system calls, timed per class ------------------------------------- *)

let kopen m k ~pid ~path ~create =
  ok "open" (Meter.span m "kernel.meta" (fun () -> Kernel.open_file k ~pid ~path ~create))

let kclose m k ~pid ~fd = ok "close" (Meter.span m "kernel.meta" (fun () -> Kernel.close k ~pid ~fd))
let kunlink m k ~pid ~path = ok "unlink" (Meter.span m "kernel.meta" (fun () -> Kernel.unlink k ~pid ~path))

let krename m k ~pid ~src ~dst =
  ok "rename" (Meter.span m "kernel.meta" (fun () -> Kernel.rename k ~pid ~src ~dst))

let kseek m k ~pid ~fd ~off = ok "seek" (Meter.span m "kernel.meta" (fun () -> Kernel.seek k ~pid ~fd ~off))
let kwrite m k ~pid ~fd data = ok "write" (Meter.span m "kernel.write" (fun () -> Kernel.write k ~pid ~fd ~data))
let kread m k ~pid ~fd ~len = ok "read" (Meter.span m "kernel.read" (fun () -> Kernel.read k ~pid ~fd ~len))
let kfork m k ~parent = Meter.span m "kernel.proc" (fun () -> Kernel.fork k ~parent)

let kexec m k ~pid ~path ~argv =
  ok "execve" (Meter.span m "kernel.proc" (fun () -> Kernel.execve k ~pid ~path ~argv ~env:[]))

let kexit m k ~pid = ok "exit" (Meter.span m "kernel.proc" (fun () -> Kernel.exit k ~pid))

(* Write payload [seed] of [len] bytes in 4 KiB chunks at the fd's offset. *)
let write_payload m k ~pid ~fd ~seed ~len =
  let pos = ref 0 in
  while !pos < len do
    let n = min Gen.chunk (len - !pos) in
    kwrite m k ~pid ~fd (Gen.payload_chunk ~seed ~off:!pos n);
    pos := !pos + n
  done

let write_string m k ~pid ~fd s =
  let len = String.length s and pos = ref 0 in
  while !pos < len do
    let n = min Gen.chunk (len - !pos) in
    kwrite m k ~pid ~fd (String.sub s !pos n);
    pos := !pos + n
  done

(* Read the rest of a file in 4 KiB reads; chunks in reverse order. *)
let read_chunks m k ~pid ~fd =
  let rec loop acc =
    let s = kread m k ~pid ~fd ~len:Gen.chunk in
    if String.equal s "" then acc else loop (s :: acc)
  in
  loop []

let read_whole m k ~pid ~path =
  let fd = kopen m k ~pid ~path ~create:false in
  let chunks = read_chunks m k ~pid ~fd in
  kclose m k ~pid ~fd;
  String.concat "" (List.rev chunks)

(* --- queries ------------------------------------------------------------------ *)

(* Prepare and execute one PQL query; returns its rows and plan. *)
let query m r ~kind db text =
  let t0 = Meter.now_ns () in
  let prepared = Meter.span m "pql.prepare" (fun () -> Pql.Engine.prepare db text) in
  let rows = Meter.span m ("pql.execute." ^ Gen.kind_name kind) (fun () -> Pql.Engine.execute prepared) in
  Ibuf.push r.query_host (Meter.now_ns () - t0);
  r.attempted <- r.attempted + 1;
  (rows, Pql.Engine.explain prepared)

(* Rows rendered and sorted, for comparison with the naive oracle. *)
let canon db rows = List.sort (List.compare String.compare) (Pql.render db rows)

let rows_match db text rows =
  let reference = Pql_eval.reference_rows db (Pql.parse text) in
  List.equal (List.equal String.equal) (canon db rows) (canon db reference)

(* Examined items per returned row, from the executed plan's actuals. *)
let examined (plan : Pql_plan.t) =
  List.fold_left (fun acc (s : Pql_plan.step) -> acc + max 0 s.Pql_plan.actual) 0 plan.Pql_plan.steps

(* [n] queries over [db] after the run, the kinds in turn, [text kind]
   giving each one's text; with [check], the first of each kind is also
   compared with the naive evaluator.  Returns rows and items examined. *)
let post_run_queries m r ~n ~check db text =
  let rows_total = ref 0 and examined_total = ref 0 in
  for i = 0 to n - 1 do
    let kind = List.nth Gen.query_kinds (i mod 3) in
    let text = text kind in
    let rows, plan = query m r ~kind db text in
    rows_total := !rows_total + List.length rows;
    examined_total := !examined_total + examined plan;
    if check && i < 3 && not (rows_match db text rows) then r.failed <- r.failed + 1
  done;
  (!rows_total, !examined_total)

(* Crash [disk], revive it, remount ext3 and recover Waldo; the round's
   recovery time is the simulated time from revive to return. *)
let crash_and_recover ?(policy = Waldo.Disabled) ?compact_keep m r ~clock disk =
  Simdisk.Disk.crash disk;
  Simdisk.Disk.revive disk;
  let s0 = Simdisk.Clock.now clock in
  let recovered =
    Meter.span m "waldo.recover" (fun () ->
        let ext3 = Ext3.mount disk in
        ok "recover"
          (Waldo.recover ~registry:(Telemetry.create ()) ~policy ?compact_keep ~lower:(Ext3.ops ext3) ()))
  in
  r.recover_sim_ns <- Simdisk.Clock.now clock - s0;
  recovered

(* --- counter deltas ------------------------------------------------------------- *)

let counter reg name = Option.value ~default:0 (Telemetry.counter_value reg name)

(* Registry counters the per-layer metrics read, as (metric, counter). *)
let registry_counts =
  [
    ("observer.events", "observer.events");
    ("analyzer.records_in", "analyzer.records_in");
    ("analyzer.records_out", "analyzer.records_out");
    ("analyzer.freezes", "analyzer.freezes");
    ("distributor.flushes", "distributor.flushes");
    ("wap.frames_written", "wap.frames_written");
    ("wap.bytes_written", "wap.bytes_written");
    ("wap.group_commits", "wap.group_commits");
    ("nfs.drc_hits", "nfs.drc.hits");
  ]

let snapshot reg = List.map (fun (k, c) -> (k, counter reg c)) registry_counts

let delta before after =
  List.map2 (fun (k, a) (_, b) -> (k, float_of_int (b - a))) before after

let disk_counts (before : Simdisk.Disk.stats) (after : Simdisk.Disk.stats) =
  let d f = float_of_int (f after - f before) in
  [
    ("disk.writes", d (fun s -> s.Simdisk.Disk.writes));
    ("disk.bytes_written", d (fun s -> s.Simdisk.Disk.bytes_written));
    ("disk.reads", d (fun s -> s.Simdisk.Disk.reads));
    ("disk.seeks", d (fun s -> s.Simdisk.Disk.seeks));
    ("disk.seek_ms", d (fun s -> s.Simdisk.Disk.seek_ns) /. 1e6);
    ("disk.transfer_ms", d (fun s -> s.Simdisk.Disk.transfer_ns) /. 1e6);
  ]

let sum_disk (a : Simdisk.Disk.stats) (b : Simdisk.Disk.stats) =
  let open Simdisk.Disk in
  {
    reads = a.reads + b.reads;
    writes = a.writes + b.writes;
    bytes_read = a.bytes_read + b.bytes_read;
    bytes_written = a.bytes_written + b.bytes_written;
    seeks = a.seeks + b.seeks;
    seek_ns = a.seek_ns + b.seek_ns;
    transfer_ns = a.transfer_ns + b.transfer_ns;
  }

let ext3_counts e (h0, m0, j0, md0) =
  let h, mi = Ext3.cache_stats e in
  let dh = h - h0 and dm = mi - m0 in
  [
    ("ext3.cache_hit_ratio", if dh + dm = 0 then 0. else float_of_int dh /. float_of_int (dh + dm));
    ("ext3.journal_bytes", float_of_int (Ext3.journal_bytes_written e - j0));
    ("ext3.metadata_ops", float_of_int (Ext3.metadata_ops e - md0));
  ]

let ext3_snapshot e =
  let h, m = Ext3.cache_stats e in
  (h, m, Ext3.journal_bytes_written e, Ext3.metadata_ops e)
