(* The benchmark's top level: rounds of one workload for a fixed time, then
   every metric by name with its unit, and the result line.

   An untraced run ([--trace 0]) yields the end-to-end metrics.  A traced
   run yields the per-layer metrics: one round runs traced, the others
   untraced, and tracing never runs in a round whose numbers are
   reported end to end.

   Host time drifts by up to a fifth between runs of one seed a few
   minutes apart (measured on a shared 2-core x86-64 VM), so the
   host-time metrics that cannot repeat within a tenth
   ([ops_per_s], op and query latency) are per-layer metrics, measured on
   the untraced rounds of the traced run.  End to end, the host cost is
   counted exactly: words allocated per op and the peak heap. *)

open Common

type workload = {
  name : string;
  round :
    Meter.t -> seed:int -> check:bool -> ?tracer:Pvtrace.t -> ?monitor:Pvmon.t -> unit -> round;
  baseline : seed:int -> baseline;
}

let workloads =
  [
    { name = "mail_local";
      round = (fun m ~seed ~check ?tracer ?monitor () -> Mail.round m ~seed ~check ?tracer ?monitor ());
      baseline = (fun ~seed -> Mail.baseline ~seed ()) };
    { name = "patch_nfs";
      round = (fun m ~seed ~check ?tracer ?monitor () -> Patch.round m ~seed ~check ?tracer ?monitor ());
      baseline = (fun ~seed -> Patch.baseline ~seed ()) };
    { name = "history_query";
      round = (fun m ~seed ~check ?tracer ?monitor () -> History.round m ~seed ~check ?tracer ?monitor ());
      baseline = (fun ~seed -> History.baseline ~seed ()) };
  ]

(* --- metric names -------------------------------------------------------------- *)

(* Simulated time (the paper's cost model) has its own unit, [sim_ms],
   so it is never read as host time. *)
let end_to_end =
  [
    ("alloc_words_per_op", "words"); ("heap_peak_mb", "MB"); ("setup_s", "s");
    ("sim_overhead_pct", "%"); ("sim_op_p50_ms", "sim_ms"); ("sim_op_p99_ms", "sim_ms");
    ("space_overhead_pct", "%"); ("write_amp", "ratio"); ("recover_ms", "sim_ms");
    ("ok_op_ratio", "ratio");
  ]

let kinds = List.map Gen.kind_name Gen.query_kinds
let sim_layers = [ "core"; "lasagna"; "waldo"; "os" ]

let per_layer =
  [
    ("ops_per_s", "1/s"); ("op_p50_ms", "ms"); ("op_p99_ms", "ms");
    ("query_p50_ms", "ms"); ("query_p99_ms", "ms");
    ("kernel.write.us_p50", "us"); ("kernel.write.words_per_call", "words");
    ("kernel.read.us_p50", "us"); ("kernel.read.words_per_call", "words");
    ("kernel.meta.us_p50", "us"); ("kernel.proc.us_p50", "us"); ("kernel.calls", "count");
    ("vanilla.run_s", "s"); ("pass.extra_s", "s");
    ("ext3.cache_hit_ratio", "ratio"); ("ext3.journal_bytes", "bytes"); ("ext3.metadata_ops", "count");
    ("disk.writes", "count"); ("disk.bytes_written", "bytes"); ("disk.reads", "count");
    ("disk.seeks", "count"); ("disk.seek_ms", "sim_ms"); ("disk.transfer_ms", "sim_ms");
    ("observer.events", "count"); ("analyzer.records_in", "count");
    ("analyzer.dedup_ratio", "ratio"); ("analyzer.freezes", "count"); ("distributor.flushes", "count");
    ("wap.frames_written", "count"); ("wap.bytes_written", "bytes"); ("wap.group_commits", "count");
    ("wap.records_per_commit", "ratio"); ("lasagna.mkobj.us_p50", "us");
    ("lasagna.write.us_p50", "us"); ("lasagna.freeze.us_p50", "us");
    ("waldo.drain.ms", "ms"); ("waldo.checkpoint.ms_p50", "ms"); ("waldo.checkpoint.ms_max", "ms");
    ("waldo.checkpoint.sim_ms", "sim_ms"); ("waldo.checkpoint.bytes_written", "bytes");
    ("waldo.recover.ms", "ms"); ("waldo.replay_frames", "count"); ("waldo.archives", "count");
    ("waldo.db_bytes", "bytes"); ("waldo.index_bytes", "bytes");
    ("pql.prepare.us_p50", "us");
  ]
  @ List.concat_map
      (fun k -> [ ("pql.execute." ^ k ^ ".us_p50", "us"); ("pql.execute." ^ k ^ ".us_p99", "us") ])
      kinds
  @ [
      ("pql.rows_per_query", "ratio"); ("pql.examined_per_row", "ratio");
      ("nfs.rpcs", "count"); ("nfs.server.us_p50", "us"); ("nfs.calls_per_rpc", "ratio");
      ("nfs.retries", "count"); ("nfs.drc_hits", "count"); ("nfs.txns", "count");
      ("gc.minor_collections", "count"); ("gc.major_collections", "count");
      ("gc.promoted_words_per_op", "words"); ("trace.overhead_pct", "%");
    ]
  @ List.map (fun l -> ("sim_self_ms." ^ l, "sim_ms")) sim_layers

let valid_name s =
  String.length s > 0
  && String.length s <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '.' || c = '-')
       s

(* --- helpers -------------------------------------------------------------------- *)

let ms ns = ns /. 1e6
let pct a q = Meter.percentile a q
let ratio a b = if b = 0. then 0. else a /. b
let count r name = Option.value ~default:0. (List.assoc_opt name r.counts)
let finite v = if Float.is_finite v then v else 0.

(* Repeat [f] until [seconds] have passed since [start], at least [min]
   times; an iteration that would end past the deadline (judged by the
   slowest one so far) is not started. *)
let repeat ~start ~seconds ~min f =
  let deadline = start + int_of_float (seconds *. 1e9) in
  let rec go acc n slowest =
    let now = Meter.now_ns () in
    if n >= min && now + slowest > deadline then List.rev acc
    else
      let v = f () in
      go (v :: acc) (n + 1) (max slowest (Meter.now_ns () - now))
  in
  go [] 0 0

(* Median over rounds of a per-round statistic: a slow spell moves a
   minority of rounds, not the median. *)
let across rounds f = Meter.median_f (Array.of_list (List.map f rounds))

(* Host-time metrics of untraced rounds.  Op percentiles are per round
   (every workload runs at least 1000 ops a round, so p99 has ten
   samples beyond it); query latencies are pooled over [query_rounds]. *)
let host_times rounds ~query_rounds =
  let queries = Ibuf.create () in
  List.iter (fun r -> Ibuf.append queries r.query_host) query_rounds;
  let queries = Ibuf.to_array queries in
  ( [
      ("ops_per_s", across rounds (fun r -> float_of_int (Ibuf.length r.op_host) /. (float_of_int (Ibuf.sum r.op_host) /. 1e9)));
      ("op_p50_ms", ms (across rounds (fun r -> pct (Ibuf.to_array r.op_host) 0.5)));
      ("op_p99_ms", ms (across rounds (fun r -> pct (Ibuf.to_array r.op_host) 0.99)));
      ("query_p50_ms", ms (pct queries 0.5));
      ("query_p99_ms", ms (pct queries 0.99));
    ],
    Array.length queries )

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  notes : string list;  (** human-readable lines printed before the result *)
}

let totals rounds ~base_failed =
  ( List.fold_left (fun a (r : round) -> a + r.attempted) 0 rounds,
    List.fold_left (fun a (r : round) -> a + r.failed) base_failed rounds )

let note_values title values =
  title :: List.map (fun (n, v) -> Printf.sprintf "  %-34s %14.6f" n v) values

(* --- end to end --------------------------------------------------------------------- *)

(* The op stream of round [k] of a run with seed [seed]. *)
let round_seed seed k = (seed * 7919) + k

(* Exact metrics are sums over this many rounds, each with its own op
   stream: enough ops that a seed's draw barely moves them, while the
   peak heap stays that of one round. *)
let exact_rounds = 3

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* Every round starts from a collected heap, so its set-up and ops do
   not pay for the garbage of the round or baseline before it. *)
let round w m ~seed ~check ?tracer ?monitor () =
  Gc.full_major ();
  w.round m ~seed ~check ?tracer ?monitor ()

let run_e2e w ~seed ~seconds =
  let m = Meter.create ~tracing:false in
  let start = Meter.now_ns () in
  let exact =
    List.init exact_rounds (fun k ->
        let r = round w m ~seed:(round_seed seed k) ~check:true () in
        (r, w.baseline ~seed:(round_seed seed k)))
  in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let more = repeat ~start ~seconds ~min:0 (fun () -> round w m ~seed:(round_seed seed 0) ~check:false ()) in
  let firsts = List.map fst exact and bases = List.map snd exact in
  let rounds = firsts @ more in
  let total f = float_of_int (sum f firsts) and base_total f = float_of_int (sum f bases) in
  let ops = total (fun r -> Ibuf.length r.op_host) in
  let sim = Ibuf.create () in
  List.iter (fun r -> Ibuf.append sim r.op_sim) firsts;
  let sim = Ibuf.to_array sim in
  let attempted, failed = totals rounds ~base_failed:(sum (fun b -> b.base_failed) bases) in
  let metrics =
    [
      ("alloc_words_per_op", ratio (total (fun r -> r.op_words)) ops);
      ("heap_peak_mb", float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.);
      ("setup_s", across rounds (fun r -> float_of_int r.setup_ns) /. 1e9);
      ( "sim_overhead_pct",
        100. *. (ratio (total (fun r -> r.pass_sim_ns)) (base_total (fun b -> b.base_sim_ns)) -. 1.) );
      ("sim_op_p50_ms", ms (pct sim 0.5));
      ("sim_op_p99_ms", ms (pct sim 0.99));
      ("space_overhead_pct", 100. *. ratio (total (fun r -> r.prov_bytes)) (base_total (fun b -> b.data_bytes)));
      ("write_amp", ratio (total (fun r -> r.disk_bytes)) (total (fun r -> r.payload_bytes)));
      ("recover_ms", ms (total (fun r -> r.recover_sim_ns) /. float_of_int exact_rounds));
      ("ok_op_ratio", 1. -. ratio (float_of_int failed) (float_of_int attempted));
    ]
  in
  let host, nqueries = host_times rounds ~query_rounds:rounds in
  let notes =
    Printf.sprintf "rounds: %d (%d exact); ops per round: %.0f; simulated op latency samples: %d"
      (List.length rounds) exact_rounds (ops /. float_of_int exact_rounds) (Array.length sim)
    :: note_values
         (Printf.sprintf "host time (not end to end; %d queries pooled):" nqueries)
         host
  in
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics = List.map (fun (n, u) -> (n, finite (List.assoc n metrics), u)) end_to_end;
    notes;
  }

(* --- traced ------------------------------------------------------------------------- *)

let run_traced w ~seed ~seconds ~trace_file =
  let traced = Meter.create ~tracing:true in
  Meter.calibrate traced;
  let start = Meter.now_ns () in
  let base = w.baseline ~seed:(round_seed seed 0) in
  let tracer = Pvtrace.create () and monitor = Pvmon.create () in
  let r = round w traced ~seed:(round_seed seed 0) ~check:false ~tracer ~monitor () in
  let plain = Meter.create ~tracing:false in
  (* enough untraced rounds that, with the traced one, at least 1000
     queries are pooled for query_p99_ms *)
  let q = max 1 (Ibuf.length r.query_host) in
  let min = max 1 (((1000 + q - 1) / q) - 1) in
  let untraced = repeat ~start ~seconds ~min (fun () -> round w plain ~seed:(round_seed seed 0) ~check:false ()) in
  let attempted, failed = totals (r :: untraced) ~base_failed:base.base_failed in
  let host, nqueries = host_times untraced ~query_rounds:(r :: untraced) in
  let span_us name q =
    let d, _ = Meter.by_name traced name in
    pct d q /. 1e3
  in
  let words_per_call name =
    let _, wd = Meter.by_name traced name in
    ratio (float_of_int (Array.fold_left ( + ) 0 wd)) (float_of_int (Array.length wd))
  in
  let span_ms name q =
    let d, _ = Meter.by_name traced name in
    pct d q /. 1e6
  in
  let ops = float_of_int (Ibuf.length r.op_host) in
  let queries = float_of_int (Ibuf.length r.query_host) in
  let untraced_ns = across untraced (fun u -> float_of_int u.pass_host_ns) in
  let attribution = Pvmon.attribution monitor in
  let sim_self layer =
    List.fold_left
      (fun acc (row : Pvmon.layer_row) ->
        if String.equal row.Pvmon.lr_layer layer then acc +. (float_of_int row.Pvmon.lr_self_ns /. 1e6) else acc)
      0. attribution
  in
  let conserves =
    List.fold_left (fun acc (row : Pvmon.layer_row) -> acc + row.Pvmon.lr_self_ns) 0 attribution
    = Pvmon.traced_total_ns monitor
  in
  let trees_ok = Meter.check_trees traced in
  let values =
    host
    @ [
        ("kernel.write.us_p50", span_us "kernel.write" 0.5);
        ("kernel.write.words_per_call", words_per_call "kernel.write");
        ("kernel.read.us_p50", span_us "kernel.read" 0.5);
        ("kernel.read.words_per_call", words_per_call "kernel.read");
        ("kernel.meta.us_p50", span_us "kernel.meta" 0.5);
        ("kernel.proc.us_p50", span_us "kernel.proc" 0.5);
        ("vanilla.run_s", float_of_int base.base_host_ns /. 1e9);
        ("pass.extra_s", (untraced_ns -. float_of_int base.base_host_ns) /. 1e9);
        ("analyzer.dedup_ratio", ratio (count r "analyzer.records_out") (count r "analyzer.records_in"));
        ("wap.records_per_commit", ratio (count r "wap.frames_written") (count r "wap.group_commits"));
        ("lasagna.mkobj.us_p50", span_us "lasagna.mkobj" 0.5);
        ("lasagna.write.us_p50", span_us "lasagna.write" 0.5);
        ("lasagna.freeze.us_p50", span_us "lasagna.freeze" 0.5);
        ("waldo.drain.ms", span_ms "waldo.drain" 0.5);
        ("waldo.checkpoint.ms_p50", span_ms "waldo.checkpoint" 0.5);
        ("waldo.checkpoint.ms_max", span_ms "waldo.checkpoint" 1.0);
        ("waldo.recover.ms", span_ms "waldo.recover" 0.5);
        ("pql.prepare.us_p50", span_us "pql.prepare" 0.5);
        ("pql.rows_per_query", ratio (count r "pql.rows") queries);
        ("pql.examined_per_row", ratio (count r "pql.examined") (count r "pql.rows"));
        ("nfs.server.us_p50", span_us "nfs.server" 0.5);
        ("nfs.calls_per_rpc", ratio (count r "nfs.calls") (count r "nfs.handled"));
        ("gc.minor_collections", float_of_int r.op_minor_gcs);
        ("gc.major_collections", float_of_int r.op_major_gcs);
        ("gc.promoted_words_per_op", ratio (float_of_int r.op_promoted) ops);
        ("trace.overhead_pct", 100. *. ratio (float_of_int r.pass_host_ns -. untraced_ns) untraced_ns);
      ]
    @ List.concat_map
        (fun k ->
          [
            ("pql.execute." ^ k ^ ".us_p50", span_us ("pql.execute." ^ k) 0.5);
            ("pql.execute." ^ k ^ ".us_p99", span_us ("pql.execute." ^ k) 0.99);
          ])
        kinds
    @ List.map (fun l -> ("sim_self_ms." ^ l, sim_self l)) sim_layers
  in
  let value name = match List.assoc_opt name values with Some v -> v | None -> count r name in
  Meter.write traced trace_file;
  let notes =
    [
      Printf.sprintf "untraced rounds: %d; ops per round: %d; queries pooled: %d" (List.length untraced)
        (Ibuf.length r.op_host) nqueries;
      Printf.sprintf "traced round: %d spans (written to %s)" (Meter.spans traced) trace_file;
      Printf.sprintf "span trees conserve self time: %b; pvmon attribution conserves: %b" trees_ok conserves;
    ]
    @ List.map
        (fun (n, s) -> Printf.sprintf "self time %-28s %12.3f ms" n (float_of_int s /. 1e6))
        (Meter.self_by_name traced)
  in
  {
    correct = failed = 0 && trees_ok && conserves;
    attempted;
    failed;
    metrics = List.map (fun (n, u) -> (n, finite (value n), u)) per_layer;
    notes;
  }

(* --- output --------------------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let result_line res =
  let metrics =
    List.map
      (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
      res.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" res.correct
    res.attempted res.failed (String.concat ", " metrics)

let print res =
  List.iter print_endline res.notes;
  List.iter (fun (n, v, u) -> Printf.printf "%-36s %18.6f %s\n" n v u) res.metrics;
  print_endline (result_line res)
