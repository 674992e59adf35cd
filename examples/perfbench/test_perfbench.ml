(* Tests of the benchmark itself: seeded generators, exact metrics,
   metric names, op mixes and the traced-run checks.  Workloads run at
   small sizes here; the generators and runners are the benchmark's own. *)

open Perfbench

let check = Alcotest.check

let small_mail =
  { Mail.params with Gen.m_files = 24; m_ops = 300; m_init_max = 24_576; m_max_size = 40_960 }

let small_patch = { Patch.params with Gen.p_tree = 40; p_ops = 40 }

let small_history =
  { History.params with Gen.h_initial = 60; h_ops = 240; h_checkpoint_every = 20; h_query_every = 5 }

let small_workloads =
  [
    { Bench.name = "mail_local";
      round = (fun m ~seed ~check ?tracer ?monitor () -> Mail.round ~p:small_mail m ~seed ~check ?tracer ?monitor ());
      baseline = (fun ~seed -> Mail.baseline ~p:small_mail ~seed ()) };
    { Bench.name = "patch_nfs";
      round = (fun m ~seed ~check ?tracer ?monitor () -> Patch.round ~p:small_patch m ~seed ~check ?tracer ?monitor ());
      baseline = (fun ~seed -> Patch.baseline ~p:small_patch ~seed ()) };
    { Bench.name = "history_query";
      round =
        (fun m ~seed ~check ?tracer ?monitor () -> History.round ~p:small_history m ~seed ~check ?tracer ?monitor ());
      baseline = (fun ~seed -> History.baseline ~p:small_history ~seed ()) };
  ]

(* --- generators ---------------------------------------------------------------- *)

let streams seed =
  [
    Marshal.to_string (Gen.gen_mail small_mail ~seed) [];
    Marshal.to_string (Gen.gen_patch small_patch ~seed) [];
    Marshal.to_string (Gen.gen_history small_history ~seed) [];
  ]

let test_same_seed_same_stream () =
  List.iter2 (fun a b -> check Alcotest.bool "identical op stream" true (String.equal a b)) (streams 5) (streams 5)

let test_other_seed_other_stream () =
  List.iter2 (fun a b -> check Alcotest.bool "different op stream" false (String.equal a b)) (streams 5) (streams 6)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1)) in
  go 0

let fraction n total = float_of_int n /. float_of_int total

let test_mail_mix () =
  let p = { Mail.params with Gen.m_ops = 20_000 } in
  let w = Gen.gen_mail p ~seed:3 in
  List.iter
    (fun (kind, declared) ->
      let n = Array.fold_left (fun acc op -> if String.equal (Gen.mail_op_kind op) kind then acc + 1 else acc) 0 w.Gen.mail_ops in
      let got = fraction n (Array.length w.Gen.mail_ops) in
      if Float.abs (got -. declared) > 0.02 then Alcotest.failf "%s: declared %.3f, realised %.3f" kind declared got)
    Gen.mail_mix;
  (* sizes stay bounded: replay the stream's size changes *)
  let sizes = Hashtbl.create 64 in
  Array.iter (fun (f, size, _) -> Hashtbl.replace sizes f size) w.Gen.pool;
  Array.iter
    (function
      | Gen.Create { file; size; _ } -> Hashtbl.replace sizes file size
      | Gen.Delete { file } -> Hashtbl.remove sizes file
      | Gen.Read { file } -> check Alcotest.bool "read a live file" true (Hashtbl.mem sizes file)
      | Gen.Append { file; len; _ } ->
          let s = Hashtbl.find sizes file + len in
          check Alcotest.bool "append within the size bound" true (s <= p.Gen.m_max_size);
          Hashtbl.replace sizes file s)
    w.Gen.mail_ops;
  check Alcotest.bool "pool stays near its size" true (abs (Hashtbl.length sizes - p.Gen.m_files) <= 1)

let test_patch_mix () =
  let p = { Patch.params with Gen.p_ops = 5000 } in
  let w = Gen.gen_patch p ~seed:3 in
  let hunks = Array.fold_left (fun acc op -> acc + Array.length op.Gen.pt_hunks) 0 w.Gen.patch_ops in
  let declared = List.assoc "hunks_per_patch" (Gen.patch_mix p) in
  let got = fraction hunks p.Gen.p_ops in
  if Float.abs (got -. declared) > 0.1 then Alcotest.failf "hunks per patch: declared %.2f, realised %.2f" declared got;
  Array.iter
    (fun op ->
      Array.iter
        (fun (h : Gen.hunk) ->
          let size, _ = w.Gen.tree.(h.Gen.h_file) and dsize, _ = w.Gen.diffs.(op.Gen.pt_diff) in
          check Alcotest.bool "hunk inside file and diff" true
            (h.Gen.h_off + h.Gen.h_len <= size && h.Gen.h_diff_off + h.Gen.h_len <= dsize))
        op.Gen.pt_hunks)
    w.Gen.patch_ops

let test_history_mix () =
  let p = { History.params with Gen.h_ops = 30_000; h_query_every = 1 } in
  let w = Gen.gen_history p ~seed:3 in
  List.iter
    (fun (kind, declared) ->
      let n =
        Array.fold_left
          (fun acc st ->
            match st.Gen.st_query with Some (k, _) when String.equal (Gen.kind_name k) kind -> acc + 1 | _ -> acc)
          0 w.Gen.steps
      in
      let got = fraction n p.Gen.h_ops in
      if Float.abs (got -. declared) > 0.02 then Alcotest.failf "%s: declared %.3f, realised %.3f" kind declared got)
    Gen.history_mix

(* --- exact metrics --------------------------------------------------------------- *)

(* Everything a round measures that must not depend on the host. *)
let exact (r : Common.round) =
  Marshal.to_string
    ( r.Common.op_words,
      Common.Ibuf.to_array r.Common.op_sim,
      ( r.Common.pass_sim_ns,
        r.Common.payload_bytes,
        r.Common.disk_bytes,
        r.Common.prov_bytes,
        r.Common.recover_sim_ns,
        r.Common.attempted,
        r.Common.failed ),
      r.Common.counts )
    []

(* Allocation counts are exact per process, not per round: a round's
   words depend on the garbage earlier rounds left.  So each run is a
   fresh process: this test binary re-executed in child mode. *)
let exact_in_fresh_process (w : Bench.workload) seed =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--exact-child"; w.Bench.name; string_of_int seed |]
  in
  let line = input_line ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "child run of %s failed" w.Bench.name);
  line

let child_mode () =
  match Sys.argv with
  | [| _; "--exact-child"; name; seed |] ->
      let w = List.find (fun w -> String.equal w.Bench.name name) small_workloads in
      let r = w.Bench.round (Meter.create ~tracing:false) ~seed:(int_of_string seed) ~check:true () in
      let b = w.Bench.baseline ~seed:(int_of_string seed) in
      print_endline
        (Printf.sprintf "%s failed=%d base=%d/%d" (Digest.to_hex (Digest.string (exact r))) r.Common.failed
           b.Common.base_sim_ns b.Common.data_bytes);
      exit 0
  | _ -> ()

let test_exact_metrics (w : Bench.workload) () =
  let a = exact_in_fresh_process w 9 and b = exact_in_fresh_process w 9 in
  check Alcotest.string "exact metrics identical" a b;
  check Alcotest.bool "no failed op" true (contains a "failed=0 ");
  check Alcotest.bool "another seed, other metrics" false (String.equal a (exact_in_fresh_process w 10))

(* --- metric names and the result line ------------------------------------------------ *)

let test_metric_names () =
  let names = List.map fst Bench.end_to_end @ List.map fst Bench.per_layer in
  List.iter (fun n -> if not (Bench.valid_name n) then Alcotest.failf "bad metric name %S" n) names;
  check Alcotest.int "names are unique" (List.length names) (List.length (List.sort_uniq String.compare names))

let names_of res = List.map (fun (n, _, _) -> n) res.Bench.metrics

let test_e2e_run (w : Bench.workload) () =
  let res = Bench.run_e2e w ~seed:4 ~seconds:0. in
  check Alcotest.bool "correct" true res.Bench.correct;
  check Alcotest.(list string) "every end-to-end metric" (List.map fst Bench.end_to_end) (names_of res);
  List.iter
    (fun (n, v, _) -> if not (v > 0.) then Alcotest.failf "end-to-end metric %s is %g, not > 0" n v)
    res.Bench.metrics;
  let line = Bench.result_line res in
  check Alcotest.bool "result line is one JSON object" true
    (String.length line > 2 && Char.equal line.[0] '{' && not (String.contains line '\n'))

(* --- traced run ------------------------------------------------------------------------ *)

let test_traced_run (w : Bench.workload) () =
  let file = Filename.temp_file "perfbench" ".tsv" in
  let res = Bench.run_traced w ~seed:4 ~seconds:0. ~trace_file:file in
  Sys.remove file;
  (* correct folds in both trace checks: span self times sum to each
     op's duration, and pvmon's attribution conserves *)
  check Alcotest.bool "correct (span trees and attribution conserve)" true res.Bench.correct;
  check Alcotest.(list string) "every per-layer metric" (List.map fst Bench.per_layer) (names_of res);
  check Alcotest.bool "trace.overhead_pct reported" true (List.mem "trace.overhead_pct" (names_of res))

let test_span_self_times () =
  let m = Meter.create ~tracing:true in
  Meter.calibrate m;
  Meter.span m "op" (fun () ->
      Meter.span m "a" (fun () -> Meter.span m "b" (fun () -> ()));
      Meter.span m "c" (fun () -> ()));
  Meter.span m "op" (fun () -> ());
  check Alcotest.int "five spans" 5 (Meter.spans m);
  check Alcotest.bool "self times sum to each op's duration" true (Meter.check_trees m)

let () =
  child_mode ();
  let per_workload name f = List.map (fun w -> Alcotest.test_case (w.Bench.name ^ " " ^ name) `Slow (f w)) small_workloads in
  Alcotest.run "perfbench"
    [
      ( "generators",
        [
          Alcotest.test_case "same seed, same op stream" `Quick test_same_seed_same_stream;
          Alcotest.test_case "other seed, other op stream" `Quick test_other_seed_other_stream;
          Alcotest.test_case "mail_local mix and size bound" `Quick test_mail_mix;
          Alcotest.test_case "patch_nfs mix and hunk bounds" `Quick test_patch_mix;
          Alcotest.test_case "history_query mix" `Quick test_history_mix;
        ] );
      ("exact metrics", per_workload "same seed, same exact metrics" test_exact_metrics);
      ( "metrics",
        Alcotest.test_case "names" `Quick test_metric_names :: per_workload "end-to-end run" test_e2e_run );
      ( "trace",
        Alcotest.test_case "span self times" `Quick test_span_self_times
        :: per_workload "traced run" test_traced_run );
    ]
