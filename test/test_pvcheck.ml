(* pvcheck: the offline verifier finds nothing on volumes built by the
   real stack, and a volume seeded with corruption class C yields
   findings from exactly C's pass — both directions of the fsck
   contract. *)

open Pass_core

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let fail_report what report =
  Alcotest.failf "%s:@ %a" what Pvcheck.pp_report report

(* --- clean volumes: every tier-1 workload -------------------------------- *)

let workload_db (w : Runner.workload) =
  let sys = Runner.local_system ~registry:(Telemetry.create ()) System.Pass in
  w.Runner.run sys;
  ignore (System.drain sys : int);
  Option.get (System.waldo_db sys "vol0")

let test_clean_workloads () =
  List.iter
    (fun (w : Runner.workload) ->
      let db = workload_db w in
      let report = Pvcheck.check_db ~registry:(Telemetry.create ()) ~volume:"vol0" db in
      if not (Pvcheck.clean report) then
        fail_report (w.Runner.wl_name ^ ": clean volume flagged") report;
      check tbool (w.Runner.wl_name ^ ": graph nonempty") true (report.Pvcheck.r_nodes > 0);
      (* all five graph passes ran (no orphan inputs in check_db) *)
      check tint (w.Runner.wl_name ^ ": passes ran") 5
        (List.length report.Pvcheck.r_passes))
    (Runner.standard ~scale:0.12 ())

(* --- mutation harness: each corruption class trips exactly its pass ------- *)

let mutation_case db clazz =
  let registry = Telemetry.create () in
  let cname = Pvmutate.name clazz in
  let before = Pvcheck.check_db ~registry db in
  if not (Pvcheck.clean before) then fail_report (cname ^ ": dirty before injection") before;
  let desc = Pvmutate.inject db clazz in
  let report = Pvcheck.check_db ~registry db in
  let expected = Pvmutate.flagged_by clazz in
  check tbool
    (Printf.sprintf "%s (%s): detected" cname desc)
    true
    (report.Pvcheck.r_findings <> []);
  List.iter
    (fun (f : Pvcheck.finding) ->
      check tstr (cname ^ ": flagged by its own pass only") expected f.Pvcheck.f_pass)
    report.Pvcheck.r_findings

let test_mutations_on_handbuilt () =
  List.iter
    (fun clazz ->
      let db, _, _, _, _, _ = Test_pql.sample_db () in
      mutation_case db clazz)
    Pvmutate.all

let test_mutations_on_workload () =
  (* the same property over a graph the production stack built *)
  let wl =
    List.find
      (fun (w : Runner.workload) -> String.equal w.Runner.wl_name "Mercurial Activity")
      (Runner.standard ~scale:0.05 ())
  in
  List.iter (fun clazz -> mutation_case (workload_db wl) clazz) Pvmutate.all

let test_class_names_roundtrip () =
  List.iter
    (fun clazz ->
      check tbool (Pvmutate.name clazz ^ " roundtrips") true
        (Pvmutate.of_name (Pvmutate.name clazz) = Some clazz);
      check tbool
        (Pvmutate.name clazz ^ " targets a real pass")
        true
        (List.mem (Pvmutate.flagged_by clazz) Pvcheck.pass_names))
    Pvmutate.all

(* --- offline fsck: checkpoint + live WAP log + recovery agreement -------- *)

(* A volume with a [Manual]-policy Waldo attached: processed logs stay on
   disk until a checkpoint covers them. *)
let manual_volume registry =
  let clock = Simdisk.Clock.create () in
  let disk = Simdisk.Disk.create ~registry ~clock () in
  let lower = Ext3.ops (Ext3.format disk) in
  let ctx = Ctx.create ~machine:1 in
  let lasagna =
    Lasagna.create ~registry ~lower ~ctx ~volume:"vol0" ~charge:(Simdisk.Clock.advance clock) ()
  in
  let waldo = Waldo.create ~registry ~policy:Waldo.Manual ~lower () in
  Waldo.attach waldo lasagna;
  (lower, lasagna, waldo)

let test_fsck_offline () =
  let registry = Telemetry.create () in
  let lower, lasagna, waldo = manual_volume registry in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  Helpers.ok (Dpapi.disclose ep h [ Record.name "offline.dat" ]);
  ignore (Waldo.finalize waldo lasagna : int);
  Helpers.ok_fs (Waldo.checkpoint waldo);
  (* leave an unfinished transaction in a live log: fsck must replay it
     and find Recovery and Waldo agreeing that it is orphaned *)
  ignore
    (Helpers.ok
       (Lasagna.write_txn_bundle ~txn:3 lasagna h ~off:0 ~data:None
          [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str "late") ] ])
      : int);
  let report = Helpers.ok_fs (Pvcheck.fsck ~registry ~lower ~volume:"vol0" ()) in
  check tbool "orphan-agreement ran" true
    (List.mem "orphan-agreement" report.Pvcheck.r_passes);
  if not (Pvcheck.clean report) then fail_report "offline fsck flagged a clean volume" report;
  check tbool "replayed log contributed records" true (report.Pvcheck.r_quads > 0)

let test_fsck_empty_volume () =
  let registry = Telemetry.create () in
  let disk = Simdisk.Disk.create ~registry ~clock:(Simdisk.Clock.create ()) () in
  let ext3 = Ext3.format disk in
  let report = Helpers.ok_fs (Pvcheck.fsck ~registry ~lower:(Ext3.ops ext3) ~volume:"vol0" ()) in
  check tbool "empty volume is clean" true (Pvcheck.clean report);
  check tint "no nodes" 0 report.Pvcheck.r_nodes

let test_report_json_shape () =
  let db, _, _, _, _, _ = Test_pql.sample_db () in
  ignore (Pvmutate.inject db Pvmutate.Dangling_xref : string);
  let report = Pvcheck.check_db ~registry:(Telemetry.create ()) ~volume:"vol0" db in
  let json = Pvcheck.report_to_json report in
  let open Telemetry.Json in
  (match member "schema" json with
  | Some (Str "pvcheck/v1") -> ()
  | _ -> Alcotest.fail "schema tag");
  (match member "findings" json with
  | Some (List (_ :: _)) -> ()
  | _ -> Alcotest.fail "findings list");
  (* the report renders and parses back *)
  check tbool "json roundtrips" true (of_string (to_string json) = json)

let test_telemetry_counters () =
  let registry = Telemetry.create () in
  let db, _, _, _, _, _ = Test_pql.sample_db () in
  ignore (Pvcheck.check_db ~registry db : Pvcheck.report);
  ignore (Pvmutate.inject db Pvmutate.Cycle : string);
  ignore (Pvcheck.check_db ~registry db : Pvcheck.report);
  let v name =
    match Telemetry.counter_value registry name with
    | Some n -> n
    | None -> Alcotest.failf "missing counter %s" name
  in
  check tint "two runs counted" 2 (v "pvcheck.runs");
  check tbool "findings counted" true (v "pvcheck.findings" > 0)

(* Recovery replays only files named exactly like a WAP log: a copy of
   log.0 at log.00 is not a second log, so fsck must see the live db. *)
let test_fsck_ignores_noncanonical_log () =
  let registry = Telemetry.create () in
  let lower, lasagna, waldo = manual_volume registry in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  Helpers.ok
    (Dpapi.disclose ep h [ Record.name "once.dat"; Record.make "PARAMS" (Pvalue.Str "x") ]);
  ignore (Waldo.finalize waldo lasagna : int);
  let live = Provdb.quad_count (Waldo.db waldo) in
  let log0 = Helpers.ok_fs (Vfs.read_file lower "/.pass/log.0") in
  ignore (Helpers.ok_fs (Vfs.write_file lower "/.pass/log.00" log0) : Vfs.ino);
  let report = Helpers.ok_fs (Pvcheck.fsck ~registry ~lower ~volume:"vol0" ()) in
  if not (Pvcheck.clean report) then fail_report "log.00 replayed as a log" report;
  check tint "fsck sees the live db" live report.Pvcheck.r_quads

let suite =
  [
    Alcotest.test_case "clean on all tier-1 workloads" `Slow test_clean_workloads;
    Alcotest.test_case "mutations flagged (hand-built db)" `Quick test_mutations_on_handbuilt;
    Alcotest.test_case "mutations flagged (workload db)" `Slow test_mutations_on_workload;
    Alcotest.test_case "class names roundtrip" `Quick test_class_names_roundtrip;
    Alcotest.test_case "offline fsck with live log" `Quick test_fsck_offline;
    Alcotest.test_case "offline fsck on empty volume" `Quick test_fsck_empty_volume;
    Alcotest.test_case "report json shape" `Quick test_report_json_shape;
    Alcotest.test_case "telemetry counters" `Quick test_telemetry_counters;
    Alcotest.test_case "fsck ignores a non-canonical log name" `Quick
      test_fsck_ignores_noncanonical_log;
  ]
