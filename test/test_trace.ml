(* pvtrace tests: span nesting and parentage, the bounded flight-recorder
   ring, zero-cost disabled behavior, exception unwinding, export filters,
   and byte-determinism of the Chrome artifact across identical runs. *)

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tstr = Alcotest.string

(* A tracer driven by a hand-cranked clock. *)
let tracer ?capacity () =
  let clock = ref 0 in
  let t = Pvtrace.create ?capacity ~now:(fun () -> !clock) () in
  (t, clock)

let by_name t =
  List.map (fun sp -> (sp.Pvtrace.sp_layer ^ "." ^ sp.Pvtrace.sp_op, sp)) (Pvtrace.spans t)

(* --- nesting and parentage ---------------------------------------------------- *)

let test_nesting () =
  let t, clock = tracer () in
  Pvtrace.span t ~layer:"simos" ~op:"syscall.write" (fun () ->
      clock := !clock + 10;
      Pvtrace.span t ~layer:"observer" ~op:"pass_write" (fun () ->
          clock := !clock + 5;
          Pvtrace.event t ~layer:"analyzer" ~op:"dedup" ~outcome:"deduped" ()));
  let spans = by_name t in
  check tint "three spans" 3 (List.length spans);
  (* completion order: innermost first, except events record immediately *)
  let dedup = List.assoc "analyzer.dedup" spans in
  let obs = List.assoc "observer.pass_write" spans in
  let sys = List.assoc "simos.syscall.write" spans in
  check tint "root has no parent" 0 sys.Pvtrace.sp_parent;
  check tint "child parents on root" sys.Pvtrace.sp_id obs.Pvtrace.sp_parent;
  check tint "event parents on innermost" obs.Pvtrace.sp_id dedup.Pvtrace.sp_parent;
  check tbool "one trace" true
    (sys.Pvtrace.sp_trace = obs.Pvtrace.sp_trace
    && obs.Pvtrace.sp_trace = dedup.Pvtrace.sp_trace);
  check tint "root duration spans children" 15 sys.Pvtrace.sp_dur_ns;
  check tint "child duration" 5 obs.Pvtrace.sp_dur_ns;
  check tint "event is instantaneous" 0 dedup.Pvtrace.sp_dur_ns

let test_fresh_traces_per_root () =
  let t, _ = tracer () in
  Pvtrace.span t ~layer:"simos" ~op:"syscall.read" (fun () -> ());
  Pvtrace.span t ~layer:"simos" ~op:"syscall.write" (fun () -> ());
  match Pvtrace.spans t with
  | [ a; b ] ->
      check tbool "distinct trace ids" true (a.Pvtrace.sp_trace <> b.Pvtrace.sp_trace);
      check tint "both are roots" 0 (a.Pvtrace.sp_parent + b.Pvtrace.sp_parent)
  | _ -> Alcotest.fail "expected two spans"

let test_outcomes () =
  let t, _ = tracer () in
  Pvtrace.span t ~layer:"distributor" ~op:"flush" (fun () ->
      Pvtrace.set_outcome t "flushed");
  Pvtrace.span t ~layer:"analyzer" ~op:"pass_write" (fun () -> ());
  (match by_name t with
  | [ ("distributor.flush", f); ("analyzer.pass_write", w) ] ->
      check tstr "set_outcome overrides" "flushed" f.Pvtrace.sp_outcome;
      check tstr "default outcome" "ok" w.Pvtrace.sp_outcome
  | _ -> Alcotest.fail "expected two spans");
  (* set_outcome at top level is a no-op, not a crash *)
  Pvtrace.set_outcome t "ignored"

let test_exception_unwinding () =
  let t, _ = tracer () in
  (try
     Pvtrace.span t ~layer:"simos" ~op:"syscall.open" (fun () ->
         Pvtrace.span t ~layer:"observer" ~op:"pass_write" (fun () ->
             failwith "boom"))
   with Failure _ -> ());
  check tint "both spans recorded despite raise" 2 (List.length (Pvtrace.spans t));
  (* the stack fully unwound: the next span roots a fresh trace *)
  Pvtrace.span t ~layer:"simos" ~op:"syscall.close" (fun () -> ());
  let close = List.assoc "simos.syscall.close" (by_name t) in
  check tint "stack unwound to top level" 0 close.Pvtrace.sp_parent

let test_remote_parent () =
  let t, _ = tracer () in
  Pvtrace.with_remote_parent t ~trace:7 ~span:41 (fun () ->
      Pvtrace.span t ~layer:"panfs.server" ~op:"rpc.write" (fun () -> ()));
  (match Pvtrace.spans t with
  | [ sp ] ->
      check tint "adopts the wire trace id" 7 sp.Pvtrace.sp_trace;
      check tint "parents on the wire span" 41 sp.Pvtrace.sp_parent
  | l -> Alcotest.failf "expected only the server span, got %d" (List.length l));
  (* an untraced sender (trace 0) leaves ambient context alone *)
  Pvtrace.with_remote_parent t ~trace:0 ~span:0 (fun () ->
      Pvtrace.span t ~layer:"panfs.server" ~op:"rpc.read" (fun () -> ()));
  let rd = List.assoc "panfs.server.rpc.read" (by_name t) in
  check tbool "trace 0 mints a local trace" true (rd.Pvtrace.sp_trace <> 0);
  check tint "and stays a root" 0 rd.Pvtrace.sp_parent

(* --- the flight-recorder ring -------------------------------------------------- *)

let test_ring_bounds () =
  let t, _ = tracer ~capacity:4 () in
  for i = 1 to 10 do
    Pvtrace.event t ~layer:"x" ~op:(Printf.sprintf "e%02d" i) ~outcome:"ok" ()
  done;
  check tint "ring holds capacity" 4 (Pvtrace.recorded t);
  check tint "lifetime counts everything" 10 (Pvtrace.total t);
  check tint "dropped = total - recorded" 6 (Pvtrace.dropped t);
  check tbool "oldest evicted first" true
    (List.map (fun sp -> sp.Pvtrace.sp_op) (Pvtrace.spans t)
    = [ "e07"; "e08"; "e09"; "e10" ])

let test_reset () =
  let t, _ = tracer () in
  Pvtrace.span t ~layer:"a" ~op:"b" (fun () -> ());
  let id_before =
    match Pvtrace.spans t with [ sp ] -> sp.Pvtrace.sp_id | _ -> assert false
  in
  Pvtrace.reset t;
  check tint "ring emptied" 0 (Pvtrace.recorded t);
  check tint "lifetime cleared" 0 (Pvtrace.total t);
  Pvtrace.span t ~layer:"a" ~op:"c" (fun () -> ());
  let id_after =
    match Pvtrace.spans t with [ sp ] -> sp.Pvtrace.sp_id | _ -> assert false
  in
  check tbool "ids keep counting across reset" true (id_after > id_before)

(* --- disabled tracer ----------------------------------------------------------- *)

let test_disabled_zero_cost () =
  let t = Pvtrace.disabled in
  check tbool "not enabled" false (Pvtrace.enabled t);
  let r = Pvtrace.span t ~layer:"a" ~op:"b" (fun () -> 42) in
  check tint "span passes result through" 42 r;
  Pvtrace.event t ~layer:"a" ~op:"b" ~outcome:"x" ();
  Pvtrace.set_outcome t "x";
  let r' = Pvtrace.with_remote_parent t ~trace:9 ~span:9 (fun () -> 7) in
  check tint "remote parent passes through" 7 r';
  check tbool "no ambient context" true (Pvtrace.current t = None);
  check tint "records nothing" 0 (Pvtrace.total t);
  check tbool "no spans" true (Pvtrace.spans t = []);
  check tstr "empty chrome export" "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}"
    (Pvtrace.to_chrome t)

(* --- export -------------------------------------------------------------------- *)

let test_current_context () =
  let t, _ = tracer () in
  check tbool "none at top level" true (Pvtrace.current t = None);
  Pvtrace.span t ~layer:"panfs.client" ~op:"rpc.write" (fun () ->
      match Pvtrace.current t with
      | None -> Alcotest.fail "no ambient context inside a span"
      | Some (trace, span) ->
          check tbool "trace minted" true (trace > 0);
          check tbool "span id live" true (span > 0))

let test_export_filter () =
  let t, _ = tracer () in
  Pvtrace.span t ~layer:"simos" ~op:"syscall.write" (fun () ->
      Pvtrace.event t ~layer:"panfs.client" ~op:"rpc.write" ~outcome:"ok" ();
      Pvtrace.event t ~layer:"panfs.server" ~op:"rpc.write" ~outcome:"ok" ());
  let names filter =
    match Pvtrace.to_json ?filter t with
    | Telemetry.Json.Obj fields -> (
        match List.assoc "spans" fields with
        | Telemetry.Json.List spans ->
            List.map
              (fun sp ->
                match Telemetry.Json.member "layer" sp with
                | Some (Telemetry.Json.Str l) -> l
                | _ -> assert false)
              spans
        | _ -> assert false)
    | _ -> assert false
  in
  check tint "no filter keeps all" 3 (List.length (names None));
  check tbool "layer filter" true (names (Some "simos") = [ "simos" ]);
  check tbool "dotted prefix matches both ends" true
    (names (Some "panfs") = [ "panfs.client"; "panfs.server" ]);
  check tbool "full name filter" true (names (Some "panfs.server.rpc") = [ "panfs.server" ]);
  check tbool "non-boundary prefix excluded" true (names (Some "pan") = [])

let test_export_determinism () =
  let run () =
    let t, clock = tracer () in
    for i = 1 to 50 do
      Pvtrace.span t ~layer:"simos" ~op:"syscall.write" (fun () ->
          clock := !clock + i;
          Pvtrace.event t ~layer:"analyzer" ~op:"dedup" ~pnode:i ~outcome:"deduped" ())
    done;
    Pvtrace.to_chrome t
  in
  check tstr "byte-identical across identical runs" (run ()) (run ());
  (* and the artifact is valid JSON whose parents resolve *)
  let json = Telemetry.Json.of_string (run ()) in
  match Telemetry.Json.member "traceEvents" json with
  | Some (Telemetry.Json.List events) ->
      check tint "all events exported" 100 (List.length events);
      let arg name ev =
        match Telemetry.Json.member "args" ev with
        | Some args -> (
            match Telemetry.Json.member name args with
            | Some (Telemetry.Json.Int i) -> i
            | _ -> assert false)
        | None -> assert false
      in
      let ids = List.map (arg "span") events in
      List.iter
        (fun ev ->
          let p = arg "parent" ev in
          check tbool "parent resolves" true (p = 0 || List.mem p ids))
        events
  | _ -> Alcotest.fail "traceEvents missing"

(* --- through the real pipeline ------------------------------------------------- *)

let test_pipeline_spans () =
  let registry = Telemetry.create () in
  let t = Pvtrace.create () in
  let sys =
    System.create ~registry ~tracer:t ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] ()
  in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  let fd =
    match Kernel.open_file k ~pid ~path:"/vol0/f" ~create:true with
    | Ok fd -> fd
    | Error e -> Alcotest.failf "open failed: %s" (Vfs.errno_to_string e)
  in
  (match Kernel.write k ~pid ~fd ~data:"hello" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write failed: %s" (Vfs.errno_to_string e));
  (match Kernel.close k ~pid ~fd with
  | Ok () -> ()
  | Error e -> Alcotest.failf "close failed: %s" (Vfs.errno_to_string e));
  ignore (System.drain sys : int);
  let layers =
    List.sort_uniq String.compare
      (List.map (fun sp -> sp.Pvtrace.sp_layer) (Pvtrace.spans t))
  in
  List.iter
    (fun l -> check tbool (l ^ " layer appears") true (List.mem l layers))
    [ "simos"; "observer"; "analyzer"; "distributor"; "lasagna"; "waldo" ];
  (* every non-root parent resolves within the recording *)
  let ids = List.map (fun sp -> sp.Pvtrace.sp_id) (Pvtrace.spans t) in
  List.iter
    (fun sp ->
      check tbool "parent resolves" true
        (sp.Pvtrace.sp_parent = 0 || List.mem sp.Pvtrace.sp_parent ids))
    (Pvtrace.spans t);
  (* disabled tracer on the same workload records nothing *)
  let sys' = System.create ~registry ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] () in
  let k' = System.kernel sys' in
  let pid' = Kernel.fork k' ~parent:Kernel.init_pid in
  (match Kernel.open_file k' ~pid:pid' ~path:"/vol0/f" ~create:true with
  | Ok fd ->
      ignore (Kernel.write k' ~pid:pid' ~fd ~data:"hello" : (unit, Vfs.errno) result);
      ignore (Kernel.close k' ~pid:pid' ~fd : (unit, Vfs.errno) result)
  | Error _ -> ());
  ignore (System.drain sys' : int);
  check tint "default tracer records nothing" 0 (Pvtrace.total Pvtrace.disabled)

let suite =
  [
    Alcotest.test_case "nesting and parentage" `Quick test_nesting;
    Alcotest.test_case "fresh trace per root" `Quick test_fresh_traces_per_root;
    Alcotest.test_case "outcomes" `Quick test_outcomes;
    Alcotest.test_case "exception unwinding" `Quick test_exception_unwinding;
    Alcotest.test_case "remote parent" `Quick test_remote_parent;
    Alcotest.test_case "ring bounds" `Quick test_ring_bounds;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "disabled is zero-cost" `Quick test_disabled_zero_cost;
    Alcotest.test_case "current context" `Quick test_current_context;
    Alcotest.test_case "export filter" `Quick test_export_filter;
    Alcotest.test_case "export determinism" `Quick test_export_determinism;
    Alcotest.test_case "pipeline spans" `Quick test_pipeline_spans;
  ]
