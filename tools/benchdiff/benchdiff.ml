(* benchdiff: the CI perf-regression gate.

   Compares the overhead_pct of every workload in a BENCH_results.json
   run against the checked-in BENCH_baseline.json, then checks every
   pinned field the baseline lists, and exits non-zero if anything
   regressed beyond tolerance.  Only regressions fail: improved overheads
   are reported (with a nudge to refresh the baseline when they are
   large) but never block.

     benchdiff BENCH_baseline.json BENCH_results.json
     benchdiff --tolerance 10 --slack 1.5 baseline.json current.json

   An overhead row regresses when BOTH hold:
     current > baseline * (1 + tolerance/100)   (relative: default 20%)
     current > baseline + slack                 (absolute percentage
                                                 points: default 2.0)
   The absolute floor keeps near-zero overheads (Blast at ~1.5%) from
   tripping the relative gate on simulation noise.

   A pin is {"path", "bound", "value", "slack"}: the dotted path of a
   number in the results file, whether [value] is its ceiling ("max") or
   floor ("min"), and the pin's own absolute slack.  It regresses by the
   rows' rule: past value * (1 ± tolerance/100) and past value ± slack.
   A results file without a pinned path is an error (exit 2), never a
   silent pass.

   The baseline stores overheads and pins per scale ("0.1" for the CI
   smoke run, "1.0" for the full run); the current file's "scale" field
   selects which column to compare.  Defaults for tolerance/slack come
   from the baseline file itself so the policy is versioned with the
   numbers. *)

module Json = Telemetry.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("benchdiff: " ^ s); exit 2) fmt

let read_json path =
  let ic = try open_in_bin path with Sys_error e -> die "%s" e in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  try Json.of_string s with Json.Parse_error e -> die "%s: %s" path e

let number = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

let get_number path j = Option.bind (Json.member path j) number

(* --- the current run: BENCH_results.json (pass-bench/v1) ------------------- *)

type row = { name : string; local_pct : float; nfs_pct : float }

let parse_current path j =
  (match Json.member "schema" j with
  | Some (Json.Str "pass-bench/v1") -> ()
  | _ -> die "%s: not a pass-bench/v1 results file" path);
  let scale =
    match get_number "scale" j with Some s -> s | None -> die "%s: no scale" path
  in
  let rows =
    match Json.member "workloads" j with
    | Some (Json.List ws) ->
        List.map
          (fun w ->
            let name =
              match Json.member "name" w with
              | Some (Json.Str s) -> s
              | _ -> die "%s: workload without a name" path
            in
            let side key =
              match Option.bind (Json.member key w) (get_number "overhead_pct") with
              | Some f -> f
              | None -> die "%s: %s: no %s.overhead_pct" path name key
            in
            { name; local_pct = side "local"; nfs_pct = side "nfs" })
          ws
    | _ -> die "%s: no workloads" path
  in
  (scale, rows)

(* --- the baseline: BENCH_baseline.json (pass-bench-baseline/v2) ------------ *)

let parse_baseline path j =
  (match Json.member "schema" j with
  | Some (Json.Str "pass-bench-baseline/v2") -> ()
  | _ -> die "%s: not a pass-bench-baseline/v2 file" path);
  let scales =
    match Json.member "scales" j with
    | Some (Json.Obj kvs) -> kvs
    | _ -> die "%s: no scales" path
  in
  (get_number "tolerance_pct" j, get_number "slack_points" j, scales)

let baseline_for_scale path scales scale =
  (* scale keys are written by humans: match numerically, not textually *)
  match
    List.find_opt
      (fun (k, _) -> match float_of_string_opt k with
        | Some f -> Float.abs (f -. scale) < 1e-9
        | None -> false)
      scales
  with
  | Some (_, Json.Obj workloads) -> workloads
  | Some _ -> die "%s: scale entry is not an object" path
  | None ->
      die "%s: no baseline for scale %g (have: %s)" path scale
        (String.concat ", " (List.map fst scales))

type bound = Max | Min
type pin = { path : string; bound : bound; value : float; slack : float }

let parse_pins path column =
  let pin j =
    let field key = match get_number key j with
      | Some f -> f
      | None -> die "%s: pin without a numeric %s" path key
    in
    match (Json.member "path" j, Json.member "bound" j) with
    | Some (Json.Str p), Some (Json.Str b) ->
        let bound =
          match b with
          | "max" -> Max
          | "min" -> Min
          | _ -> die "%s: pin %s: bound %S is neither max nor min" path p b
        in
        { path = p; bound; value = field "value"; slack = field "slack" }
    | _ -> die "%s: pin without a path and a bound" path
  in
  match List.assoc_opt "pins" column with
  | None -> []
  | Some (Json.List ps) -> List.map pin ps
  | Some _ -> die "%s: pins is not a list" path

(* The number at a dotted path of the results file. *)
let lookup path j =
  let step acc key = Option.bind acc (Json.member key) in
  Option.bind (List.fold_left step (Some j) (String.split_on_char '.' path)) number

(* --- comparison -------------------------------------------------------------- *)

(* [current] is past [value] on the [bound] side by more than both the
   relative tolerance and the absolute slack. *)
let past bound ~tolerance ~slack ~value current =
  match bound with
  | Max -> current > value *. (1. +. (tolerance /. 100.)) && current > value +. slack
  | Min -> current < value *. (1. -. (tolerance /. 100.)) && current < value -. slack

type verdict = Ok_ | Improved | Regressed | New

let compare_row ~tolerance ~slack ~baseline (r : row) =
  let one side current =
    match Option.bind (List.assoc_opt r.name baseline) (get_number side) with
    | None -> (New, current, nan)
    | Some value ->
        let v =
          if past Max ~tolerance ~slack ~value current then Regressed
          else if past Min ~tolerance ~slack ~value current then Improved
          else Ok_
        in
        (v, current, value)
  in
  [ ("local", one "local_overhead_pct" r.local_pct);
    ("nfs", one "nfs_overhead_pct" r.nfs_pct) ]

let () =
  let tolerance_arg = ref None and slack_arg = ref None and files = ref [] in
  let spec =
    [ ("--tolerance", Arg.Float (fun f -> tolerance_arg := Some f),
       "PCT relative tolerance in percent (default: baseline file, else 20)");
      ("--slack", Arg.Float (fun f -> slack_arg := Some f),
       "POINTS absolute tolerance in overhead points (default: baseline file, else 2)") ]
  in
  let usage = "benchdiff [--tolerance PCT] [--slack POINTS] BASELINE CURRENT" in
  Arg.parse spec (fun f -> files := f :: !files) usage;
  let baseline_path, current_path =
    match List.rev !files with
    | [ b; c ] -> (b, c)
    | _ -> die "expected exactly two files\nusage: %s" usage
  in
  let file_tol, file_slack, scales = parse_baseline baseline_path (read_json baseline_path) in
  let current_json = read_json current_path in
  let scale, rows = parse_current current_path current_json in
  let tolerance =
    match (!tolerance_arg, file_tol) with Some t, _ -> t | None, Some t -> t | None, None -> 20.
  in
  let slack =
    match (!slack_arg, file_slack) with Some s, _ -> s | None, Some s -> s | None, None -> 2.
  in
  let baseline = baseline_for_scale baseline_path scales scale in
  let pins = parse_pins baseline_path baseline in
  Printf.printf "benchdiff: scale %g, tolerance %g%%, slack %g points\n" scale tolerance slack;
  Printf.printf "%-20s %-6s %10s %10s %8s  %s\n" "workload" "side" "baseline" "current" "delta"
    "verdict";
  let regressed = ref 0 and improved = ref 0 in
  List.iter
    (fun r ->
      List.iter
        (fun (side, (v, current, base)) ->
          let verdict, note =
            match v with
            | Regressed ->
                incr regressed;
                ("REGRESSED", " <-- past tolerance")
            | Improved ->
                incr improved;
                ("improved", "")
            | Ok_ -> ("ok", "")
            | New -> ("new", " (no baseline entry)")
          in
          if Float.is_nan base then
            Printf.printf "%-20s %-6s %10s %9.2f%% %8s  %s%s\n" r.name side "-" current "-"
              verdict note
          else
            Printf.printf "%-20s %-6s %9.2f%% %9.2f%% %+7.2f%%  %s%s\n" r.name side base current
              (current -. base) verdict note)
        (compare_row ~tolerance ~slack ~baseline r))
    rows;
  (* Pins: one-sided bounds on other sections of the run (recovery replay
     length, monitor overhead, query speedup, ...), in baseline order. *)
  List.iter
    (fun { path; bound; value; slack } ->
      let current =
        match lookup path current_json with
        | Some c -> c
        | None -> die "%s: no %s (old bench binary?)" current_path path
      in
      let verdict, note =
        if past bound ~tolerance ~slack ~value current then begin
          incr regressed;
          ( "REGRESSED",
            if bound = Max then " <-- above pinned ceiling" else " <-- below pinned floor" )
        end
        else ("ok", "")
      in
      Printf.printf "%-27s %10g %10g %+8g  %s%s\n" path value current (current -. value) verdict
        note)
    pins;
  if !regressed > 0 then begin
    Printf.printf "\n%d overhead value(s) regressed beyond tolerance.\n" !regressed;
    exit 1
  end;
  if !improved > 0 then
    Printf.printf
      "\n%d overhead value(s) improved beyond tolerance — consider refreshing BENCH_baseline.json.\n"
      !improved;
  print_string "benchdiff: no regressions.\n"
