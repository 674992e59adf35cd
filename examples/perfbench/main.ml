(* perfbench: run one benchmark workload and print its metrics.

   usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--trace-file PATH]

   The last line of standard output is the JSON result; the exit code
   is 1 when any output check failed. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let trace_file = ref "perfbench-trace.tsv" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated op stream");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--trace-file", Arg.Set_string trace_file, "PATH where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> String.equal w.Perfbench.Bench.name !workload) Perfbench.Bench.workloads with
  | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  | Some w ->
      let res =
        if !trace = 0 then Perfbench.Bench.run_e2e w ~seed:!seed ~seconds:!seconds
        else Perfbench.Bench.run_traced w ~seed:!seed ~seconds:!seconds ~trace_file:!trace_file
      in
      Perfbench.Bench.print res;
      if not res.Perfbench.Bench.correct then exit 1
