(* Command line of the benchmark:

     main.exe --workload NAME|all --seed N --seconds S --trace 0|1

   prints, for each workload, one line per metric, then the result as
   one JSON object; exits 1 when a correctness, mechanism, determinism
   or transparency gate fails, 2 on bad arguments. *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload "
    ^ String.concat "|" (List.map (fun w -> w.Perfbench.Workloads.name) Perfbench.Workloads.all)
    ^ "|all --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some s -> seed := s | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := int_of_string v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workloads =
    if !workload = "all" then Perfbench.Workloads.all
    else match Perfbench.Workloads.find !workload with Some w -> [ w ] | None -> usage ()
  in
  let run_one w =
    let outcome, units =
      Perfbench.Bench.run ~workload:w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    in
    Printf.printf "workload %s (seed %d, %s)\n" w.Perfbench.Workloads.name !seed
      (if !trace = 1 then "traced" else "untraced");
    List.iter print_endline outcome.Perfbench.Bench.notes;
    List.iter
      (fun (name, v) -> Printf.printf "  %-36s %14.6g %s\n" name v (List.assoc name units))
      outcome.Perfbench.Bench.metrics;
    List.iter (fun f -> Printf.eprintf "FAILED %s\n" f) outcome.Perfbench.Bench.failures;
    print_endline (Perfbench.Bench.result_line outcome ~units);
    outcome.Perfbench.Bench.failures = []
  in
  let passed = List.map run_one workloads in
  if List.mem false passed then exit 1
