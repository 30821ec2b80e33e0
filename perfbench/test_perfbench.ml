(* The benchmark's own tests: its metric names and BENCHMARK.json agree
   and follow the name grammar, seeds move samples but not faults, the
   tracing wrapper is transparent, and a forced give-up is counted. *)

open Perfbench
module Runner = Paxi_benchmark.Runner

let name_ok s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let unit_ok s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       s

let all_metrics = Bench.end_to_end @ Bench.per_layer

let test_grammar () =
  List.iter
    (fun (name, unit) ->
      Alcotest.(check bool) ("name " ^ name) true (name_ok name);
      Alcotest.(check bool) ("unit of " ^ name) true (unit_ok unit))
    all_metrics;
  List.iter
    (fun (w : Workloads.t) ->
      Alcotest.(check bool) ("workload " ^ w.Workloads.name) true (name_ok w.Workloads.name))
    Workloads.all;
  let names = List.map fst all_metrics @ List.map (fun w -> w.Workloads.name) Workloads.all in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  Alcotest.(check bool) "setup_s is an end-to-end metric in seconds" true
    (List.assoc_opt "setup_s" Bench.end_to_end = Some "s")

(* BENCHMARK.json lists exactly the workloads and metrics the code
   prints, with the same units. *)
let test_benchmark_json () =
  let json =
    match Json.parse (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let entries key =
    match Json.member key json with Some (Json.List l) -> l | _ -> Alcotest.fail key
  in
  let str key o =
    match Option.bind (Json.member key o) Json.get_string with
    | Some s -> s
    | None -> Alcotest.fail key
  in
  let metric_list key = List.map (fun o -> (str "name" o, str "unit" o)) (entries key) in
  Alcotest.(check (list (pair string string))) "end_to_end" Bench.end_to_end (metric_list "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Bench.per_layer (metric_list "per_layer");
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun w -> w.Workloads.name) Workloads.all)
    (List.map (str "name") (entries "workloads"));
  List.iter
    (fun o ->
      match Option.bind (Json.member "bound" o) Json.to_float with
      | Some b -> Alcotest.(check bool) ("bound of " ^ str "name" o) true (b > 0.0 && b <= 0.25)
      | None -> Alcotest.fail "bound")
    (entries "end_to_end")

let faults_of (spec : Runner.spec) =
  let f = Faults.create () in
  Option.iter (fun install -> install f) spec.Runner.faults;
  Json.to_string (Faults.to_json f)

let test_seed () =
  let w = Workloads.durable_crash in
  let run seed = Bench.run_once ~duration_ms:2_000.0 ~timed:false w ~seed in
  let a = run 1 and b = run 2 in
  Alcotest.(check bool) "samples differ" false
    (Stats.samples a.Bench.res.Runner.latency = Stats.samples b.Bench.res.Runner.latency);
  Alcotest.(check string) "same fault schedule" (faults_of a.Bench.spec) (faults_of b.Bench.spec);
  Alcotest.(check bool) "schedule has the two crashes" true (faults_of a.Bench.spec <> faults_of { a.Bench.spec with Runner.faults = None })

let test_transparency () =
  List.iter
    (fun (w, duration_ms) ->
      let plain = Bench.run_once ~duration_ms ~timed:false w ~seed:7 in
      let traced = Bench.run_once ~duration_ms ~timed:true w ~seed:7 in
      Alcotest.(check bool)
        (w.Workloads.name ^ " traced run reproduces the plain one")
        true
        (Bench.fingerprint plain.Bench.res = Bench.fingerprint traced.Bench.res);
      let s = Option.get traced.Bench.spans in
      Alcotest.(check bool) (w.Workloads.name ^ " handlers were timed") true (Timed.handler_calls s > 0))
    [ (Workloads.relay_n49, 100.0); (Workloads.shard4_lease, 50.0); (Workloads.durable_crash, 2_000.0) ]

(* Replies cannot beat a 0.05 ms timeout on a LAN of 0.43 ms RTT, and
   no retry is allowed: every op is given up. *)
let test_failed_ratio () =
  let base = Workloads.shard4_lease in
  let forced =
    {
      base with
      Workloads.spec =
        (fun ?duration_ms ~seed () ->
          let s = base.Workloads.spec ?duration_ms ~seed () in
          {
            s with
            Runner.max_retries = 0;
            config = { s.Runner.config with Config.client_timeout_ms = 0.05 };
          });
    }
  in
  let r = Bench.run_once ~duration_ms:20.0 ~timed:false forced ~seed:1 in
  let res = r.Bench.res in
  Alcotest.(check bool) "ops were given up" true (res.Runner.gave_up > 0);
  Alcotest.(check (float 1e-12)) "failed_ratio"
    (float_of_int res.Runner.gave_up /. float_of_int (res.Runner.gave_up + res.Runner.completed))
    (Bench.failed_ratio res);
  Alcotest.(check (float 1e-12)) "no op survives" 1.0 (Bench.failed_ratio res)

let test_quartiles () =
  let l = List.init 10 (fun i -> float_of_int (i + 1)) in
  let q1, q2, q3 = Bench.quartiles l in
  Alcotest.(check (list (float 1e-12))) "statistics.quantiles(n=4)" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ]

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "metric-name grammar" `Quick test_grammar;
          Alcotest.test_case "BENCHMARK.json matches the code" `Quick test_benchmark_json;
          Alcotest.test_case "seed moves samples, not faults" `Quick test_seed;
          Alcotest.test_case "wrapper transparency" `Quick test_transparency;
          Alcotest.test_case "failed_ratio counts a forced give-up" `Quick test_failed_ratio;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
        ] );
    ]
