(* End-to-end runs through the benchmark Runner: every protocol, LAN
   and WAN, with the offline checkers as the oracle. *)

open Paxi_benchmark

(* multi-leader protocols need zones even "in LAN": they get three
   co-located zones with LAN-like latencies, as a single-AZ AWS
   deployment would, and clients spread across them *)
let zoned name = List.mem name [ "wpaxos"; "wankeeper"; "vpaxos" ]

(* protocols without one global RSM (zone groups, or per-coordinator
   bookkeeping) are exempt from the cross-replica consensus check *)
let zone_scoped name = List.mem name [ "wankeeper"; "vpaxos"; "abd" ]

let run_one name ?(conflict = 0.0) ?(concurrency = 6) ?(duration = 1_500.0) () =
  let (module P) = Paxi_protocols.Registry.find_exn name in
  let n = 9 in
  let topology = Runner.lan_topology ~zoned:(zoned name) n in
  let config = Config.default ~n_replicas:n in
  let workload =
    { Workload.default with Workload.keys = 40; conflict_ratio = conflict }
  in
  let client_specs =
    Runner.lan_clients ~zoned:(zoned name) ~count:concurrency workload
  in
  let spec =
    Runner.spec ~warmup_ms:200.0 ~duration_ms:duration ~collect_history:true
      ~check_consensus:(not (zone_scoped name))
      ~config ~topology ~client_specs ()
  in
  Runner.run (module P) spec

let check_linearizable name (result : Runner.result) =
  let anomalies = Linearizability.check result.Runner.history in
  List.iter
    (fun a ->
      Printf.printf "%s anomaly: %s\n" name a.Linearizability.reason)
    anomalies;
  Alcotest.(check int) (name ^ " linearizable") 0 (List.length anomalies)

let test_protocol_lan name () =
  let result = run_one name () in
  Alcotest.(check bool)
    (name ^ " made progress")
    true
    (result.Runner.throughput_rps > 100.0);
  Alcotest.(check int) (name ^ " nothing abandoned") 0 result.Runner.gave_up;
  check_linearizable name result;
  Alcotest.(check int)
    (name ^ " consensus clean")
    0
    (List.length result.Runner.consensus_violations)

let test_protocol_lan_with_conflicts name () =
  let result = run_one name ~conflict:0.4 () in
  Alcotest.(check bool) (name ^ " progressed") true (result.Runner.throughput_rps > 50.0);
  check_linearizable (name ^ "+conflict") result

let wan_spec name ~locality =
  let (module P) = Paxi_protocols.Registry.find_exn name in
  let regions = [ Region.virginia; Region.ohio; Region.california ] in
  let topology = Topology.wan ~regions ~replicas_per_region:3 () in
  let config =
    {
      (Config.default ~n_replicas:9) with
      Config.master_region_index = 1;
      initial_object_owner =
        (if List.mem name [ "wpaxos"; "wankeeper"; "vpaxos" ] then Some 1 else None);
    }
  in
  let client_specs =
    List.mapi
      (fun i region ->
        let workload =
          let base = { Workload.default with Workload.keys = 60 } in
          if locality then Workload.with_locality base ~region_index:i ~regions:3
          else base
        in
        Runner.clients ~region ~count:2 workload)
      regions
  in
  ( (module P : Proto.RUNNABLE),
    Runner.spec ~warmup_ms:500.0 ~duration_ms:3_000.0 ~collect_history:true
      ~config ~topology ~client_specs () )

let test_protocol_wan name () =
  let p, spec = wan_spec name ~locality:true in
  let result = Runner.run p spec in
  Alcotest.(check bool) (name ^ " wan progress") true (result.Runner.throughput_rps > 10.0);
  check_linearizable (name ^ "@wan") result

let test_paxos_crash_recovery_e2e () =
  let (module P) = Paxi_protocols.Registry.find_exn "paxos" in
  let topology = Topology.lan ~n_replicas:5 () in
  let config = Config.default ~n_replicas:5 in
  let spec =
    Runner.spec ~warmup_ms:200.0 ~duration_ms:12_000.0 ~collect_history:true
      ~check_consensus:true
      ~faults:(fun f ->
        Faults.crash f ~node:(Address.replica 0) ~from_ms:2_000.0
          ~duration_ms:60_000.0)
      ~config ~topology
      ~client_specs:
        [ Runner.clients ~target:Runner.Round_robin ~count:4
            { Workload.default with Workload.keys = 20 } ]
      ()
  in
  let result = Runner.run (module P) spec in
  Alcotest.(check bool) "progress despite crash" true (result.Runner.throughput_rps > 100.0);
  check_linearizable "paxos+crash" result;
  Alcotest.(check int) "consensus clean" 0
    (List.length result.Runner.consensus_violations)

let test_flaky_network_e2e () =
  let (module P) = Paxi_protocols.Registry.find_exn "paxos" in
  let topology = Topology.lan ~n_replicas:5 () in
  let config = Config.default ~n_replicas:5 in
  let spec =
    Runner.spec ~warmup_ms:200.0 ~duration_ms:6_000.0 ~collect_history:true
      ~check_consensus:true
      ~faults:(fun f ->
        (* drop 20% of leader->follower traffic on two links *)
        Faults.flaky f ~src:(Address.replica 0) ~dst:(Address.replica 1)
          ~from_ms:0.0 ~duration_ms:60_000.0 ~p_drop:0.2;
        Faults.flaky f ~src:(Address.replica 0) ~dst:(Address.replica 2)
          ~from_ms:0.0 ~duration_ms:60_000.0 ~p_drop:0.2)
      ~config ~topology
      ~client_specs:
        [ Runner.clients ~target:(Runner.Fixed 0) ~count:2
            { Workload.default with Workload.keys = 10 } ]
      ()
  in
  let result = Runner.run (module P) spec in
  check_linearizable "paxos+flaky" result;
  Alcotest.(check int) "consensus clean" 0
    (List.length result.Runner.consensus_violations)

let test_runner_reports_busiest_node () =
  let result = run_one "paxos" () in
  (* single-leader: the leader (replica 0) must be the busiest node *)
  Alcotest.(check int) "leader busiest" 0 result.Runner.busiest_node;
  Alcotest.(check bool) "non-trivial load" true (result.Runner.busiest_node_busy_ms > 0.0)

let test_saturation_sweep_shape () =
  let (module P) = Paxi_protocols.Registry.find_exn "paxos" in
  let make_spec ~concurrency =
    Runner.spec ~warmup_ms:200.0 ~duration_ms:1_000.0
      ~config:(Config.default ~n_replicas:5)
      ~topology:(Topology.lan ~n_replicas:5 ())
      ~client_specs:
        [ Runner.clients ~target:Runner.Round_robin ~count:concurrency Workload.default ]
      ()
  in
  let results =
    Runner.saturation_sweep (module P) ~make_spec ~concurrencies:[ 1; 16 ]
  in
  match results with
  | [ (1, low); (16, high) ] ->
      Alcotest.(check bool) "throughput grows" true
        (high.Runner.throughput_rps > 2.0 *. low.Runner.throughput_rps);
      Alcotest.(check bool) "latency grows" true
        (Stats.mean high.Runner.latency > Stats.mean low.Runner.latency)
  | _ -> Alcotest.fail "unexpected sweep shape"

let test_open_loop_rate () =
  let (module P) = Paxi_protocols.Registry.find_exn "paxos" in
  let rate = 2_000.0 in
  let spec =
    Runner.spec ~warmup_ms:500.0 ~duration_ms:4_000.0
      ~config:(Config.default ~n_replicas:5)
      ~topology:(Topology.lan ~n_replicas:5 ())
      ~client_specs:
        [ Runner.clients ~target:(Runner.Fixed 0)
            ~arrival:(Runner.Open { rate_per_sec = rate /. 2.0 })
            ~count:2 Workload.default ]
      ()
  in
  let r = Runner.run (module P) spec in
  (* open loop delivers the offered rate (it is well under capacity) *)
  Alcotest.(check bool)
    (Printf.sprintf "throughput ~%.0f (got %.0f)" rate r.Runner.throughput_rps)
    true
    (Float.abs (r.Runner.throughput_rps -. rate) /. rate < 0.1);
  Alcotest.(check int) "no losses" 0 r.Runner.gave_up

let suite =
  let protocols = Paxi_protocols.Registry.names in
  ( "integration",
    List.map
      (fun name ->
        Alcotest.test_case (name ^ " lan e2e") `Slow (test_protocol_lan name))
      protocols
    @ List.map
        (fun name ->
          Alcotest.test_case (name ^ " lan conflicts") `Slow
            (test_protocol_lan_with_conflicts name))
        [ "paxos"; "epaxos"; "wpaxos" ]
    @ List.map
        (fun name ->
          Alcotest.test_case (name ^ " wan locality") `Slow (test_protocol_wan name))
        protocols
    @ [
        Alcotest.test_case "paxos crash recovery e2e" `Slow test_paxos_crash_recovery_e2e;
        Alcotest.test_case "paxos flaky network e2e" `Slow test_flaky_network_e2e;
        Alcotest.test_case "busiest node is the leader" `Slow test_runner_reports_busiest_node;
        Alcotest.test_case "saturation sweep shape" `Slow test_saturation_sweep_shape;
        Alcotest.test_case "open-loop arrival rate" `Slow test_open_loop_rate;
      ] )
