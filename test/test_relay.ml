(* Relay/aggregation trees (DESIGN.md §12): deterministic rotation
   plans, exact bitmap aggregation, end-to-end commits through relays
   for both Paxos and Raft (with the relay messages actually on the
   wire), crash-transparent fallback, and the fixed-seed pins that
   keep the relay_groups = 0 path byte-identical to the direct one. *)

open Paxi_benchmark
module Relay = Paxi_protocols.Relay
module Trace = Paxi_obs.Trace
module HP = Proto_harness.Make (Paxi_protocols.Paxos)
module HR = Proto_harness.Make (Paxi_protocols.Raft)

let put k v = Command.Put (k, v)

let relay_config ?(tracing = false) ~r n =
  {
    (Config.default ~n_replicas:n) with
    Config.relay_groups = r;
    tracing;
  }

(* ------------------------------------------------------------------ *)
(* Rotation plans                                                      *)
(* ------------------------------------------------------------------ *)

(* Every follower appears in exactly one group, group sizes differ by
   at most one, the leader is in none, and recomputing is bit-stable. *)
let test_plan_partition_exact () =
  List.iter
    (fun (n, leader, r, gen) ->
      let plan = Relay.compute ~n ~leader ~r ~gen in
      Alcotest.(check int)
        (Printf.sprintf "n=%d r=%d: group count" n r)
        r
        (Array.length plan.Relay.groups);
      let seen = Array.make n 0 in
      Array.iteri
        (fun gi g ->
          Alcotest.(check bool)
            (Printf.sprintf "n=%d group %d size balanced" n gi)
            true
            (Array.length g >= (n - 1) / r
            && Array.length g <= ((n - 1) / r) + 1);
          Array.iter
            (fun id ->
              seen.(id) <- seen.(id) + 1;
              Alcotest.(check int)
                (Printf.sprintf "n=%d id %d group_of inverse" n id)
                gi plan.Relay.group_of.(id))
            g)
        plan.Relay.groups;
      Alcotest.(check int) "leader in no group" 0 seen.(leader);
      Alcotest.(check int) "leader group_of" (-1) plan.Relay.group_of.(leader);
      Array.iteri
        (fun id c -> if id <> leader then
            Alcotest.(check int)
              (Printf.sprintf "n=%d id %d appears once" n id)
              1 c)
        seen;
      let again = Relay.compute ~n ~leader ~r ~gen in
      Alcotest.(check bool) "recompute identical" true (plan = again))
    [
      (9, 0, 2, 0); (9, 4, 2, 3); (25, 0, 3, 0); (25, 7, 3, 11);
      (49, 0, 6, 0); (81, 0, 10, 0); (81, 80, 10, 999); (5, 2, 1, 0);
      (5, 0, 4, 5);
    ]

(* Advancing the generation rotates relay duty: over n-1 generations
   every follower serves as a relay at least once. *)
let test_plan_rotation_covers () =
  let n = 25 and leader = 0 and r = 3 in
  let relays = Hashtbl.create 32 in
  for gen = 0 to n - 2 do
    let plan = Relay.compute ~n ~leader ~r ~gen in
    Array.iter (fun g -> Hashtbl.replace relays g.(0) ()) plan.Relay.groups
  done;
  Alcotest.(check int) "every follower relays once per cycle" (n - 1)
    (Hashtbl.length relays);
  let p0 = Relay.compute ~n ~leader ~r ~gen:0 in
  let p1 = Relay.compute ~n ~leader ~r ~gen:1 in
  Alcotest.(check bool) "consecutive gens differ" false
    (p0.Relay.groups = p1.Relay.groups)

let test_plan_cache_reuses () =
  let plans = Relay.plans () in
  let a = Relay.find plans ~n:49 ~leader:3 ~r:6 ~gen:7 in
  let b = Relay.find plans ~n:49 ~leader:3 ~r:6 ~gen:7 in
  Alcotest.(check bool) "cache hit is physical" true (a == b)

(* ------------------------------------------------------------------ *)
(* Aggregation bitmaps                                                 *)
(* ------------------------------------------------------------------ *)

let test_bitmap_exact () =
  Alcotest.(check int) "full_mask 1" 1 (Relay.full_mask 1);
  Alcotest.(check int) "full_mask 5" 31 (Relay.full_mask 5);
  Alcotest.(check int) "full_mask 62" ((1 lsl 62) - 1) (Relay.full_mask 62);
  let pool = Relay.pool () in
  let group = [| 7; 3; 11; 5 |] in
  let a = Relay.alloc pool ~leader:0 ~gen:2 ~group ~tag:9 ~aux:4 in
  Alcotest.(check bool) "fresh not complete" false (Relay.complete a);
  Alcotest.(check int) "position finds member" 2 (Relay.position a 11);
  Alcotest.(check int) "position misses stranger" (-1) (Relay.position a 8);
  Relay.set_bit a 0;
  Relay.set_bit a 0;
  Alcotest.(check int) "set_bit idempotent" 1 a.Relay.a_bits;
  Relay.set_bit a 1;
  Relay.set_bit a 2;
  Alcotest.(check bool) "partial not complete" false (Relay.complete a);
  Relay.set_bit a 3;
  Alcotest.(check bool) "full bitmap complete" true (Relay.complete a);
  Relay.release pool a;
  let b = Relay.alloc pool ~leader:1 ~gen:0 ~group ~tag:1 ~aux:1 in
  Alcotest.(check bool) "pool recycles records" true (a == b);
  Alcotest.(check int) "recycled bits cleared" 0 b.Relay.a_bits

(* ------------------------------------------------------------------ *)
(* End-to-end: commits flow through the relay tree                     *)
(* ------------------------------------------------------------------ *)

let test_paxos_relay_commits () =
  let h = HP.lan ~config:(relay_config ~tracing:true ~r:2 9) ~n:9 () in
  HP.run_for h 200.0;
  let replies = HP.submit_seq h (List.init 30 (fun i -> put i i)) in
  Alcotest.(check int) "all committed" 30 (List.length replies);
  let trace = HP.C.trace h.HP.cluster in
  let count label =
    match List.assoc_opt label (Trace.message_counts trace) with
    | Some c -> c
    | None -> 0
  in
  Alcotest.(check bool) "RelayRound on the wire" true (count "RelayRound" > 0);
  Alcotest.(check bool) "RelayAck on the wire" true (count "RelayAck" > 0);
  Alcotest.(check bool) "aggregation hops traced" true
    (Trace.relay_hops trace > 0);
  HP.assert_consistent h

let test_raft_relay_commits () =
  let h = HR.lan ~config:(relay_config ~tracing:true ~r:2 9) ~n:9 () in
  HR.run_for h 1_000.0;
  let replies = HR.submit_seq h (List.init 30 (fun i -> put i i)) in
  Alcotest.(check int) "all committed" 30 (List.length replies);
  let trace = HR.C.trace h.HR.cluster in
  let count label =
    match List.assoc_opt label (Trace.message_counts trace) with
    | Some c -> c
    | None -> 0
  in
  Alcotest.(check bool) "RelayAppend on the wire" true
    (count "RelayAppend" > 0);
  Alcotest.(check bool) "RelayAppendAck on the wire" true
    (count "RelayAppendAck" > 0);
  HR.assert_consistent h

let test_paxos_relay_big_n () =
  let h = HP.lan ~config:(relay_config ~r:3 25) ~n:25 () in
  HP.run_for h 200.0;
  let replies = HP.submit_seq h (List.init 20 (fun i -> put i (i * 2))) in
  Alcotest.(check int) "n=25 commits through relays" 20 (List.length replies);
  HP.assert_consistent h

(* ------------------------------------------------------------------ *)
(* Crash transparency                                                  *)
(* ------------------------------------------------------------------ *)

(* Kill a serving relay mid-run: the leader's per-round fallback
   re-ships stalled rounds direct and rotates the dead relay out of
   its post, so every write still commits and no history diverges.
   The gen-0 victim is deterministic — the leader is 0 in both
   protocols and the plan is a pure function. *)
let relay_victim ~n ~r = (Relay.compute ~n ~leader:0 ~r ~gen:0).Relay.groups.(0).(0)

let test_paxos_relay_crash () =
  let n = 9 in
  let h = HP.lan ~config:(relay_config ~r:2 n) ~n () in
  HP.run_for h 200.0;
  ignore (HP.submit_seq h [ put 0 1; put 1 2 ]);
  let victim = relay_victim ~n ~r:2 in
  Faults.crash (HP.faults h) ~node:(Address.replica victim)
    ~from_ms:(Sim.now (HP.sim h)) ~duration_ms:8_000.0;
  let replies = HP.submit_seq h (List.init 12 (fun i -> put (10 + i) i)) in
  Alcotest.(check int) "commits despite dead relay" 12 (List.length replies);
  HP.run_for h 12_000.0;
  let replies = HP.submit_seq h [ put 99 99 ] in
  Alcotest.(check int) "commits after relay revives" 1 (List.length replies);
  HP.assert_consistent h

let test_raft_relay_crash () =
  let n = 9 in
  let h = HR.lan ~config:(relay_config ~r:2 n) ~n () in
  HR.run_for h 1_000.0;
  ignore (HR.submit_seq h [ put 0 1; put 1 2 ]);
  let victim = relay_victim ~n ~r:2 in
  Faults.crash (HR.faults h) ~node:(Address.replica victim)
    ~from_ms:(Sim.now (HR.sim h)) ~duration_ms:8_000.0;
  let replies = HR.submit_seq h (List.init 12 (fun i -> put (10 + i) i)) in
  Alcotest.(check int) "commits despite dead relay" 12 (List.length replies);
  HR.run_for h 12_000.0;
  let replies = HR.submit_seq h [ put 99 99 ] in
  Alcotest.(check int) "commits after relay revives" 1 (List.length replies);
  HR.assert_consistent h

(* ------------------------------------------------------------------ *)
(* relay_groups = 0 stays byte-identical to the direct path            *)
(* ------------------------------------------------------------------ *)

let pin_spec protocol ~r =
  let config =
    { (Config.default ~n_replicas:5) with Config.seed = 77; relay_groups = r }
  in
  let spec =
    Runner.spec ~warmup_ms:200.0 ~duration_ms:1_000.0 ~config
      ~topology:(Topology.lan ~n_replicas:5 ())
      ~client_specs:
        [
          Runner.clients ~target:(Runner.Fixed 0) ~count:8
            { Workload.default with Workload.write_ratio = 1.0 };
        ]
      ()
  in
  Runner.run (Paxi_protocols.Registry.find_exn protocol) spec

(* Fixed-seed event-count pins for the direct path with the relay code
   compiled in but off. A drift here means relay_groups = 0 perturbed
   the legacy simulation — the cross-PR identity the CI perf-smoke
   baseline also gates. *)
let test_relay_zero_pins () =
  let paxos = pin_spec "paxos" ~r:0 in
  let raft = pin_spec "raft" ~r:0 in
  Alcotest.(check int) "paxos sim_events pinned" 209_733
    paxos.Runner.sim_events;
  Alcotest.(check int) "raft sim_events pinned" 210_437 raft.Runner.sim_events;
  (* and with relays on, the same workload still completes cleanly *)
  let relay = pin_spec "paxos" ~r:2 in
  Alcotest.(check bool) "relay run progresses" true
    (relay.Runner.completed > 500);
  Alcotest.(check int) "relay run consensus clean" 0
    (List.length relay.Runner.consensus_violations)

let suite =
  ( "relay",
    [
      Alcotest.test_case "plan partition exact" `Quick
        test_plan_partition_exact;
      Alcotest.test_case "plan rotation covers" `Quick
        test_plan_rotation_covers;
      Alcotest.test_case "plan cache reuses" `Quick test_plan_cache_reuses;
      Alcotest.test_case "bitmap exact" `Quick test_bitmap_exact;
      Alcotest.test_case "paxos relay commits" `Quick
        test_paxos_relay_commits;
      Alcotest.test_case "raft relay commits" `Quick test_raft_relay_commits;
      Alcotest.test_case "paxos relay at n=25" `Slow test_paxos_relay_big_n;
      Alcotest.test_case "paxos relay crash fallback" `Slow
        test_paxos_relay_crash;
      Alcotest.test_case "raft relay crash fallback" `Slow
        test_raft_relay_crash;
      Alcotest.test_case "relay_groups=0 pins" `Slow test_relay_zero_pins;
    ] )
