module WK = Paxi_protocols.Wankeeper
module H = Proto_harness.Make (Paxi_protocols.Wankeeper)

let put k v = Command.Put (k, v)
let get k = Command.Get k

(* master in Ohio (region index 1), as in the paper's experiments *)
let wan () =
  let config =
    { (Config.default ~n_replicas:9) with Config.master_region_index = 1 }
  in
  H.wan3 ~config ()

let test_roles () =
  let h = wan () in
  H.run_for h 10.0;
  Alcotest.(check bool) "replica 1 is master" true (WK.is_master (H.replica h 1));
  Alcotest.(check bool) "replica 0 leads VA" true (WK.is_zone_leader (H.replica h 0));
  Alcotest.(check bool) "replica 3 is plain member" false
    (WK.is_zone_leader (H.replica h 3))

let test_master_executes_first_accesses () =
  let h = wan () in
  let client = H.new_client h ~region:Region.virginia in
  let replies = H.submit_seq h ~client ~target:0 [ put 1 10 ] in
  Alcotest.(check int) "committed" 1 (List.length replies);
  (* a single access does not move the token; the master executed it *)
  Alcotest.(check int) "master replied" 1 (List.hd replies).Proto.replier;
  Alcotest.(check int) "no token at VA" 0 (WK.tokens_held (H.replica h 0))

let test_token_granted_on_settled_locality () =
  let h = wan () in
  let client = H.new_client h ~region:Region.virginia in
  ignore (H.submit_seq h ~client ~target:0 (List.init 8 (fun i -> put 1 i)));
  Alcotest.(check bool) "VA eventually holds token" true
    (WK.tokens_held (H.replica h 0) >= 1);
  Alcotest.(check bool) "master granted" true (WK.grants (H.replica h 1) >= 1);
  (* later accesses commit in-region and are answered by the VA leader *)
  let replies = H.submit_seq h ~client ~target:0 [ get 1 ] in
  Alcotest.(check int) "VA leader replies" 0 (List.hd replies).Proto.replier

let test_contention_retracts_token () =
  let h = wan () in
  let va = H.new_client h ~region:Region.virginia in
  let ca = H.new_client h ~region:Region.california in
  (* settle the token at VA *)
  ignore (H.submit_seq h ~client:va ~target:0 (List.init 6 (fun i -> put 2 i)));
  Alcotest.(check bool) "VA holds" true (WK.tokens_held (H.replica h 0) >= 1);
  (* CA now contends; master must retract *)
  ignore (H.submit_seq h ~client:ca ~target:2 (List.init 2 (fun i -> put 2 (100 + i))));
  Alcotest.(check bool) "retraction happened" true (WK.retractions (H.replica h 1) >= 1);
  Alcotest.(check int) "VA lost token" 0 (WK.tokens_held (H.replica h 0))

let test_values_survive_token_moves () =
  let h = wan () in
  let va = H.new_client h ~region:Region.virginia in
  let ca = H.new_client h ~region:Region.california in
  (* VA writes enough to win the token, then CA reads *)
  ignore (H.submit_seq h ~client:va ~target:0 (List.init 6 (fun i -> put 3 i)));
  let replies = H.submit_seq h ~client:ca ~target:2 [ get 3 ] in
  Alcotest.(check (option int)) "CA read sees VA's last write" (Some 5)
    (List.hd replies).Proto.read

let test_master_region_local_latency () =
  let h = wan () in
  let client = H.new_client h ~region:Region.ohio in
  ignore (H.submit_seq h ~client ~target:1 [ put 4 0 ]);
  let t0 = Sim.now (H.sim h) in
  ignore (H.submit_seq h ~client ~target:1 [ put 4 1 ]);
  let elapsed = Sim.now (H.sim h) -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "ohio commits locally (%.2f ms)" elapsed)
    true (elapsed < 11.0)

let test_many_keys_partition_across_regions () =
  let h = wan () in
  let clients =
    List.map (fun r -> (H.new_client h ~region:r, r))
      [ Region.virginia; Region.ohio; Region.california ]
  in
  List.iteri
    (fun i (c, _) ->
      ignore
        (H.submit_seq h ~client:c ~target:(i * 1)
           (List.init 12 (fun j -> put ((i * 10) + (j mod 3)) j))))
    clients;
  (* each non-master region ends up holding its own keys *)
  Alcotest.(check bool) "VA holds its keys" true (WK.tokens_held (H.replica h 0) >= 2);
  Alcotest.(check bool) "CA holds its keys" true (WK.tokens_held (H.replica h 2) >= 2)

let test_reads_after_writes_across_regions () =
  let h = wan () in
  let va = H.new_client h ~region:Region.virginia in
  let oh = H.new_client h ~region:Region.ohio in
  ignore (H.submit_seq h ~client:va ~target:0 [ put 5 42 ]);
  let replies = H.submit_seq h ~client:oh ~target:1 [ get 5 ] in
  Alcotest.(check (option int)) "ohio sees VA write" (Some 42)
    (List.hd replies).Proto.read

(* Virginia's zone leader (replica 0) crashes for 1 s on a durable
   cluster, so it loses its volatile state and comes back a follower;
   the zone's next member takes over and Virginia's operations resume
   through it. No token ever leaves the master (the access threshold is
   out of reach), so the zone holds none when its leader dies. *)
let test_zone_leader_failover () =
  let config =
    {
      (Config.default ~n_replicas:9) with
      Config.master_region_index = 1;
      migration_threshold = 1_000_000;
      storage = Some Storage.default_config;
      retransmit = Some { Config.base_ms = 40.0; max_ms = 320.0; max_tries = 25 };
    }
  in
  let crash =
    Paxi_nemesis.Schedule.Crash { node = 0; from_ms = 1_000.0; duration_ms = 1_000.0 }
  in
  let h = H.wan3 ~config ~schedule:[ crash ] () in
  let client region = H.new_client h ~region in
  ignore (H.submit_seq h ~client:(client Region.virginia) ~target:3 [ put 1 1; get 1 ]);
  H.run_for h (1_200.0 -. Sim.now (H.sim h));
  ignore (H.submit_seq h ~client:(client Region.ohio) ~target:1 [ put 1 2; get 1 ]);
  H.run_for h (5_000.0 -. Sim.now (H.sim h));
  Alcotest.(check bool) "crashed leader is a follower" false
    (WK.is_zone_leader (H.replica h 0));
  Alcotest.(check bool) "VA leadership moved" true
    (WK.is_zone_leader (H.replica h 3) || WK.is_zone_leader (H.replica h 6));
  let t0 = Sim.now (H.sim h) in
  let replies =
    H.submit_seq h ~client:(client Region.virginia) ~target:3 [ get 1; put 1 3; get 1 ]
  in
  Alcotest.(check int) "VA operations resume" 3 (List.length replies);
  Alcotest.(check bool) "served through VA, no client retry" true
    (Sim.now (H.sim h) -. t0 < config.Config.client_timeout_ms);
  Alcotest.(check (option int)) "read sees the last write" (Some 3)
    (List.nth replies 2).Proto.read;
  Alcotest.(check int) "linearizable" 0
    (List.length (Paxi_benchmark.Linearizability.check h.H.history))

(* Virginia wins key 1's token, then its zone leader (replica 0)
   crashes for 1 s on a durable cluster. The token is committed in the
   zone group, so the member that takes over holds it too: Virginia
   keeps serving the key in-region, and Ohio's read then retracts it
   with every write Virginia made. *)
let test_token_survives_leader_crash () =
  let config =
    {
      (Config.default ~n_replicas:9) with
      Config.master_region_index = 1;
      storage = Some Storage.default_config;
      retransmit = Some { Config.base_ms = 40.0; max_ms = 320.0; max_tries = 25 };
    }
  in
  let crash =
    Paxi_nemesis.Schedule.Crash { node = 0; from_ms = 1_500.0; duration_ms = 1_000.0 }
  in
  let h = H.wan3 ~config ~schedule:[ crash ] () in
  let client region = H.new_client h ~region in
  ignore
    (H.submit_seq h ~client:(client Region.virginia) ~target:0
       (List.init 8 (fun i -> put 1 i)));
  Alcotest.(check bool) "VA holds the token" true (WK.tokens_held (H.replica h 0) >= 1);
  H.run_for h (5_000.0 -. Sim.now (H.sim h));
  let leader = if WK.is_zone_leader (H.replica h 3) then 3 else 6 in
  Alcotest.(check bool) "VA leadership moved" true (WK.is_zone_leader (H.replica h leader));
  Alcotest.(check bool) "the new VA leader holds the token" true
    (WK.tokens_held (H.replica h leader) >= 1);
  let replies =
    H.submit_seq h ~client:(client Region.virginia) ~target:leader [ get 1; put 1 100 ]
  in
  Alcotest.(check (option int)) "VA reads its last write" (Some 7)
    (List.hd replies).Proto.read;
  Alcotest.(check int) "served in VA" leader (List.nth replies 1).Proto.replier;
  let replies = H.submit_seq h ~client:(client Region.ohio) ~target:1 [ get 1 ] in
  Alcotest.(check (option int)) "OH reads VA's write" (Some 100) (List.hd replies).Proto.read;
  Alcotest.(check int) "linearizable" 0
    (List.length (Paxi_benchmark.Linearizability.check h.H.history))

let suite =
  ( "wankeeper",
    [
      Alcotest.test_case "roles" `Quick test_roles;
      Alcotest.test_case "master executes first accesses" `Quick test_master_executes_first_accesses;
      Alcotest.test_case "token granted on settled locality" `Quick test_token_granted_on_settled_locality;
      Alcotest.test_case "contention retracts token" `Quick test_contention_retracts_token;
      Alcotest.test_case "values survive token moves" `Quick test_values_survive_token_moves;
      Alcotest.test_case "master region has local latency" `Quick test_master_region_local_latency;
      Alcotest.test_case "keys partition across regions" `Quick test_many_keys_partition_across_regions;
      Alcotest.test_case "cross-region read-your-writes" `Quick test_reads_after_writes_across_regions;
      Alcotest.test_case "zone leader failover" `Quick test_zone_leader_failover;
      Alcotest.test_case "token survives leader crash" `Quick test_token_survives_leader_crash;
    ] )
