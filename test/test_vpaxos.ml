module V = Paxi_protocols.Vpaxos
module H = Proto_harness.Make (Paxi_protocols.Vpaxos)

let put k v = Command.Put (k, v)
let get k = Command.Get k

(* master in Ohio, objects start in Ohio — the §5.3 locality setup *)
let wan ?(owner = Some 1) () =
  let config =
    {
      (Config.default ~n_replicas:9) with
      Config.master_region_index = 1;
      initial_object_owner = owner;
    }
  in
  H.wan3 ~config ()

let test_roles () =
  let h = wan () in
  H.run_for h 10.0;
  Alcotest.(check bool) "replica 1 is master" true (V.is_master (H.replica h 1));
  Alcotest.(check bool) "replica 0 leads VA" true (V.is_zone_leader (H.replica h 0))

let test_initial_assignment () =
  let h = wan () in
  H.run_for h 10.0;
  Alcotest.(check (option int)) "keys start in ohio zone" (Some 1)
    (V.assigned_zone (H.replica h 0) 77)

let test_owner_zone_commits () =
  let h = wan () in
  let oh = H.new_client h ~region:Region.ohio in
  let replies = H.submit_seq h ~client:oh ~target:1 [ put 1 10; get 1 ] in
  Alcotest.(check int) "committed" 2 (List.length replies);
  Alcotest.(check (option int)) "read" (Some 10) (List.nth replies 1).Proto.read

let test_remote_access_forwards () =
  let h = wan () in
  let va = H.new_client h ~region:Region.virginia in
  let replies = H.submit_seq h ~client:va ~target:0 [ put 2 20 ] in
  Alcotest.(check int) "committed at owner" 1 (List.length replies);
  Alcotest.(check int) "ohio leader replied" 1 (List.hd replies).Proto.replier

let test_migration_after_streak () =
  let h = wan () in
  let va = H.new_client h ~region:Region.virginia in
  ignore (H.submit_seq h ~client:va ~target:0 (List.init 8 (fun i -> put 3 i)));
  H.run_for h 5_000.0;
  Alcotest.(check bool) "migrated" true (V.migrations (H.replica h 1) >= 1);
  Alcotest.(check (option int)) "VA owns key 3 now" (Some 0)
    (V.assigned_zone (H.replica h 1) 3);
  (* later VA accesses are region-local and answered by the VA leader *)
  let replies = H.submit_seq h ~client:va ~target:0 [ get 3 ] in
  Alcotest.(check int) "VA leader replies" 0 (List.hd replies).Proto.replier;
  (* replication is per zone group: check VA's and OH's groups *)
  H.assert_consistent ~replicas:[ 0; 3; 6 ] h;
  H.assert_consistent ~replicas:[ 1; 4; 7 ] h

let test_state_travels_with_migration () =
  let h = wan () in
  let va = H.new_client h ~region:Region.virginia in
  ignore (H.submit_seq h ~client:va ~target:0 (List.init 8 (fun i -> put 4 i)));
  H.run_for h 5_000.0;
  let replies = H.submit_seq h ~client:va ~target:0 [ get 4 ] in
  Alcotest.(check (option int)) "last write visible after migration" (Some 7)
    (List.hd replies).Proto.read

let test_fresh_key_assigned_to_requester () =
  let h = wan ~owner:None () in
  let ca = H.new_client h ~region:Region.california in
  let replies = H.submit_seq h ~client:ca ~target:2 [ put 5 50; get 5 ] in
  Alcotest.(check int) "committed" 2 (List.length replies);
  Alcotest.(check (option int)) "assigned to CA zone" (Some 2)
    (V.assigned_zone (H.replica h 1) 5)

let test_ping_pong_contention_converges () =
  let h = wan () in
  let va = H.new_client h ~region:Region.virginia in
  let ca = H.new_client h ~region:Region.california in
  let module C = H.C in
  let replies = ref 0 in
  for i = 0 to 19 do
    let va_cmd = Command.make ~id:i ~client:va (put 6 i) in
    let ca_cmd = Command.make ~id:i ~client:ca (put 6 (100 + i)) in
    ignore
      (Sim.schedule_at (H.sim h)
         ~time:(float_of_int i *. 150.0)
         (fun () ->
           C.submit h.H.cluster ~client:va ~target:0 ~command:va_cmd
             ~on_reply:(fun _ -> incr replies);
           C.submit h.H.cluster ~client:ca ~target:2 ~command:ca_cmd
             ~on_reply:(fun _ -> incr replies)))
  done;
  H.run_for h 180_000.0;
  Alcotest.(check int) "all commit under contention" 40 !replies;
  List.iter (fun zone -> H.assert_consistent ~replicas:zone h)
    [ [ 0; 3; 6 ]; [ 1; 4; 7 ]; [ 2; 5; 8 ] ]

let test_per_region_locality_distribution () =
  let h = wan () in
  List.iteri
    (fun i region ->
      let c = H.new_client h ~region in
      ignore
        (H.submit_seq h ~client:c ~target:(i)
           (List.init 10 (fun j -> put ((i * 100) + (j mod 2)) j))))
    [ Region.virginia; Region.ohio; Region.california ];
  H.run_for h 10_000.0;
  (* VA's keys migrated to zone 0, CA's to zone 2 *)
  Alcotest.(check (option int)) "VA key" (Some 0) (V.assigned_zone (H.replica h 1) 0);
  Alcotest.(check (option int)) "OH key" (Some 1) (V.assigned_zone (H.replica h 1) 100);
  Alcotest.(check (option int)) "CA key" (Some 2) (V.assigned_zone (H.replica h 1) 200)

(* Virginia's zone leader (replica 0) crashes for 1 s on a durable
   cluster, so it loses its volatile state and comes back a follower;
   the zone's next member takes over and Virginia's operations resume
   through it. Every object starts in Ohio and never migrates (the
   access threshold is out of reach), so Virginia owns nothing when its
   leader dies. *)
let test_zone_leader_failover () =
  let config =
    {
      (Config.default ~n_replicas:9) with
      Config.master_region_index = 1;
      initial_object_owner = Some 1;
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
    (V.is_zone_leader (H.replica h 0));
  Alcotest.(check bool) "VA leadership moved" true
    (V.is_zone_leader (H.replica h 3) || V.is_zone_leader (H.replica h 6));
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

(* Key 3 migrates from Ohio to Virginia, then Virginia's zone leader
   (replica 0) crashes for 1 s on a durable cluster. Ownership is
   committed in the zone group, so the member that takes over owns the
   key too: Virginia keeps serving it in-region with its last value. *)
let test_ownership_survives_leader_crash () =
  let config =
    {
      (Config.default ~n_replicas:9) with
      Config.master_region_index = 1;
      initial_object_owner = Some 1;
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
       (List.init 8 (fun i -> put 3 i)));
  H.run_for h (1_200.0 -. Sim.now (H.sim h));
  Alcotest.(check (option int)) "VA owns key 3" (Some 0) (V.assigned_zone (H.replica h 1) 3);
  H.run_for h (5_000.0 -. Sim.now (H.sim h));
  let leader = if V.is_zone_leader (H.replica h 3) then 3 else 6 in
  Alcotest.(check bool) "VA leadership moved" true (V.is_zone_leader (H.replica h leader));
  let replies =
    H.submit_seq h ~client:(client Region.virginia) ~target:leader [ get 3; put 3 100 ]
  in
  Alcotest.(check (option int)) "VA reads its last write" (Some 7)
    (List.hd replies).Proto.read;
  Alcotest.(check int) "served in VA" leader (List.nth replies 1).Proto.replier;
  let replies = H.submit_seq h ~client:(client Region.ohio) ~target:1 [ get 3 ] in
  Alcotest.(check (option int)) "OH reads VA's write" (Some 100) (List.hd replies).Proto.read;
  Alcotest.(check int) "linearizable" 0
    (List.length (Paxi_benchmark.Linearizability.check h.H.history))

let suite =
  ( "vpaxos",
    [
      Alcotest.test_case "roles" `Quick test_roles;
      Alcotest.test_case "initial assignment" `Quick test_initial_assignment;
      Alcotest.test_case "owner zone commits" `Quick test_owner_zone_commits;
      Alcotest.test_case "remote access forwards" `Quick test_remote_access_forwards;
      Alcotest.test_case "migration after streak" `Quick test_migration_after_streak;
      Alcotest.test_case "state travels with migration" `Quick test_state_travels_with_migration;
      Alcotest.test_case "fresh key assigned to requester" `Quick test_fresh_key_assigned_to_requester;
      Alcotest.test_case "ping-pong contention converges" `Quick test_ping_pong_contention_converges;
      Alcotest.test_case "per-region locality distribution" `Quick test_per_region_locality_distribution;
      Alcotest.test_case "zone leader failover" `Quick test_zone_leader_failover;
      Alcotest.test_case "ownership survives leader crash" `Quick test_ownership_survives_leader_crash;
    ] )
