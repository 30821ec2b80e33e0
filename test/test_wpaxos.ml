module W = Paxi_protocols.Wpaxos
module H = Proto_harness.Make (Paxi_protocols.Wpaxos)

let put k v = Command.Put (k, v)
let get k = Command.Get k

let wan ?fz ?owner () =
  let config =
    {
      (Config.default ~n_replicas:9) with
      Config.fz = Option.value fz ~default:0;
      initial_object_owner = owner;
    }
  in
  H.wan3 ~config ()

let test_claims_unowned_key () =
  let h = wan () in
  let client = H.new_client h ~region:Region.virginia in
  let replies = H.submit_seq h ~client ~target:0 [ put 1 10; get 1 ] in
  Alcotest.(check int) "committed" 2 (List.length replies);
  Alcotest.(check bool) "replica 0 owns key 1" true (W.owns (H.replica h 0) 1);
  Alcotest.(check (option int)) "read" (Some 10) (List.nth replies 1).Proto.read

let test_initial_owner_config () =
  let h = wan ~owner:1 () in
  H.run_for h 10.0;
  Alcotest.(check (option int)) "replica 1 owns everything" (Some 1)
    (W.owner_of (H.replica h 5) 123);
  Alcotest.(check bool) "replica 1 active" true (W.owns (H.replica h 1) 123)

let test_remote_requests_forwarded () =
  let h = wan ~owner:1 () in
  (* a single CA access goes to the OH owner, no steal *)
  let client = H.new_client h ~region:Region.california in
  let replies = H.submit_seq h ~client ~target:2 [ put 7 70 ] in
  Alcotest.(check int) "committed remotely" 1 (List.length replies);
  Alcotest.(check int) "replied by owner" 1 (List.hd replies).Proto.replier;
  Alcotest.(check int) "no steal for one access" 0 (W.steals_started (H.replica h 2))

let test_steals_after_three_accesses () =
  let h = wan ~owner:1 () in
  let client = H.new_client h ~region:Region.california in
  ignore (H.submit_seq h ~client ~target:2 (List.init 6 (fun i -> put 7 i)));
  Alcotest.(check bool) "CA leader stole key 7" true (W.owns (H.replica h 2) 7);
  Alcotest.(check bool) "steal happened" true (W.steals_started (H.replica h 2) >= 1);
  H.assert_consistent h

let test_local_commit_latency_fz0 () =
  let h = wan ~owner:0 () in
  let client = H.new_client h ~region:Region.virginia in
  (* warm up ownership *)
  ignore (H.submit_seq h ~client ~target:0 [ put 1 0 ]);
  let t0 = Sim.now (H.sim h) in
  ignore (H.submit_seq h ~client ~target:0 [ put 1 1 ]);
  let elapsed = Sim.now (H.sim h) -. t0 in
  (* region-local commit: well under a cross-region RTT (VA-OH = 11ms).
     submit_seq runs the sim in timeout steps, so measure conservatively *)
  Alcotest.(check bool)
    (Printf.sprintf "local latency (%.1f ms)" elapsed)
    true (elapsed < 11.0)

(* Five regions, one replica each, fz = 0: the phase-2 quorum is the
   owner alone, so once it owns a key its own vote commits a write
   without waiting on any other region. *)
let test_single_replica_zone_commits_alone () =
  let module H5 = Proto_harness.Make (Paxi_protocols.Wpaxos) in
  let h =
    H5.make
      ~config:{ (Config.default ~n_replicas:5) with Config.fz = 0 }
      ~topology:
        (Topology.wan ~regions:Region.aws_five ~replicas_per_region:1 ())
      ()
  in
  let client = H5.new_client h ~region:Region.ohio in
  (* the first write steals the key: phase 1 spans every zone *)
  ignore (H5.submit_seq h ~client ~target:1 [ put 1 0 ]);
  Alcotest.(check bool) "replica 1 owns key 1" true (W.owns (H5.replica h 1) 1);
  let t0 = Sim.now (H5.sim h) in
  let replies = H5.submit_seq h ~client ~target:1 [ put 1 1 ] in
  let elapsed = Sim.now (H5.sim h) -. t0 in
  Alcotest.(check int) "committed" 1 (List.length replies);
  Alcotest.(check bool)
    (Printf.sprintf "owner commits on its own vote (%.3f ms)" elapsed)
    true (elapsed < 1.0);
  H5.run_for h 1_000.0;
  H5.assert_consistent h

let test_fz1_survives_region_failure () =
  let h = wan ~fz:1 ~owner:0 () in
  H.run_for h 10.0;
  (* crash all of California (replicas 2,5,8) *)
  List.iter
    (fun i ->
      Faults.crash (H.faults h) ~node:(Address.replica i) ~from_ms:0.0
        ~duration_ms:600_000.0)
    [ 2; 5; 8 ];
  let client = H.new_client h ~region:Region.virginia in
  let replies = H.submit_seq h ~client ~target:0 (List.init 5 (fun i -> put i i)) in
  Alcotest.(check int) "commits despite region loss" 5 (List.length replies)

let test_fz0_region_failure_blocks_owned_keys () =
  (* fz=0 cannot tolerate losing the owner region *)
  let h = wan ~fz:0 ~owner:0 () in
  H.run_for h 10.0;
  List.iter
    (fun i ->
      Faults.crash (H.faults h) ~node:(Address.replica i) ~from_ms:0.0
        ~duration_ms:600_000.0)
    [ 0; 3; 6 ];
  let client = H.new_client h ~region:Region.ohio in
  let module C = H.C in
  let got = ref false in
  let command = Command.make ~id:0 ~client (put 1 1) in
  ignore
    (Sim.schedule_after (H.sim h) ~delay:1.0 (fun () ->
         C.submit h.H.cluster ~client ~target:1 ~command ~on_reply:(fun _ -> got := true)));
  H.run_for h 3_000.0;
  (* the OH leader will try to steal; the steal's q1 needs majorities
     in all 3 zones with fz=0, which the dead VA region denies *)
  Alcotest.(check bool) "no commit possible" false !got

let test_concurrent_steal_race_converges () =
  let h = wan ~owner:1 () in
  (* VA and CA both hammer the same key; both try to steal *)
  let va = H.new_client h ~region:Region.virginia in
  let ca = H.new_client h ~region:Region.california in
  let module C = H.C in
  let replies = ref 0 in
  for i = 0 to 19 do
    let ca_cmd = Command.make ~id:i ~client:ca (put 9 (100 + i)) in
    let va_cmd = Command.make ~id:i ~client:va (put 9 i) in
    ignore
      (Sim.schedule_at (H.sim h)
         ~time:(float_of_int i *. 120.0)
         (fun () ->
           C.submit h.H.cluster ~client:va ~target:0 ~command:va_cmd
             ~on_reply:(fun _ -> incr replies);
           C.submit h.H.cluster ~client:ca ~target:2 ~command:ca_cmd
             ~on_reply:(fun _ -> incr replies)))
  done;
  H.run_for h 120_000.0;
  Alcotest.(check int) "all eventually commit" 40 !replies;
  H.assert_consistent h

let test_non_leader_replica_forwards_to_zone_leader () =
  let h = wan ~owner:0 () in
  let client = H.new_client h ~region:Region.virginia in
  (* replica 3 is in VA but not the zone leader (leaders are 0,1,2) *)
  let replies = H.submit_seq h ~client ~target:3 [ put 4 44; get 4 ] in
  Alcotest.(check int) "handled via zone leader" 2 (List.length replies);
  Alcotest.(check (option int)) "read" (Some 44) (List.nth replies 1).Proto.read

let suite =
  ( "wpaxos",
    [
      Alcotest.test_case "claims unowned key" `Quick test_claims_unowned_key;
      Alcotest.test_case "initial owner config" `Quick test_initial_owner_config;
      Alcotest.test_case "remote requests forwarded" `Quick test_remote_requests_forwarded;
      Alcotest.test_case "steals after three accesses" `Quick test_steals_after_three_accesses;
      Alcotest.test_case "fz=0 commits locally" `Quick test_local_commit_latency_fz0;
      Alcotest.test_case "1-replica zones, fz=0: owner commits alone" `Quick
        test_single_replica_zone_commits_alone;
      Alcotest.test_case "fz=1 survives region failure" `Quick test_fz1_survives_region_failure;
      Alcotest.test_case "fz=0 blocked by owner-region failure" `Quick test_fz0_region_failure_blocks_owned_keys;
      Alcotest.test_case "steal race converges" `Quick test_concurrent_steal_race_converges;
      Alcotest.test_case "non-leader forwards in zone" `Quick test_non_leader_replica_forwards_to_zone_leader;
    ] )
