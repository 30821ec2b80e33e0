(* Pin the property-test seed unless the caller overrides it: fault
   plans and other generated cases are reproducible run-to-run. *)
let () =
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "20190630"

let () =
  Alcotest.run "paxi"
    [
      Test_rng.suite;
      Test_event_queue.suite;
      Test_sim.suite;
      Test_stats.suite;
      Test_dist.suite;
      Test_net.suite;
      Test_transport.suite;
      Test_quorum.suite;
      Test_store.suite;
      Test_paxos.suite;
      Test_raft.suite;
      Test_epaxos.suite;
      Test_wpaxos.suite;
      Test_wankeeper.suite;
      Test_vpaxos.suite;
      Test_linearizability.suite;
      Test_consensus_check.suite;
      Test_workload.suite;
      Test_model.suite;
      Test_integration.suite;
      Test_misc.suite;
      Test_zone_paxos.suite;
      Test_fault_properties.suite;
      Test_extra_protocols.suite;
      Test_json.suite;
      Test_cluster.suite;
      Test_exec.suite;
      Test_reliable.suite;
      Test_nemesis.suite;
      Test_hotpath.suite;
      Test_obs.suite;
      Test_read_oracle.suite;
      Test_read_path.suite;
      Test_relay.suite;
      Test_shard.suite;
      Test_storage.suite;
      Test_slot_log.suite;
      Test_fault_pins.suite;
      Test_cmd_log.suite;
    ]
