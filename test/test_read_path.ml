(* Read-path subsystem: leader leases serve linearizable local reads
   without consuming slot-log space, deposed leaders are blocked by
   lease expiry, quorum reads and chain tail reads answer correctly,
   a lease point's reads beat its writes end to end, and pooled
   read-heavy sweeps match sequential ones. *)

open Paxi_benchmark
module Paxos = Paxi_protocols.Paxos
module Raft = Paxi_protocols.Raft
module Chain = Paxi_protocols.Chain
module HP = Proto_harness.Make (Paxi_protocols.Paxos)
module HR = Proto_harness.Make (Paxi_protocols.Raft)
module HC = Proto_harness.Make (Paxi_protocols.Chain)

let lease = Config.Lease { margin_ms = 300.0 }

let lease_config ?(read_path = lease) n =
  { (Config.default ~n_replicas:n) with Config.read_path = Some read_path }

(* the 95%-read mix the read-path sweeps drive *)
let read_heavy = { Workload.default with Workload.write_ratio = 1.0 -. 0.95 }

let put k v = Command.Put (k, v)
let get k = Command.Get k

let reads_of replies =
  List.filter_map (fun (r : Proto.reply) -> r.Proto.read) replies

(* ------------------------------------------------------------------ *)
(* Leases: local serving, slot-log hygiene, safety under deposition    *)
(* ------------------------------------------------------------------ *)

let test_paxos_lease_serves_locally () =
  let h = HP.lan ~config:(lease_config 5) ~n:5 () in
  HP.run_for h 1_000.0;
  Alcotest.(check bool) "lease valid after heartbeats" true
    (Paxos.lease_valid (HP.replica h 0));
  let writes = List.init 10 (fun i -> put i (100 + i)) in
  let rds = List.init 40 (fun i -> get (i mod 10)) in
  let replies = HP.submit_seq h (writes @ rds) in
  Alcotest.(check int) "all replied" 50 (List.length replies);
  List.iteri
    (fun i v ->
      Alcotest.(check int)
        (Printf.sprintf "read %d fresh" i)
        (100 + (i mod 10))
        v)
    (reads_of replies);
  Alcotest.(check bool)
    (Printf.sprintf "reads served off the lease (%d)"
       (Paxos.local_reads_served (HP.replica h 0)))
    true
    (Paxos.local_reads_served (HP.replica h 0) >= 35);
  (* reads consumed no slot-log space: only the 10 writes committed *)
  Alcotest.(check int) "slot log holds writes only" 10
    (Paxos.commit_frontier (HP.replica h 0));
  HP.assert_consistent h

let test_raft_lease_serves_locally () =
  let h = HR.lan ~config:(lease_config 5) ~n:5 () in
  HR.run_for h 1_500.0;
  Alcotest.(check bool) "lease valid after appends" true
    (Raft.lease_valid (HR.replica h 0));
  let replies = HR.submit_seq h [ put 1 10; get 1; put 1 11; get 1; get 1 ] in
  Alcotest.(check (list int)) "reads fresh" [ 10; 11; 11 ] (reads_of replies);
  Alcotest.(check bool) "served off the lease" true
    (Raft.local_reads_served (HR.replica h 0) >= 3);
  HR.assert_consistent h

let test_fpaxos_lease_serves_locally () =
  (* fpaxos shares the paxos replica: the lease must renew through its
     smaller phase-2 quorum too *)
  let module HF = Proto_harness.Make (Paxi_protocols.Fpaxos) in
  let h = HF.lan ~config:(lease_config 5) ~n:5 () in
  HF.run_for h 1_000.0;
  Alcotest.(check bool) "lease valid" true
    (Paxi_protocols.Fpaxos.lease_valid (HF.replica h 0));
  let replies = HF.submit_seq h [ put 3 30; get 3; get 3 ] in
  Alcotest.(check (list int)) "reads fresh" [ 30; 30 ] (reads_of replies);
  Alcotest.(check bool) "served off the lease" true
    (Paxi_protocols.Fpaxos.local_reads_served (HF.replica h 0) >= 2)

(* The lease-safety scenario the whole design hangs on: isolate the
   leader, let every follower grant expire, elect a new leader, commit
   a write — the deposed leader must NOT answer reads anymore (its
   lease lapsed), and once healed the read drains to the new leader
   and returns the fresh value. *)
let test_deposed_leader_read_blocked () =
  let h = HP.lan ~config:(lease_config 5) ~n:5 () in
  HP.run_for h 500.0;
  let replies = HP.submit_seq h [ put 1 10; get 1 ] in
  Alcotest.(check (list int)) "pre-partition read" [ 10 ] (reads_of replies);
  (* cut the old leader off from every peer (clients still reach it) *)
  let now = Sim.now (HP.sim h) in
  let horizon = 60_000.0 in
  for i = 1 to 4 do
    Faults.drop (HP.faults h) ~src:(Address.replica 0)
      ~dst:(Address.replica i) ~from_ms:now ~duration_ms:horizon;
    Faults.drop (HP.faults h) ~src:(Address.replica i)
      ~dst:(Address.replica 0) ~from_ms:now ~duration_ms:horizon
  done;
  (* grants outlast the partition start; only after they lapse can a
     new leader rise. 6s >> serve window (1.5 x failover = 1.5s). *)
  HP.run_for h 6_000.0;
  Alcotest.(check bool) "old leader's lease lapsed" false
    (Paxos.lease_valid (HP.replica h 0));
  let replies = HP.submit_seq h ~target:1 [ put 1 99 ] in
  Alcotest.(check int) "new leader commits" 1 (List.length replies);
  (* a read at the deposed leader must hang, not serve stale state *)
  let client = HP.new_client h in
  let command = Command.make ~id:0 ~client (get 1) in
  let module C = HP.C in
  let answer = ref None in
  C.submit h.HP.cluster ~client ~target:0 ~command
    ~on_reply:(fun r -> answer := Some r);
  HP.run_for h 2_000.0;
  Alcotest.(check bool) "blocked while deposed" true (!answer = None);
  (* heal: the pending read drains to the new leader and sees 99 *)
  Faults.clear (HP.faults h);
  HP.run_for h 10_000.0;
  (match !answer with
  | None -> Alcotest.fail "read never served after heal"
  | Some r ->
      Alcotest.(check (option int)) "fresh value after heal" (Some 99)
        r.Proto.read);
  HP.assert_consistent h

(* Clock skew within the margin must not let a deposed leader serve:
   slow the old leader's clock (the dangerous direction — it
   overestimates its remaining lease) by less than the 300ms margin
   and replay the deposition. *)
let test_deposed_leader_blocked_under_skew () =
  let h = HP.lan ~config:(lease_config 5) ~n:5 () in
  HP.run_for h 500.0;
  ignore (HP.submit_seq h [ put 1 10; get 1 ]);
  let now = Sim.now (HP.sim h) in
  let horizon = 60_000.0 in
  Faults.skew (HP.faults h) ~node:(Address.replica 0) ~from_ms:now
    ~duration_ms:horizon ~offset_ms:(-250.0);
  for i = 1 to 4 do
    Faults.drop (HP.faults h) ~src:(Address.replica 0)
      ~dst:(Address.replica i) ~from_ms:now ~duration_ms:horizon;
    Faults.drop (HP.faults h) ~src:(Address.replica i)
      ~dst:(Address.replica 0) ~from_ms:now ~duration_ms:horizon
  done;
  HP.run_for h 6_000.0;
  Alcotest.(check bool) "lease lapsed despite slow clock" false
    (Paxos.lease_valid (HP.replica h 0));
  ignore (HP.submit_seq h ~target:1 [ put 1 99 ]);
  let client = HP.new_client h in
  let command = Command.make ~id:0 ~client (get 1) in
  let module C = HP.C in
  let answer = ref None in
  C.submit h.HP.cluster ~client ~target:0 ~command
    ~on_reply:(fun r -> answer := Some r);
  HP.run_for h 2_000.0;
  Alcotest.(check bool) "no stale serve under skew" true (!answer = None)

(* ------------------------------------------------------------------ *)
(* Quorum reads and tail reads                                         *)
(* ------------------------------------------------------------------ *)

let test_paxos_quorum_reads () =
  let h =
    HP.lan ~config:(lease_config ~read_path:Config.Quorum 5) ~n:5 ()
  in
  HP.run_for h 500.0;
  let replies =
    HP.submit_seq h [ put 1 10; get 1; put 2 20; get 2; put 1 11; get 1 ]
  in
  Alcotest.(check (list int)) "quorum reads fresh" [ 10; 20; 11 ]
    (reads_of replies);
  Alcotest.(check bool) "served by ABD rounds" true
    (Paxos.quorum_reads_served (HP.replica h 0) >= 3);
  Alcotest.(check int) "slot log holds writes only" 3
    (Paxos.commit_frontier (HP.replica h 0));
  HP.assert_consistent h

let test_chain_tail_reads () =
  let h =
    HC.lan ~config:(lease_config ~read_path:Config.Tail 5) ~n:5 ()
  in
  let replies = HC.submit_seq h [ put 1 10; get 1; put 1 11; get 1 ] in
  Alcotest.(check (list int)) "tail reads fresh" [ 10; 11 ] (reads_of replies);
  Alcotest.(check bool) "served at the tail" true
    (Chain.tail_reads_served (HC.replica h 4) >= 2);
  HC.assert_consistent h

(* ------------------------------------------------------------------ *)
(* End-to-end linearizability under read-heavy load                    *)
(* ------------------------------------------------------------------ *)

let linearizable_run ?batching ~protocol ~read_path ~seed () =
  let n = 5 in
  let config =
    {
      (Config.default ~n_replicas:n) with
      Config.seed;
      read_path = Some read_path;
      batching;
    }
  in
  let target =
    if protocol = "chain" then Runner.Fixed (n - 1) else Runner.Fixed 0
  in
  let spec =
    Runner.spec ~warmup_ms:200.0 ~duration_ms:1_500.0 ~collect_history:true
      ~check_consensus:true ~config
      ~topology:(Topology.lan ~n_replicas:n ())
      ~client_specs:[ Runner.clients ~target ~count:8 read_heavy ]
      ()
  in
  let result = Runner.run (Paxi_protocols.Registry.find_exn protocol) spec in
  Alcotest.(check bool)
    (Printf.sprintf "%s made progress" protocol)
    true
    (result.Runner.completed > 500);
  Alcotest.(check int)
    (Printf.sprintf "%s consensus clean" protocol)
    0
    (List.length result.Runner.consensus_violations);
  let anomalies = Linearizability.check result.Runner.history in
  Alcotest.(check int)
    (Printf.sprintf "%s linearizable at read_ratio 0.95 (%s)" protocol
       (String.concat "; "
          (List.map (fun a -> a.Linearizability.reason) anomalies)))
    0 (List.length anomalies)

let test_read_paths_linearizable () =
  linearizable_run ~protocol:"paxos" ~read_path:lease ~seed:31 ();
  linearizable_run ~protocol:"fpaxos" ~read_path:lease ~seed:32 ();
  linearizable_run ~protocol:"raft" ~read_path:lease ~seed:33 ();
  linearizable_run ~protocol:"paxos" ~read_path:Config.Quorum ~seed:34 ();
  linearizable_run ~protocol:"chain" ~read_path:Config.Tail ~seed:35 ()

(* Quorum mode defers each write's ack until a majority applied its
   slot; a batched round commits several slots at once, and each
   still waits for its own CommitAcks. *)
let test_quorum_reads_batched () =
  let batching = { Config.max_batch = 8; max_wait_ms = 0.05 } in
  linearizable_run ~batching ~protocol:"paxos" ~read_path:Config.Quorum
    ~seed:36 ();
  linearizable_run ~batching ~protocol:"fpaxos" ~read_path:Config.Quorum
    ~seed:37 ()

(* The lease point end to end: paxos n = 5 on a LAN, 16 closed-loop
   clients on the leader, 95% reads. Lease reads skip the slot log and
   its quorum round, so they must be served off the fast path and
   their median must sit below the write median. The seed is the one
   bench/main.exe's [reads] sweep derives for this point. *)
let test_lease_point_beats_write_path () =
  let config =
    {
      (lease_config 5) with
      Config.seed = 23049644;
      tracing = true;
    }
  in
  let r =
    Runner.run
      (Paxi_protocols.Registry.find_exn "paxos")
      (Runner.spec ~warmup_ms:300.0 ~duration_ms:1_000.0 ~config
         ~topology:(Topology.lan ~n_replicas:5 ())
         ~client_specs:
           [
             Runner.clients ~target:(Runner.Fixed 0) ~count:16 read_heavy;
           ]
         ())
  in
  let fast = Paxi_obs.Trace.fast_reads r.Runner.trace in
  let read_p50 = Stats.percentile r.Runner.read_latency 50.0 in
  let write_p50 = Stats.percentile r.Runner.write_latency 50.0 in
  Alcotest.(check bool) (Printf.sprintf "fast reads > 0 (%d)" fast) true
    (fast > 0);
  Alcotest.(check bool)
    (Printf.sprintf "read p50 %.3f ms < write p50 %.3f ms" read_p50 write_p50)
    true (read_p50 < write_p50)

(* ------------------------------------------------------------------ *)
(* Byte-identity: pools don't perturb                                  *)
(* ------------------------------------------------------------------ *)

(* Read-path points fanned over pools of different sizes come back
   byte-identical: the lease/quorum machinery draws nothing from any
   shared state. *)
let test_read_sweep_pool_identity () =
  let p = Paxi_protocols.Registry.find_exn "paxos" in
  let point ~read_path ~seed =
    let config =
      {
        (Config.default ~n_replicas:5) with
        Config.seed;
        read_path;
      }
    in
    Runner.spec ~warmup_ms:200.0 ~duration_ms:800.0 ~config
      ~topology:(Topology.lan ~n_replicas:5 ())
      ~client_specs:
        [ Runner.clients ~target:(Runner.Fixed 0) ~count:8 read_heavy ]
      ()
  in
  let points =
    [
      (p, point ~read_path:(Some lease) ~seed:91);
      (p, point ~read_path:(Some Config.Quorum) ~seed:92);
      (p, point ~read_path:None ~seed:93);
    ]
  in
  let with_jobs jobs =
    let pool = Paxi_exec.Pool.create ~jobs () in
    let rs = Runner.run_many ~pool points in
    Paxi_exec.Pool.shutdown pool;
    List.map
      (fun (r : Runner.result) ->
        (r.Runner.throughput_rps, Stats.samples r.Runner.read_latency,
         Stats.samples r.Runner.write_latency))
      rs
  in
  Alcotest.(check bool) "jobs=1 equals jobs=4" true
    (with_jobs 1 = with_jobs 4)

let suite =
  ( "read-path",
    [
      Alcotest.test_case "paxos lease serves locally" `Quick
        test_paxos_lease_serves_locally;
      Alcotest.test_case "raft lease serves locally" `Quick
        test_raft_lease_serves_locally;
      Alcotest.test_case "fpaxos lease serves locally" `Quick
        test_fpaxos_lease_serves_locally;
      Alcotest.test_case "deposed leader read blocked" `Quick
        test_deposed_leader_read_blocked;
      Alcotest.test_case "deposed leader blocked under skew" `Quick
        test_deposed_leader_blocked_under_skew;
      Alcotest.test_case "paxos quorum reads" `Quick test_paxos_quorum_reads;
      Alcotest.test_case "chain tail reads" `Quick test_chain_tail_reads;
      Alcotest.test_case "lease point beats the write path" `Quick
        test_lease_point_beats_write_path;
      Alcotest.test_case "read paths linearizable" `Slow
        test_read_paths_linearizable;
      Alcotest.test_case "quorum reads with batching linearizable" `Slow
        test_quorum_reads_batched;
      Alcotest.test_case "read sweep pool identity" `Slow
        test_read_sweep_pool_identity;
    ] )
