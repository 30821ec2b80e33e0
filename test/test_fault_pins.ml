(* Simulated outputs pinned per fault kind. The nemesis reports hold
   the outputs of generated schedules, which move whenever the
   generator does; these hold one named schedule per kind. Each case
   runs paxos, raft or epaxos at n = 5, seed 11, under one schedule —
   one per fault kind, a mixed one with overlapping and abutting
   windows, and loss on every leader link — with retransmission off
   and on, and pins completions, messages sent, retransmits and the
   bits of the mean latency. A change to the fault plane, the transport or the
   client loop that moves any verdict, RNG draw or event order shows
   up here as a changed row. *)

open Paxi_benchmark

let r = Address.replica

let schedules : (string * (Faults.t -> unit)) list =
  [
    ( "crash",
      fun f -> Faults.crash f ~node:(r 0) ~from_ms:400.0 ~duration_ms:400.0 );
    ( "drop",
      fun f ->
        Faults.drop f ~src:(r 0) ~dst:(r 1) ~from_ms:300.0 ~duration_ms:600.0;
        Faults.drop f ~src:(r 1) ~dst:(r 0) ~from_ms:300.0 ~duration_ms:600.0 );
    ( "flaky",
      fun f ->
        List.iter
          (fun (s, d) ->
            Faults.flaky f ~src:(r s) ~dst:(r d) ~from_ms:200.0
              ~duration_ms:800.0 ~p_drop:0.3)
          [ (0, 2); (2, 0); (0, 3) ] );
    ( "partition",
      fun f ->
        Faults.partition f
          ~groups:[ [ r 0; r 1 ]; [ r 2; r 3; r 4 ] ]
          ~from_ms:500.0 ~duration_ms:400.0 );
    ( "slow",
      fun f ->
        Faults.slow f ~src:(r 0) ~dst:(r 1) ~from_ms:300.0 ~duration_ms:700.0
          ~extra_ms:5.0;
        Faults.slow f ~src:(r 0) ~dst:(r 2) ~from_ms:300.0 ~duration_ms:700.0
          ~extra_ms:5.0 );
    ( "skew",
      fun f ->
        Faults.skew f ~node:(r 0) ~from_ms:300.0 ~duration_ms:600.0
          ~offset_ms:40.0;
        Faults.skew f ~node:(r 1) ~from_ms:300.0 ~duration_ms:600.0
          ~offset_ms:(-25.0) );
    ( "mixed",
      fun f ->
        Faults.crash f ~node:(r 3) ~from_ms:300.0 ~duration_ms:300.0;
        Faults.flaky f ~src:(r 0) ~dst:(r 1) ~from_ms:200.0 ~duration_ms:1000.0
          ~p_drop:0.2;
        Faults.slow f ~src:(r 1) ~dst:(r 0) ~from_ms:400.0 ~duration_ms:400.0
          ~extra_ms:3.0;
        Faults.skew f ~node:(r 2) ~from_ms:600.0 ~duration_ms:0.0
          ~offset_ms:10.0;
        Faults.partition f
          ~groups:[ [ r 0; r 1; r 2 ]; [ r 3; r 4 ] ]
          ~from_ms:800.0 ~duration_ms:300.0;
        Faults.drop f ~src:(r 4) ~dst:(r 0) ~from_ms:600.0 ~duration_ms:200.0 );
    (* 30% loss both ways on every link of replica 0 (paxos' and raft's
       leader) for the whole run: one flaky acceptor would be masked by
       the quorum, but here a third of the slots miss their majority on
       the first transmission, so progress on them is owed to
       retransmission *)
    ( "leader links",
      fun f ->
        for i = 1 to 4 do
          Faults.flaky f ~src:(r 0) ~dst:(r i) ~from_ms:0.0
            ~duration_ms:2_000.0 ~p_drop:0.3;
          Faults.flaky f ~src:(r i) ~dst:(r 0) ~from_ms:0.0
            ~duration_ms:2_000.0 ~p_drop:0.3
        done );
  ]

let retransmit = { Config.base_ms = 40.0; max_ms = 320.0; max_tries = 25 }

let run protocol kind ~retx =
  let n = 5 in
  let config =
    {
      (Config.default ~n_replicas:n) with
      Config.seed = 11;
      retransmit = (if retx then Some retransmit else None);
    }
  in
  let spec =
    Runner.spec ~warmup_ms:200.0 ~duration_ms:1_000.0
      ~faults:(List.assoc kind schedules) ~config
      ~topology:(Topology.lan ~n_replicas:n ())
      ~client_specs:
        [
          Runner.clients ~target:Runner.Round_robin ~count:4
            { Workload.default with Workload.keys = 20 };
        ]
      ()
  in
  Runner.run (Paxi_protocols.Registry.find_exn protocol) spec

(* One row: [completed], [messages_sent], [retransmits] and the mean
   latency's bits, as a string so a mismatch prints the whole row. *)
let row protocol kind ~retx =
  let res = run protocol kind ~retx in
  Printf.sprintf "%d %d %d %Lx" res.Runner.completed res.Runner.messages_sent
    res.Runner.retransmits
    (Int64.bits_of_float (Stats.mean res.Runner.latency))

(* (protocol, fault kind, retransmit on, expected row) *)
let pins =
  [
    ("paxos", "crash", false, "1427 15461 0 3ff1d4836afbfc50");
    ("paxos", "crash", true, "1427 15461 0 3ff1d4836afbfc50");
    ("paxos", "drop", false, "1079 11693 0 3ff1cc3f8bec3ee1");
    ("paxos", "drop", true, "1079 11693 0 3ff1cc3f8bec3ee1");
    ("paxos", "flaky", false, "738 8005 0 3ff19f4280574fd1");
    ("paxos", "flaky", true, "738 8005 0 3ff19f4280574fd1");
    ("paxos", "partition", false, "1780 19330 0 3ff1dcbb60dc4db6");
    ("paxos", "partition", true, "1965 21298 24 40009354a9609e72");
    ("paxos", "slow", false, "4252 45963 0 3ff20ed90224db73");
    ("paxos", "slow", true, "4252 45963 0 3ff20ed90224db73");
    ("paxos", "skew", false, "4290 46373 0 3ff1ddbe733ea9bd");
    ("paxos", "skew", true, "4290 46373 0 3ff1ddbe733ea9bd");
    ("paxos", "mixed", false, "1077 11601 0 3ff1c4fdbf31402c");
    ("paxos", "mixed", true, "1077 11601 0 3ff1c4fdbf31402c");
    ("paxos", "leader links", false, "0 27 0 7ff8000000000001");
    ("paxos", "leader links", true, "21 295 20 40321bd289c1f5ae");
    ("raft", "crash", false, "1429 15529 0 3ff1d8c0c5078c1b");
    ("raft", "crash", true, "1611 17504 16 3ffc8335ae01a06d");
    ("raft", "drop", false, "1079 11740 0 3ff1d469310d0f9a");
    ("raft", "drop", true, "1079 11745 4 3ff1d469310d0f9a");
    ("raft", "flaky", false, "748 8154 0 3ff1b577b0213280");
    ("raft", "flaky", true, "748 8154 0 3ff1b577b0213280");
    ("raft", "partition", false, "1786 19410 0 3ff1db92c18c67f7");
    ("raft", "partition", true, "2145 23259 12 400659a3a695dc4d");
    ("raft", "slow", false, "4232 45795 0 3ff22b822d7cd328");
    ("raft", "slow", true, "4232 45795 0 3ff22b822d7cd328");
    ("raft", "skew", false, "4298 46507 0 3ff1d61f1b27cc3b");
    ("raft", "skew", true, "4298 46507 0 3ff1d61f1b27cc3b");
    ("raft", "mixed", false, "1077 11635 0 3ff1d63315141635");
    ("raft", "mixed", true, "1077 11641 5 3ff1d63315141635");
    ("raft", "leader links", false, "18 267 0 3ff192bce3aed400");
    ("raft", "leader links", true, "19 294 9 3ff2f578e6b3479a");
    ("epaxos", "crash", false, "1185 17159 0 4001715b19a4306f");
    ("epaxos", "crash", true, "1185 17159 0 4001715b19a4306f");
    ("epaxos", "drop", false, "946 13815 0 3ff5c6824759b74f");
    ("epaxos", "drop", true, "946 13815 0 3ff5c6824759b74f");
    ("epaxos", "flaky", false, "621 9103 0 402c748075bbc0cf");
    ("epaxos", "flaky", true, "621 9103 0 402c748075bbc0cf");
    ("epaxos", "partition", false, "1581 22867 0 400ae86ae736ad19");
    ("epaxos", "partition", true, "1581 22867 0 400ae86ae736ad19");
    ("epaxos", "slow", false, "3050 44284 0 3ff9e90a35d74197");
    ("epaxos", "slow", true, "3050 44284 0 3ff9e90a35d74197");
    ("epaxos", "skew", false, "3525 50694 0 3ff5bc14fb683811");
    ("epaxos", "skew", true, "3525 50694 0 3ff5bc14fb683811");
    ("epaxos", "mixed", false, "709 10327 0 3ff547e18c4203c6");
    ("epaxos", "mixed", true, "709 10327 0 3ff547e18c4203c6");
    ("epaxos", "leader links", false, "59 999 0 403efbde5bec3f4f");
    ("epaxos", "leader links", true, "59 999 0 403efbde5bec3f4f");
  ]

let test_pins () =
  List.iter
    (fun (protocol, kind, retx, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s %s retransmit=%b" protocol kind retx)
        expected (row protocol kind ~retx))
    pins

(* The recovery path under sustained leader-link loss: retransmission
   must actually fire and every request must still be answered. *)
let test_leader_links_retransmit () =
  let res = run "paxos" "leader links" ~retx:true in
  Alcotest.(check bool)
    (Printf.sprintf "retransmits > 0 (%d)" res.Runner.retransmits)
    true (res.Runner.retransmits > 0);
  Alcotest.(check int) "nothing gave up" 0 res.Runner.gave_up

(* The client's retry and give-up paths, which no schedule above
   reaches (nothing gives up there). Open-loop clients keep several
   requests in flight, aimed at replica 0, with a 30 ms timeout and
   two retries, while replica 0 is down for 400 ms. Requests time
   out, move to the next replicas, give up while the group is stalled,
   and complete out of order once retransmission heals it, so the
   runner's request records are recycled in every order. The row is
   [row]'s plus [gave_up] and the history length. *)
let test_client_give_up_pinned () =
  let n = 5 in
  let config =
    {
      (Config.default ~n_replicas:n) with
      Config.seed = 11;
      client_timeout_ms = 30.0;
      retransmit = Some retransmit;
    }
  in
  let spec =
    Runner.spec ~warmup_ms:200.0 ~duration_ms:1_000.0 ~max_retries:2
      ~collect_history:true
      ~faults:(List.assoc "crash" schedules)
      ~config
      ~topology:(Topology.lan ~n_replicas:n ())
      ~client_specs:
        [
          Runner.clients ~target:(Runner.Fixed 0)
            ~arrival:(Runner.Open { rate_per_sec = 1_000.0 })
            ~count:3
            { Workload.default with Workload.keys = 20 };
        ]
      ()
  in
  let res = Runner.run (Paxi_protocols.Registry.find_exn "paxos") spec in
  Alcotest.(check string) "paxos crash, open loop, 2 retries"
    "2022 1569 43039 16 4024692c846074f9 2022"
    (Printf.sprintf "%d %d %d %d %Lx %d" res.Runner.completed
       res.Runner.gave_up res.Runner.messages_sent res.Runner.retransmits
       (Int64.bits_of_float (Stats.mean res.Runner.latency))
       (List.length res.Runner.history))

let suite =
  ( "fault_pins",
    [
      Alcotest.test_case "outputs pinned per fault kind" `Slow test_pins;
      Alcotest.test_case "leader links recover by retransmission" `Quick
        test_leader_links_retransmit;
      Alcotest.test_case "client retries and give-ups pinned" `Quick
        test_client_give_up_pinned;
    ] )
