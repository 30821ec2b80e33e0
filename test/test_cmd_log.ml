(* The command log paxos, wpaxos and mencius share: fixed-seed pins for
   the two that no other test pins byte for byte, and its
   displaced-client rule driven through each protocol's own messages. *)

open Paxi_benchmark

(* ---- fixed-seed pins ------------------------------------------------ *)

let pin_run name ~config ~topology ~client_specs =
  Runner.run
    (Paxi_protocols.Registry.find_exn name)
    (Runner.spec ~warmup_ms:200.0 ~duration_ms:1_000.0 ~collect_history:true
       ~check_consensus:true ~config ~topology ~client_specs ())

let check_pin name ~completed ~messages (r : Runner.result) =
  Alcotest.(check int) (name ^ " completed") completed r.Runner.completed;
  Alcotest.(check int) (name ^ " messages sent") messages r.Runner.messages_sent;
  Alcotest.(check int)
    (name ^ " linearizable") 0
    (List.length (Linearizability.check r.Runner.history));
  Alcotest.(check int)
    (name ^ " consensus") 0
    (List.length r.Runner.consensus_violations)

(* Five owners at seed 11, every client on its own replica: skips and
   cross-owner commit frontiers on every round. *)
let test_mencius_pinned () =
  let n = 5 in
  pin_run "mencius"
    ~config:{ (Config.default ~n_replicas:n) with Config.seed = 11 }
    ~topology:(Topology.lan ~n_replicas:n ())
    ~client_specs:
      [
        Runner.clients ~target:Runner.Round_robin ~count:8
          { Workload.default with Workload.keys = 20 };
      ]
  |> check_pin "mencius" ~completed:8_846 ~messages:135_388

(* Three co-located zones at seed 11 with retransmission armed and 30%
   conflicting keys: steals, preempted owners withdrawing their posts,
   and re-proposals in phase 1 all run. *)
let test_wpaxos_pinned () =
  let n = 9 in
  pin_run "wpaxos"
    ~config:
      {
        (Config.default ~n_replicas:n) with
        Config.seed = 11;
        retransmit = Some { Config.base_ms = 40.0; max_ms = 320.0; max_tries = 25 };
      }
    ~topology:(Runner.lan_topology ~zoned:true n)
    ~client_specs:
      (Runner.lan_clients ~zoned:true ~count:6
         { Workload.default with Workload.keys = 20; conflict_ratio = 0.3 })
  |> check_pin "wpaxos" ~completed:4_593 ~messages:127_460

(* ---- displaced clients ---------------------------------------------- *)

(* A cluster of [P] replicas over a hand-run network: every send is
   queued, and [run] delivers the queue in order (dropping the labels
   in [drop]) until it is empty. Timers never fire. *)
module Stub (P : Proto.PROTOCOL) = struct
  type t = {
    replicas : P.replica array;
    queue : (int * int * P.message) Queue.t;  (** src, dst, message *)
    sent : P.message list ref;  (** every message sent, newest first *)
    replies : (Address.t * Proto.reply) list ref;
  }

  let create config =
    let n = config.Config.n_replicas in
    let sim = Sim.create () in
    let queue = Queue.create () and sent = ref [] and replies = ref [] in
    let next_key = ref 0 in
    let env i =
      let send dst m =
        sent := m :: !sent;
        Queue.push (i, dst, m) queue
      in
      let multicast dsts m = List.iter (fun d -> send d m) dsts in
      let broadcast m =
        multicast (List.filter (( <> ) i) (List.init n Fun.id)) m
      in
      let fresh () =
        incr next_key;
        !next_key
      in
      let key = function Some k -> k | None -> fresh () in
      {
        Proto.id = i;
        n;
        config;
        topology = Topology.lan ~n_replicas:n ();
        rng = Rng.create ~seed:i;
        now = (fun () -> Sim.now sim);
        schedule = (fun delay f -> Sim.schedule_after sim ~delay f);
        cancel = Sim.cancel sim;
        send;
        broadcast;
        multicast;
        send_sized = (fun d ~size_bytes:_ m -> send d m);
        broadcast_sized = (fun ~size_bytes:_ m -> broadcast m);
        multicast_sized = (fun ds ~size_bytes:_ m -> multicast ds m);
        reply = (fun c r -> replies := (c, r) :: !replies);
        forward = (fun _ ~client:_ _ -> ());
        rel =
          {
            Proto.active = false;
            fresh;
            post =
              (fun ?key:k ?size_bytes:_ ~ack:_ d m ->
                send d m;
                key k);
            post_multi =
              (fun ?key:k ?size_bytes:_ ~ack:_ ds m ->
                multicast ds m;
                key k);
            post_all =
              (fun ?key:k ?size_bytes:_ ~ack:_ m ->
                broadcast m;
                key k);
            settle = (fun ~dst:_ ~key:_ -> ());
            settle_all = (fun ~key:_ -> ());
            unpost_all = ignore;
          };
        obs = Proto.null_obs;
        storage = None;
      }
    in
    let replicas = Array.init n (fun i -> P.create (env i)) in
    Array.iter P.on_start replicas;
    { replicas; queue; sent; replies }

  let request t ~client command =
    P.on_request t.replicas.(0) ~client { Proto.command }

  let run ?(drop = []) t =
    while not (Queue.is_empty t.queue) do
      let src, dst, m = Queue.pop t.queue in
      if not (List.mem (P.message_label m) drop) then
        P.on_message t.replicas.(dst) ~src m
    done
end

(* Replica 0 records command [c1] for client [x] at slot 0 and its
   phase-2 message ([accept]) is lost. It then learns, through the
   protocol's [commit] message, that slot 0 committed [c1] — and must
   answer [x] once — or a different command — and must never answer
   [x], whose command was displaced. The commit message is the one a
   replica 0 of a second cluster broadcasts after committing that
   command at slot 0. *)
let displaced_client (module P : Proto.PROTOCOL) ~config ~accept ~commit () =
  let module S = Stub (P) in
  let c1 = Command.make ~id:1 ~client:1 (Command.Put (1, 10))
  and c2 = Command.make ~id:1 ~client:2 (Command.Put (1, 20))
  and x = Address.client 1 in
  let commit_of cmd =
    let s = S.create config in
    S.request s ~client:(Address.client 9) cmd;
    S.run s;
    List.find (fun m -> P.message_label m = commit) !(s.S.sent)
  in
  let answers learned =
    let s = S.create config in
    S.request s ~client:x c1;
    S.run ~drop:[ accept ] s;
    Alcotest.(check int) "not answered before the commit" 0
      (List.length !(s.S.replies));
    P.on_message s.S.replicas.(0) ~src:1 (commit_of learned);
    S.run s;
    List.length (List.filter (fun (c, _) -> c = x) !(s.S.replies))
  in
  Alcotest.(check int) "its own commit answers the client once" 1 (answers c1);
  Alcotest.(check int) "a displacing commit never answers it" 0 (answers c2)

let config n = Config.default ~n_replicas:n

let suite =
  ( "cmd_log",
    [
      Alcotest.test_case "mencius fixed-seed pin" `Quick test_mencius_pinned;
      Alcotest.test_case "wpaxos fixed-seed pin" `Quick test_wpaxos_pinned;
      Alcotest.test_case "paxos displaced client" `Quick
        (displaced_client
           (module Paxi_protocols.Paxos)
           ~config:{ (config 3) with Config.piggyback_commit = false }
           ~accept:"P2a" ~commit:"Commit");
      Alcotest.test_case "wpaxos displaced client" `Quick
        (displaced_client
           (module Paxi_protocols.Wpaxos)
           ~config:(config 3) ~accept:"P2a" ~commit:"CommitK");
      Alcotest.test_case "mencius displaced client" `Quick
        (displaced_client
           (module Paxi_protocols.Mencius)
           ~config:(config 3) ~accept:"MAccept" ~commit:"MCommit");
    ] )
