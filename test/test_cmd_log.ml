(* The command log paxos, wpaxos and mencius share: fixed-seed pins for
   the two that no other test pins byte for byte, its displaced-client
   rule driven through each protocol's own messages, the flat log
   against a list model, and the size of a one-slot log. *)

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
        clock = Proto.sim_clock sim ~id:i;
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
    P.on_request t.replicas.(0) ~client command

  let run ?(drop = []) t =
    while not (Queue.is_empty t.queue) do
      let src, dst, m = Queue.pop t.queue in
      if not (List.mem (P.message_label m) drop) then
        P.on_message t.replicas.(dst) ~src m
    done

  (* The last [label] message of a cluster that ran [cmd] at replica 0:
     its commit message, say, for that command at slot 0. *)
  let message_of config ~label cmd =
    let s = create config in
    request s ~client:(Address.client 9) cmd;
    run s;
    List.find (fun m -> P.message_label m = label) !(s.sent)

  let count t label =
    List.length (List.filter (fun m -> P.message_label m = label) !(t.sent))
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
  let answers learned =
    let s = S.create config in
    S.request s ~client:x c1;
    S.run ~drop:[ accept ] s;
    Alcotest.(check int) "not answered before the commit" 0
      (List.length !(s.S.replies));
    P.on_message s.S.replicas.(0) ~src:1
      (S.message_of config ~label:commit learned);
    S.run s;
    List.length (List.filter (fun (c, _) -> c = x) !(s.S.replies))
  in
  Alcotest.(check int) "its own commit answers the client once" 1 (answers c1);
  Alcotest.(check int) "a displacing commit never answers it" 0 (answers c2)

(* ---- phase 1: the merge and each protocol's committed-slot policy --- *)

let b1 = { Ballot.round = 1; owner = 1 }
let b2 = { Ballot.round = 1; owner = 2 }
let cmd k = Command.make ~id:k ~client:5 (Command.Put (k, k))

let rep slot ballot c ~committed =
  (slot, { Cmd_log.ballot; cmd = cmd c; committed })

(* Replica 0 executed slot 0 and learned slot 2 committed; it stands,
   and replicas 1 and 2 promise with their reports. Slot 0 is below
   the execution frontier and slot 2 committed here: neither is
   adopted. Slot 1: the higher ballot wins. Slot 3: a tie keeps the
   first report of the list, the latest promise's. Slot 4: committed,
   as one report says, with the higher ballot's command. Slot 5: a
   gap, so a no-op. *)
let test_merge () =
  let i =
    Cmd_log.instance (Executor.create ()) (Proto_harness.quiet_env ~n:5 0)
      ~ballot:Ballot.zero ~leading:false
  in
  Cmd_log.learn i.log 0 ~ballot:Ballot.zero (cmd 0);
  Cmd_log.execute i.log;
  Cmd_log.learn i.log 2 ~ballot:Ballot.zero (cmd 2);
  let c = Cmd_log.stand i (Quorum.Majority [ 0; 1; 2; 3; 4 ]) ~rkey:1 in
  Alcotest.(check int) "own report: slot 2" 1 (List.length c.reports);
  let from_1 =
    [ rep 0 b2 9 ~committed:false; rep 1 b1 10 ~committed:false;
      rep 2 b2 11 ~committed:false; rep 3 b1 12 ~committed:false;
      rep 4 b2 13 ~committed:false; rep 6 b1 14 ~committed:false ]
  and from_2 =
    [ rep 1 b2 20 ~committed:false; rep 3 b1 21 ~committed:false;
      rep 4 b1 13 ~committed:true ]
  in
  Alcotest.(check bool) "one promise is no quorum" false
    (Cmd_log.promised c ~src:1 from_1);
  Alcotest.(check bool) "two are" true (Cmd_log.promised c ~src:2 from_2);
  let adopted = ref [] in
  Cmd_log.elect i c ~adopt:(fun slot cmd ~committed ->
      adopted := (slot, cmd, committed) :: !adopted);
  let expect =
    [ (1, cmd 20, false); (3, cmd 21, false); (4, cmd 13, true);
      (5, Command.noop, false); (6, cmd 14, false) ]
  in
  Alcotest.(check bool) "adopted slots" true (List.rev !adopted = expect);
  Alcotest.(check bool) "leads" true (i.leading && i.candidacy = None);
  Alcotest.(check bool) "executed slot untouched" true
    (Command.equal (Cmd_log.command i.log 0) (cmd 0));
  Alcotest.(check bool) "committed slot untouched" true
    (Command.equal (Cmd_log.command i.log 2) (cmd 2));
  List.iter
    (fun (slot, c, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "slot %d accepted at the new ballot" slot)
        true
        (Cmd_log.get i.log slot
        = Some { Cmd_log.ballot = i.ballot; cmd = c; committed = false }))
    expect

(* Replica 1 learns, through the commit message, that slot 0 committed
   [c]; then replica 0 runs phase 1 (paxos at start, wpaxos to steal
   the key of its client's request [c']) with replica 1 in its quorum.
   Replica 0 lacks slot 0, and every P2a is lost. A wpaxos owner
   commits the reported slot as it is: it executes [c], and its only
   P2as are [c']'s, one per peer. A paxos leader proposes slot 0 again
   (two more P2as), so without that round nothing executes. *)
let committed_slot_policy (module P : Proto.PROTOCOL) ~config ~commit ~p2a
    ~executed () =
  let module S = Stub (P) in
  let c = Command.make ~id:1 ~client:1 (Command.Put (1, 10))
  and c' = Command.make ~id:2 ~client:1 (Command.Put (1, 20)) in
  let s = S.create config in
  P.on_message s.S.replicas.(1) ~src:2 (S.message_of config ~label:commit c);
  S.request s ~client:(Address.client 1) c';
  S.run ~drop:[ "P2a" ] s;
  Alcotest.(check int) "P2as sent" p2a (S.count s "P2a");
  Alcotest.(check int) "commands replica 0 executed" executed
    (Executor.executed_count (P.executor s.S.replicas.(0)))

(* ---- the flat log against a list model ------------------------------ *)

(* The reference: an association list of slot records, with accept,
   learn, commit, commit_below and execute written out as Cmd_log
   states them, and a full walk for commit_below. *)
type m_slot = {
  mutable mb : Ballot.t;
  mutable mc : Command.t;
  mutable mdone : bool;  (** committed *)
  mutable mclient : Address.t option;
}

type model = {
  mutable slots : (int * m_slot) list;
  mutable frontier : int;
  mexec : Executor.t;
  mutable mreplies : (Address.t * Command.t * Command.value option) list;
}

let m_find m s = List.assoc_opt s m.slots
let m_add m s e = m.slots <- (s, e) :: m.slots

let m_next m = List.fold_left (fun acc (s, _) -> Int.max acc (s + 1)) 0 m.slots

let m_replace e cmd =
  if not (Command.equal e.mc cmd) then e.mclient <- None;
  e.mc <- cmd

let m_accept m s ~ballot cmd =
  match m_find m s with
  | Some e when e.mdone -> false
  | Some e ->
      m_replace e cmd;
      e.mb <- ballot;
      true
  | None ->
      m_add m s { mb = ballot; mc = cmd; mdone = false; mclient = None };
      true

let m_learn m s ~ballot cmd =
  match m_find m s with
  | Some e ->
      m_replace e cmd;
      e.mdone <- true
  | None -> m_add m s { mb = ballot; mc = cmd; mdone = true; mclient = None }

let m_commit m s =
  match m_find m s with
  | Some e when not e.mdone ->
      e.mdone <- true;
      true
  | _ -> false

let m_commit_below m bound =
  let changed = ref false in
  for s = m.frontier to bound - 1 do
    if m_commit m s then changed := true
  done;
  !changed

let rec m_execute m =
  match m_find m m.frontier with
  | Some e when e.mdone ->
      m.frontier <- m.frontier + 1;
      let read = Executor.execute m.mexec e.mc in
      (match e.mclient with
      | Some c ->
          e.mclient <- None;
          m.mreplies <- (c, e.mc, read) :: m.mreplies
      | None -> ());
      m_execute m
  | _ -> ()

type op =
  | Propose of int * int * int  (** slot, ballot, command: at an unused slot *)
  | Accept of int * int * int
  | Learn of int * int * int
  | Commit of int
  | Commit_below of int
  | Execute
  | Learn_range of int * int  (** first slot, count *)

(* Slots on both sides of the first page's doublings (16, 32) and of
   the first whole page (1,024), the second page's end, and two far
   sparse slots. *)
let slot_pool =
  [| 0; 1; 2; 3; 4; 5; 6; 7; 14; 15; 16; 17; 31; 32; 33; 1022; 1023; 1024;
     1025; 1026; 2047; 2048; 2049; 5_000; 100_000 |]

let bound_pool = [| 0; 3; 8; 16; 17; 33; 1_024; 1_026; 2_050; 5_001 |]

let commands =
  Array.init 6 (fun k ->
      Command.make ~id:k ~client:(k mod 3)
        (if k mod 2 = 0 then Command.Put (k, 10 + k) else Command.Get (k - 1)))

(* rounds 0-3, owners -1..2 *)
let ballot_of b = { Ballot.round = b / 4; owner = (b mod 4) - 1 }
let range_command s = Command.make ~id:(1_000 + s) ~client:7 (Command.Put (s mod 5, s))

let show_op = function
  | Propose (s, b, c) -> Printf.sprintf "propose %d b%d c%d" s b c
  | Accept (s, b, c) -> Printf.sprintf "accept %d b%d c%d" s b c
  | Learn (s, b, c) -> Printf.sprintf "learn %d b%d c%d" s b c
  | Commit s -> Printf.sprintf "commit %d" s
  | Commit_below b -> Printf.sprintf "commit<%d" b
  | Execute -> "execute"
  | Learn_range (s, n) -> Printf.sprintf "learn [%d, %d)" s (s + n)

let gen_op =
  QCheck.Gen.(
    let slot = map (Array.get slot_pool) (int_bound (Array.length slot_pool - 1)) in
    let ballot = int_bound 15 and cmd = int_bound 5 in
    frequency
      [
        (4, map3 (fun s b c -> Propose (s, b, c)) slot ballot cmd);
        (5, map3 (fun s b c -> Accept (s, b, c)) slot ballot cmd);
        (2, map3 (fun s b c -> Learn (s, b, c)) slot ballot cmd);
        (3, map (fun s -> Commit s) slot);
        ( 3,
          map
            (fun i -> Commit_below bound_pool.(i))
            (int_bound (Array.length bound_pool - 1)) );
        (3, return Execute);
        ( 1,
          map2
            (fun s n -> Learn_range (s, n))
            (oneofl [ 0; 8; 1_000; 2_040 ])
            (oneofl [ 4; 40; 1_030 ]) );
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 60) gen_op)

let view_of (e : m_slot) =
  { Cmd_log.ballot = e.mb; cmd = e.mc; committed = e.mdone }

let log_matches_model ops =
  let replies = ref [] in
  let env =
    Proto_harness.quiet_env ~n:3 0 ~reply:(fun c (r : Proto.reply) ->
        replies := (c, r.Proto.command, r.Proto.read) :: !replies)
  in
  let log = Cmd_log.create (Executor.create ()) env in
  let m = { slots = []; frontier = 0; mexec = Executor.create (); mreplies = [] } in
  let same_slot s = Cmd_log.get log s = Option.map view_of (m_find m s) in
  let agrees () =
    Cmd_log.exec_frontier log = m.frontier
    && Cmd_log.next_slot log = m_next m
    && Array.for_all same_slot slot_pool
    && !replies = m.mreplies
  in
  let step = function
    | Propose (s, b, c) ->
        if m_find m s = None then begin
          let client = Address.client (20 + c) and ballot = ballot_of b in
          Cmd_log.propose log s ~ballot ~client commands.(c);
          m_add m s
            { mb = ballot; mc = commands.(c); mdone = false; mclient = Some client }
        end;
        true
    | Accept (s, b, c) ->
        let ballot = ballot_of b in
        Cmd_log.accept log s ~ballot commands.(c)
        = m_accept m s ~ballot commands.(c)
    | Learn (s, b, c) ->
        let ballot = ballot_of b in
        Cmd_log.learn log s ~ballot commands.(c);
        m_learn m s ~ballot commands.(c);
        true
    | Commit s -> Cmd_log.commit log s = m_commit m s
    | Commit_below b -> Cmd_log.commit_below log b = m_commit_below m b
    | Execute ->
        Cmd_log.execute log;
        m_execute m;
        true
    | Learn_range (lo, n) ->
        for s = lo to lo + n - 1 do
          Cmd_log.learn log s ~ballot:Ballot.zero (range_command s);
          m_learn m s ~ballot:Ballot.zero (range_command s)
        done;
        true
  in
  List.for_all (fun op -> step op && agrees ()) ops
  && List.rev (Cmd_log.report log ~start:0)
     = List.map
         (fun (s, e) -> (s, view_of e))
         (List.sort (fun (a, _) (b, _) -> Int.compare a b) m.slots)

let prop_matches_model =
  QCheck.Test.make ~name:"flat log matches the list model" ~count:300 arb_ops
    log_matches_model

(* A log allocates its first page only when a slot is written, and a
   log of one slot stays that small: WPaxos keeps one log per object,
   and a 1,024-slot first page costs ~2,050 words per log. Sizes are
   the words reachable from the log less its executor's. *)
let test_one_slot_log_small () =
  let exec = Executor.create () and env = Proto_harness.quiet_env ~n:3 0 in
  let log = Cmd_log.create exec env in
  let words () =
    Obj.reachable_words (Obj.repr log) - Obj.reachable_words (Obj.repr exec)
  in
  let empty = words () in
  ignore (Cmd_log.accept log 0 ~ballot:Ballot.zero commands.(0));
  let one_slot = words () in
  Alcotest.(check bool)
    (Printf.sprintf "empty log: %d words <= 48" empty)
    true (empty <= 48);
  Alcotest.(check bool)
    (Printf.sprintf "one-slot log: %d words <= 112" one_slot)
    true (one_slot <= 112)

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
      Alcotest.test_case "phase-1 merge and adoption" `Quick test_merge;
      Alcotest.test_case "paxos proposes a reported commit again" `Quick
        (committed_slot_policy
           (module Paxi_protocols.Paxos)
           ~config:{ (config 3) with Config.piggyback_commit = false }
           ~commit:"Commit" ~p2a:4 ~executed:0);
      Alcotest.test_case "wpaxos commits a reported commit" `Quick
        (committed_slot_policy
           (module Paxi_protocols.Wpaxos)
           ~config:(config 3) ~commit:"CommitK" ~p2a:2 ~executed:1);
      QCheck_alcotest.to_alcotest prop_matches_model;
      Alcotest.test_case "one-slot log stays small" `Quick
        test_one_slot_log_small;
    ] )
