(* The zone group of the hierarchical protocols: one paxos replica per
   zone member behind Zone_paxos's member-restricted environment. The
   cluster tests drive it through a tiny protocol whose replicas outside
   [members] hold no group and only count what reaches them; the stub
   tests drive two members by hand. *)

module Zp = Paxi_protocols.Zone_paxos

module Zone_proto (M : sig
  val members : int list
end) =
struct
  type message = Paxi_protocols.Paxos.message

  type replica = {
    zone : Zp.t option;
    strays : int ref; (* messages and requests that reached a non-member *)
    synced : (Command.key * Zp.committed) list ref; (* claims and records executed here *)
  }

  let name = "zone-test"
  let cpu_factor _ = 1.0
  let message_label = Paxi_protocols.Paxos.message_label

  let create (env : message Proto.env) =
    let synced = ref [] in
    let zone =
      if List.mem env.Proto.id M.members then
        Some
          (Zp.create ~env ~wrap:Fun.id ~members:M.members
             ~on_committed:(fun key c -> synced := (key, c) :: !synced)
             ~on_lead:ignore)
      else None
    in
    { zone; strays = ref 0; synced }

  let on_request t ~client request =
    match t.zone with
    | Some z -> if Zp.admit z ~client request then Zp.propose z ~client request
    | None -> incr t.strays

  let on_message t ~src m =
    match t.zone with Some z -> Zp.on_message z ~src m | None -> incr t.strays

  let on_start t = Option.iter Zp.on_start t.zone
  let on_recover t = Option.iter Zp.on_recover t.zone
  let leader_of_key t _ = Option.bind t.zone Zp.leader

  let executor t =
    match t.zone with Some z -> Zp.executor z | None -> Executor.create ()
end

module Whole = Zone_proto (struct
  let members = [ 0; 1; 2 ]
end)

module C = Cluster.Make (Whole)

let setup () =
  let config = Config.default ~n_replicas:3 in
  let cluster = C.create ~config ~topology:(Topology.lan ~n_replicas:3 ()) () in
  C.register_client cluster ~id:0 ();
  cluster

let zone_of (r : Whole.replica) = Option.get r.Whole.zone

let test_commits_on_majority () =
  let cluster = setup () in
  let got = ref None in
  C.submit cluster ~client:0 ~target:0
    ~command:(Command.make ~id:0 ~client:0 (Command.Put (1, 7)))
    ~on_reply:(fun r -> got := Some r.Proto.replier);
  Sim.run_until (C.sim cluster) 100.0;
  Alcotest.(check (option int)) "leader replied" (Some 0) !got

let test_members_execute_in_order () =
  let cluster = setup () in
  for i = 0 to 4 do
    C.submit cluster ~client:0 ~target:0
      ~command:(Command.make ~id:i ~client:0 (Command.Put (1, i)))
      ~on_reply:(fun _ -> ())
  done;
  (* followers learn the last commits from the next heartbeat *)
  Sim.run_until (C.sim cluster) 1_000.0;
  let order m =
    State_machine.applied
      (Executor.state_machine (Whole.executor (C.replica cluster m)))
    |> List.map (fun (c : Command.t) -> c.Command.id)
  in
  let reference = order 0 in
  Alcotest.(check (list int)) "all ids present" [ 0; 1; 2; 3; 4 ]
    (List.sort compare reference);
  for m = 1 to 2 do
    Alcotest.(check (list int))
      (Printf.sprintf "member %d same order" m)
      reference (order m)
  done

let test_follower_forwards_to_leader () =
  let cluster = setup () in
  Sim.run_until (C.sim cluster) 10.0;
  let follower = zone_of (C.replica cluster 1) in
  Alcotest.(check bool) "not leader" false (Zp.is_leader follower);
  Alcotest.(check (option int)) "knows the leader" (Some 0) (Zp.leader follower);
  let got = ref None in
  C.submit cluster ~client:0 ~target:1
    ~command:(Command.make ~id:0 ~client:0 (Command.Put (2, 2)))
    ~on_reply:(fun r -> got := Some r.Proto.replier);
  Sim.run_until (C.sim cluster) 100.0;
  Alcotest.(check (option int)) "the leader, not the follower, replied" (Some 0) !got

(* A record handed in before phase 1 completes waits in paxos's queue,
   executes once the member leads, and reaches [on_committed]. A
   zone-internal command is named by its object, generation and step,
   so a repeated call applies once and a new generation applies again;
   a take re-commits the value before its claim, and a give claims the
   generation back. *)
let test_synthetic_commands () =
  let cluster = setup () in
  let sim = C.sim cluster in
  (* time-0 events: replica 0 has sent its P1a and awaits promises *)
  Sim.run_until sim 0.0;
  let r0 = C.replica cluster 0 in
  let z = zone_of r0 in
  Alcotest.(check bool) "phase 1 pending" false (Zp.is_leader z);
  Zp.record z 3 ~gen:0 3;
  Sim.run_until sim 100.0;
  Alcotest.(check bool) "leader" true (Zp.is_leader z);
  Alcotest.(check bool) "reply intercepted" true (!(r0.Whole.synced) = [ (3, Zp.Record 3) ]);
  Alcotest.(check (option int)) "recorded" (Some 3) (Zp.recorded z 3);
  Zp.record z 3 ~gen:0 4;
  Sim.run_until sim 200.0;
  Alcotest.(check (option int)) "same name applies once" (Some 3) (Zp.recorded z 3);
  Zp.record z 3 ~gen:1 4;
  Zp.take z 7 ~gen:1 (Some 70);
  Sim.run_until sim 300.0;
  Alcotest.(check (option int)) "new name applies" (Some 4) (Zp.recorded z 3);
  Alcotest.(check (option int)) "value taken over" (Some 70) (Zp.value z 7);
  Alcotest.(check (option int)) "claims generation 1" (Some 3) (Zp.claim z 7);
  Alcotest.(check (list int)) "taken" [ 7 ] (Zp.taken z);
  Zp.give z 7 ~gen:1;
  Sim.run_until sim 400.0;
  Alcotest.(check (option int)) "gave generation 1 away" (Some 2) (Zp.claim z 7);
  Alcotest.(check (list int)) "nothing taken" [] (Zp.taken z);
  Alcotest.(check bool) "claims reported in order" true
    (List.filter (fun (k, _) -> k = 7) !(r0.Whole.synced) = [ (7, Zp.Claim 2); (7, Zp.Claim 3) ])

(* A member that committed a record crashes and recovers from its disk
   as a fresh instance, then records the object's next generation as a
   follower: the names carry over the crash, so the new
   command is not mistaken for the old one, and it reaches every
   member through the new leader. A new leader also leads only once it
   has executed the earlier term's slots. *)
let test_names_survive_recovery () =
  let faults = Faults.create () in
  Faults.crash faults ~node:(Address.replica 0) ~from_ms:200.0 ~duration_ms:1_000.0;
  let config =
    {
      (Config.default ~n_replicas:3) with
      Config.storage = Some Storage.default_config;
      retransmit = Some { Config.base_ms = 40.0; max_ms = 320.0; max_tries = 25 };
    }
  in
  let cluster = C.create ~faults ~config ~topology:(Topology.lan ~n_replicas:3 ()) () in
  let sim = C.sim cluster in
  Sim.run_until sim 50.0;
  Zp.record (zone_of (C.replica cluster 0)) 1 ~gen:0 1;
  Sim.run_until sim 5_000.0;
  let z0 = zone_of (C.replica cluster 0) in
  Alcotest.(check bool) "recovered member follows" false (Zp.is_leader z0);
  let new_leader = zone_of (C.replica cluster 1) in
  Alcotest.(check bool) "next member leads" true (Zp.is_leader new_leader);
  Alcotest.(check (option int)) "new leader executed the old term" (Some 1)
    (Zp.recorded new_leader 1);
  Zp.record z0 1 ~gen:1 2;
  Sim.run_until sim 6_000.0;
  List.iter
    (fun m ->
      Alcotest.(check (option int))
        (Printf.sprintf "member %d applied the new value" m)
        (Some 2)
        (Zp.recorded (zone_of (C.replica cluster m)) 1))
    [ 0; 1; 2 ]

let test_single_member_group () =
  let module Solo = Zone_proto (struct
    let members = [ 0 ]
  end) in
  let module C1 = Cluster.Make (Solo) in
  let config = Config.default ~n_replicas:1 in
  let cluster = C1.create ~config ~topology:(Topology.lan ~n_replicas:1 ()) () in
  C1.register_client cluster ~id:0 ();
  let got = ref false in
  C1.submit cluster ~client:0 ~target:0
    ~command:(Command.make ~id:0 ~client:0 (Command.Put (1, 1)))
    ~on_reply:(fun _ -> got := true);
  Sim.run_until (C1.sim cluster) 50.0;
  Alcotest.(check bool) "solo commit" true !got

(* ---- stub members ------------------------------------------------- *)

type outer = Z of Paxi_protocols.Paxos.message | Token

(* One member's environment over [sim]: every send lands in [outbox] as
   (destination, message), and the reliable layer only logs which keys
   were withdrawn and whether [unpost_all] ran. *)
let stub_env sim ~id ~n =
  let outbox = ref [] and settled = ref [] and unposts = ref 0 in
  let next_key = ref 0 in
  let fresh () =
    incr next_key;
    !next_key
  in
  let push dsts m = List.iter (fun d -> outbox := (d, m) :: !outbox) dsts in
  let others = List.filter (fun d -> d <> id) (List.init n Fun.id) in
  let post ?key dsts m =
    push dsts m;
    match key with Some k -> k | None -> fresh ()
  in
  let env =
    {
      Proto.id;
      n;
      config = Config.default ~n_replicas:n;
      topology = Topology.lan ~n_replicas:n ();
      rng = Rng.create ~seed:0;
      now = (fun () -> Sim.now sim);
      clock = Proto.sim_clock sim ~id;
      schedule = (fun delay f -> Sim.schedule_after sim ~delay f);
      cancel = (fun h -> Sim.cancel sim h);
      send = (fun d m -> push [ d ] m);
      broadcast = (fun m -> push others m);
      multicast = (fun ds m -> push ds m);
      send_sized = (fun d ~size_bytes:_ m -> push [ d ] m);
      broadcast_sized = (fun ~size_bytes:_ m -> push others m);
      multicast_sized = (fun ds ~size_bytes:_ m -> push ds m);
      reply = (fun _ _ -> ());
      forward = (fun _ ~client:_ _ -> ());
      rel =
        {
          Proto.active = true;
          fresh;
          post = (fun ?key ?size_bytes:_ ~ack:_ d m -> post ?key [ d ] m);
          post_multi = (fun ?key ?size_bytes:_ ~ack:_ ds m -> post ?key ds m);
          post_all = (fun ?key ?size_bytes:_ ~ack:_ m -> post ?key others m);
          settle = (fun ~dst:_ ~key:_ -> ());
          settle_all = (fun ~key -> settled := key :: !settled);
          unpost_all = (fun () -> incr unposts);
        };
      obs = Proto.null_obs;
      storage = None;
    }
  in
  (env, outbox, settled, unposts)

let stub_member env =
  Zp.create ~env ~wrap:(fun m -> Z m) ~members:[ 0; 1; 2 ]
    ~on_committed:(fun _ _ -> ()) ~on_lead:ignore

(* the last zone message [outbox] holds for [dst] *)
let last_to outbox dst =
  List.find_map
    (function d, Z m when d = dst -> Some m | _ -> None)
    !outbox
  |> Option.get

let test_self_must_be_member () =
  let env, _, _, _ = stub_env (Sim.create ()) ~id:0 ~n:3 in
  Alcotest.check_raises "replica outside members"
    (Invalid_argument "Zone_paxos.create: replica not in members") (fun () ->
      ignore
        (Zp.create ~env ~wrap:(fun m -> Z m) ~members:[ 1; 2 ]
           ~on_committed:(fun _ _ -> ()) ~on_lead:ignore))

(* Member 0 runs for leadership, member 2 later runs with a higher
   ballot and refuses 0's P1a; the refusal makes 0 step down. Its
   paxos withdraws the P1a it was retransmitting, and nothing else: the
   token grant the enclosing protocol posted stays in place. *)
let test_step_down_keeps_outer_posts () =
  let sim = Sim.create () in
  let env0, out0, settled0, unposts0 = stub_env sim ~id:0 ~n:3 in
  let env2, out2, _, _ = stub_env sim ~id:2 ~n:3 in
  let z0 = stub_member env0 and z2 = stub_member env2 in
  let token = env0.Proto.rel.Proto.post ~ack:Reliable.Explicit 1 Token in
  Zp.on_start z0;
  Zp.on_start z2;
  let p1a = last_to out0 2 in
  Alcotest.(check string) "0 solicits promises" "P1a"
    (Paxi_protocols.Paxos.message_label p1a);
  (* 2 hears nothing and times out *)
  Sim.run_until sim 3_100.0;
  Zp.on_message z2 ~src:0 p1a;
  let refusal = last_to out2 0 in
  Alcotest.(check string) "2 refuses" "P1b"
    (Paxi_protocols.Paxos.message_label refusal);
  Zp.on_message z0 ~src:2 refusal;
  Alcotest.(check int) "enclosing unpost_all never called" 0 !unposts0;
  Alcotest.(check bool) "P1a withdrawn" true (!settled0 <> []);
  Alcotest.(check bool) "token post left in place" false (List.mem token !settled0)

(* Member 0 leads and commits a zone-internal command with member 1's
   vote, but member 1 never learns the commit. Member 1 then takes over
   through member 2: paxos makes it leader as soon as phase 1 completes,
   but until the command it recovered has executed its store lacks it,
   so it does not lead yet. *)
let test_new_leader_catches_up () =
  let sim = Sim.create () in
  let stub id =
    let env, out, _, _ = stub_env sim ~id ~n:3 in
    (stub_member env, out)
  in
  let (z0, out0), (z1, out1), (z2, out2) = (stub 0, stub 1, stub 2) in
  let label = Paxi_protocols.Paxos.message_label in
  Zp.on_start z0;
  Zp.on_start z1;
  Zp.on_start z2;
  Zp.on_message z1 ~src:0 (last_to out0 1);
  Zp.on_message z0 ~src:1 (last_to out1 0);
  Alcotest.(check bool) "0 leads" true (Zp.is_leader z0);
  Zp.record z0 5 ~gen:0 5;
  Zp.on_message z1 ~src:0 (last_to out0 1);
  Alcotest.(check string) "1 accepted" "P2b" (label (last_to out1 0));
  (* 0 falls silent; 1 times out and runs for leadership through 2 *)
  Sim.run_until sim 2_600.0;
  Alcotest.(check string) "1 runs" "P1a" (label (last_to out1 2));
  Zp.on_message z2 ~src:1 (last_to out1 2);
  Zp.on_message z1 ~src:2 (last_to out2 1);
  Alcotest.(check (option int)) "recovered command not executed yet" None (Zp.recorded z1 5);
  Alcotest.(check bool) "1 does not lead before catching up" false (Zp.is_leader z1);
  Alcotest.(check (option int)) "no leader known meanwhile" None (Zp.leader z1);
  Zp.on_message z2 ~src:1 (last_to out1 2);
  Zp.on_message z1 ~src:2 (last_to out2 1);
  Alcotest.(check (option int)) "recovered command executed" (Some 5) (Zp.recorded z1 5);
  Alcotest.(check bool) "1 leads" true (Zp.is_leader z1)

(* ---- a zone inside a larger cluster ------------------------------- *)

module Inner = Zone_proto (struct
  let members = [ 3; 4; 5 ]
end)

module C9 = Cluster.Make (Inner)

let nine ?faults () =
  let config =
    {
      (Config.default ~n_replicas:9) with
      Config.retransmit = Some { Config.base_ms = 40.0; max_ms = 320.0; max_tries = 25 };
    }
  in
  let cluster =
    C9.create ?faults ~config ~topology:(Topology.lan ~n_replicas:9 ()) ()
  in
  C9.register_client cluster ~id:0 ();
  cluster

let test_never_sends_to_non_members () =
  (* the zone's first leader stalls for 3 s, past the next member's
     failover timeout, so the zone also runs a second phase 1,
     retransmitted posts and a step-down *)
  let faults = Faults.create () in
  Faults.crash faults ~node:(Address.replica 3) ~from_ms:200.0 ~duration_ms:3_000.0;
  let cluster = nine ~faults () in
  let replies = ref 0 in
  for i = 0 to 19 do
    ignore
      (Sim.schedule_at (C9.sim cluster) ~time:(float_of_int i *. 250.0) (fun () ->
           C9.submit cluster ~client:0 ~target:(3 + (i mod 3))
             ~command:(Command.make ~id:i ~client:0 (Command.Put (i, i)))
             ~on_reply:(fun _ -> incr replies)))
  done;
  Sim.run_until (C9.sim cluster) 10_000.0;
  Alcotest.(check bool) "zone committed" true (!replies > 0);
  Alcotest.(check bool) "leadership moved" true
    (Zp.is_leader (Option.get (C9.replica cluster 4).Inner.zone)
    || Zp.is_leader (Option.get (C9.replica cluster 5).Inner.zone));
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "nothing reached non-member %d" i)
        0 !((C9.replica cluster i).Inner.strays))
    [ 0; 1; 2; 6; 7; 8 ]

let test_replies_carry_global_ids () =
  let cluster = nine () in
  let got = ref [] in
  List.iteri
    (fun i target ->
      C9.submit cluster ~client:0 ~target
        ~command:(Command.make ~id:i ~client:0 (Command.Put (1, i)))
        ~on_reply:(fun r -> got := (r.Proto.replier, r.Proto.leader_hint) :: !got))
    [ 3; 4 ];
  Sim.run_until (C9.sim cluster) 100.0;
  Alcotest.(check (list (pair int (option int))))
    "replier and hint are global" [ (3, Some 3); (3, Some 3) ] !got

let suite =
  ( "group",
    [
      Alcotest.test_case "commits on majority" `Quick test_commits_on_majority;
      Alcotest.test_case "members execute in order" `Quick test_members_execute_in_order;
      Alcotest.test_case "follower forwards to leader" `Quick test_follower_forwards_to_leader;
      Alcotest.test_case "synthetic commands" `Quick test_synthetic_commands;
      Alcotest.test_case "frontier tracking" `Quick test_names_survive_recovery;
      Alcotest.test_case "single-member group" `Quick test_single_member_group;
      Alcotest.test_case "self must be member" `Quick test_self_must_be_member;
      Alcotest.test_case "step-down keeps outer posts" `Quick test_step_down_keeps_outer_posts;
      Alcotest.test_case "new leader catches up first" `Quick test_new_leader_catches_up;
      Alcotest.test_case "never sends to non-members" `Quick test_never_sends_to_non_members;
      Alcotest.test_case "replies carry global ids" `Quick test_replies_carry_global_ids;
    ] )
