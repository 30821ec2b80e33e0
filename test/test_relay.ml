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

(* ------------------------------------------------------------------ *)
(* The layer against a stub env                                        *)
(* ------------------------------------------------------------------ *)

(* What a stub replica sends: the combined ack ([key], its bitmap) or
   a fanned round. *)
type stub_msg = Ack of { key : int; bits : int } | Round of int

type stub = {
  sim : Sim.t;
  relay : stub_msg Relay.t;
  sent : (int * stub_msg) list ref;  (** newest first *)
  hops : int ref;  (** [obs.on_relay] calls *)
}

let stub ?(id = 1) ~n ~r () =
  let sim = Sim.create () in
  let sent = ref [] and hops = ref 0 in
  let send dst m = sent := (dst, m) :: !sent in
  let env =
    {
      Proto.id;
      n;
      config = { (Config.default ~n_replicas:n) with Config.relay_groups = r };
      topology = Topology.lan ~n_replicas:n ();
      rng = Rng.create ~seed:0;
      now = (fun () -> Sim.now sim);
      clock = Proto.sim_clock sim ~id;
      schedule = (fun delay f -> Sim.schedule_after sim ~delay f);
      cancel = (fun h -> Sim.cancel sim h);
      send;
      broadcast = (fun _ -> ());
      multicast = (fun _ _ -> ());
      send_sized = (fun dst ~size_bytes:_ m -> send dst m);
      broadcast_sized = (fun ~size_bytes:_ _ -> ());
      multicast_sized = (fun _ ~size_bytes:_ _ -> ());
      reply = (fun _ _ -> ());
      forward = (fun _ ~client:_ _ -> ());
      rel = Proto.null_rel ();
      obs =
        {
          Proto.null_obs with
          Proto.active = true;
          on_relay = (fun ~start_ms:_ ~end_ms:_ -> incr hops);
        };
      storage = None;
    }
  in
  let relay =
    Relay.create env ~ack:(fun key (a : Relay.agg) ->
        Ack { key; bits = a.Relay.a_bits })
  in
  { sim; relay; sent; hops }

let take s =
  let l = List.rev !(s.sent) in
  s.sent := [];
  l

(* The gen-0 plan of leader 0 at n = 9, r = 2: replica 1 relays for
   [1; 2; 3; 4]. *)
let group_of_1 s = (Relay.plan s.relay ~leader:0 ~gen:0).Relay.groups.(0)

let start_round ?(key = 10) ?(aux = 1) ?(mark = 0) s =
  Relay.start s.relay ~key ~leader:0 ~gen:0 ~tag:3 ~aux ~mark ~size_bytes:64
    (Round key)

(* The relay's own vote on a record, as a protocol casts it once its
   accept is durable. *)
let own s (a : Relay.agg) = Relay.own s.relay a a.Relay.a_epoch

(* A started round with the relay's own vote cast. *)
let start_voted ?key ?aux ?mark s =
  let a = start_round ?key ?aux ?mark s in
  own s a;
  a

let record s key =
  let a = Relay.lookup s.relay key in
  if a == Relay.agg_nil then Alcotest.fail "no relay record" else a

let test_plan_cache_reuses () =
  let s = stub ~n:49 ~r:6 () in
  let a = Relay.plan s.relay ~leader:3 ~gen:7 in
  let b = Relay.plan s.relay ~leader:3 ~gen:7 in
  Alcotest.(check bool) "cache hit is physical" true (a == b)

(* Leader 1024 at gen 0 and leader 0 at gen 1 must not share a cache
   entry (a [(gen lsl 10) lor leader] key aliases them): a wrong plan
   places the leader in a group and credits acks to the wrong
   replicas. *)
let test_plan_cache_exact_keys () =
  let n = 1100 and r = 18 in
  let s = stub ~n ~r () in
  ignore (Relay.plan s.relay ~leader:0 ~gen:1);
  let p = Relay.plan s.relay ~leader:1024 ~gen:0 in
  Alcotest.(check int) "leader 1024 in no group" (-1) p.Relay.group_of.(1024);
  Alcotest.(check bool) "equals compute" true
    (p = Relay.compute ~n ~leader:1024 ~r ~gen:0)

let test_bitmap_exact () =
  Alcotest.(check int) "full_mask 1" 1 (Relay.full_mask 1);
  Alcotest.(check int) "full_mask 5" 31 (Relay.full_mask 5);
  Alcotest.(check int) "full_mask 62" ((1 lsl 62) - 1) (Relay.full_mask 62);
  let s = stub ~n:9 ~r:2 () in
  let group = group_of_1 s in
  Alcotest.(check (array int)) "relay 1's group" [| 1; 2; 3; 4 |] group;
  let a = start_round s in
  Alcotest.(check bool) "relay starts" true (a == record s 10);
  Alcotest.(check int) "no bit before the own vote" 0 a.Relay.a_bits;
  own s a;
  Alcotest.(check int) "self bit" 1 a.Relay.a_bits;
  ignore (take s);
  Relay.absorb s.relay a ~src:2;
  Relay.absorb s.relay a ~src:2;
  Alcotest.(check int) "absorb idempotent" 3 a.Relay.a_bits;
  Relay.absorb s.relay a ~src:3;
  Alcotest.(check bool) "partial sends nothing" true (take s = []);
  Relay.absorb s.relay a ~src:4;
  Alcotest.(check bool) "full bitmap sends one full ack" true
    (take s = [ (0, Ack { key = 10; bits = 15 }) ]);
  Alcotest.(check int) "hop traced" 1 !(s.hops);
  Alcotest.(check bool) "covers" true (Relay.covers group ~bits:15);
  Alcotest.(check bool) "partial does not cover" false
    (Relay.covers group ~bits:7);
  Relay.drop s.relay a;
  let b = start_round ~key:11 s in
  Alcotest.(check bool) "pool recycles records" true (b == a && record s 11 == a);
  Alcotest.(check int) "recycled bits cleared" 0 a.Relay.a_bits

(* Starting a round fans it to the group minus self and arms a flush;
   a duplicate on a complete record resends the full ack only. *)
let test_duplicate_complete () =
  let s = stub ~n:9 ~r:2 () in
  let a = start_voted s in
  Alcotest.(check bool) "fan to members" true
    (take s = [ (2, Round 10); (3, Round 10); (4, Round 10) ]);
  List.iter (fun src -> Relay.absorb s.relay a ~src) [ 2; 3; 4 ];
  ignore (take s);
  Relay.resend s.relay a ~size_bytes:64 (Round 10);
  Alcotest.(check bool) "full ack resent, no re-fan" true
    (take s = [ (0, Ack { key = 10; bits = 15 }) ])

let test_duplicate_incomplete () =
  let s = stub ~n:9 ~r:2 () in
  let a = start_voted s in
  Relay.absorb s.relay a ~src:3;
  ignore (take s);
  Relay.resend s.relay a ~size_bytes:64 (Round 10);
  Alcotest.(check bool) "re-fan only to clear bits" true
    (take s = [ (2, Round 10); (4, Round 10) ])

(* The flush timer reports the bits so far and re-arms while the
   protocol counts the record current; once it does not, the record is
   dropped and recycled. *)
let test_partial_flush () =
  let s = stub ~n:9 ~r:2 () in
  let current = ref true in
  Relay.set_current s.relay (fun _ -> !current);
  let a = start_voted s in
  Relay.absorb s.relay a ~src:2;
  ignore (take s);
  let flush_ms = Relay.fallback_ms s.relay in
  Sim.run_until s.sim (flush_ms +. 0.001);
  Alcotest.(check bool) "partial ack flushed" true
    (take s = [ (0, Ack { key = 10; bits = 3 }) ]);
  Sim.run_until s.sim ((2.0 *. flush_ms) +. 0.001);
  Alcotest.(check bool) "re-armed and flushed again" true
    (take s = [ (0, Ack { key = 10; bits = 3 }) ]);
  current := false;
  Sim.run_until s.sim ((3.0 *. flush_ms) +. 0.001);
  Alcotest.(check bool) "stale record sends nothing" true (take s = []);
  Alcotest.(check bool) "stale record dropped" true
    (Relay.lookup s.relay 10 == Relay.agg_nil);
  Sim.run_until s.sim (10.0 *. flush_ms);
  Alcotest.(check bool) "no timer left" true (take s = []);
  ignore (start_round ~key:11 s);
  Alcotest.(check bool) "dropped record recycled" true (record s 11 == a)

(* Past 128 records, starting a round prunes exactly the records with
   [key + aux <= mark]. *)
let test_prune_below_mark () =
  let s = stub ~n:9 ~r:2 () in
  for k = 0 to 128 do
    ignore (start_round ~key:(k * 2) ~aux:2 ~mark:0 s)
  done;
  Alcotest.(check bool) "nothing pruned at mark 0" true
    (Relay.lookup s.relay 0 != Relay.agg_nil);
  ignore (start_round ~key:1000 ~aux:2 ~mark:101 s);
  for k = 0 to 128 do
    let key = k * 2 in
    Alcotest.(check bool)
      (Printf.sprintf "record %d kept iff %d + 2 > 101" key key)
      (key + 2 > 101)
      (Relay.lookup s.relay key != Relay.agg_nil)
  done;
  Alcotest.(check bool) "new record kept" true
    (Relay.lookup s.relay 1000 != Relay.agg_nil)

let test_absorb_non_member () =
  let s = stub ~n:9 ~r:2 () in
  let a = start_voted s in
  ignore (take s);
  Relay.absorb s.relay a ~src:7;
  Relay.absorb s.relay a ~src:0;
  Alcotest.(check int) "bitmap untouched" 1 a.Relay.a_bits;
  Alcotest.(check bool) "nothing sent" true (take s = [])

(* A replica that is no relay under the plan starts nothing. *)
let test_start_not_relay () =
  let s = stub ~id:2 ~n:9 ~r:2 () in
  Alcotest.(check bool) "member declines" true (start_round s == Relay.agg_nil);
  Alcotest.(check bool) "no record" true (Relay.lookup s.relay 10 == Relay.agg_nil);
  Alcotest.(check bool) "nothing sent" true (take s = [])

(* The own vote counts only for the use of the record it was cast
   for: a vote that outlives its round (the record dropped and reused
   for the next one) sets no bit. *)
let test_own_vote_epoch () =
  let s = stub ~n:9 ~r:2 () in
  let a = start_round s in
  let stale = a.Relay.a_epoch in
  Relay.drop s.relay a;
  Relay.own s.relay a stale;
  Alcotest.(check int) "dropped record takes no vote" 0 a.Relay.a_bits;
  let b = start_round ~key:11 s in
  Alcotest.(check bool) "record reused" true (b == a);
  Relay.own s.relay b stale;
  Alcotest.(check int) "earlier round's vote misses the reuse" 0 b.Relay.a_bits;
  own s b;
  Alcotest.(check int) "current vote counts" 1 b.Relay.a_bits

(* A relay whose group is itself alone arms no flush and fans nothing:
   its own vote completes the round and sends the full ack. *)
let test_group_of_one () =
  let s = stub ~n:3 ~r:2 () in
  let a = start_round s in
  Alcotest.(check (array int)) "relay 1 alone" [| 1 |] a.Relay.a_group;
  Alcotest.(check bool) "nothing before the own vote" true (take s = []);
  Alcotest.(check bool) "no flush armed" true (Sim.is_nil a.Relay.a_flush);
  own s a;
  Alcotest.(check bool) "own vote sends the full ack" true
    (take s = [ (0, Ack { key = 10; bits = 1 }) ]);
  Alcotest.(check int) "hop traced" 1 !(s.hops)

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

(* Every replica keeps applying. The consensus check accepts an empty
   history as a prefix of any other, so a replica that stopped applying
   would pass it; here every replica's applied count must stay within
   one command per closed-loop client of the furthest one (the commands
   still in flight when the run stops), on a fault-free run long
   enough that the bound is a small share of what was applied. *)
let test_paxos_relay_every_replica_applies () =
  let n = 13 and clients = 32 in
  let replicas = ref [] in
  let module P = struct
    include Paxi_protocols.Paxos

    let create env =
      let r = create env in
      replicas := r :: !replicas;
      r
  end in
  let spec =
    Runner.spec ~warmup_ms:100.0 ~duration_ms:300.0 ~cooldown_ms:50.0
      ~config:{ (relay_config ~r:3 n) with Config.seed = 5 }
      ~topology:(Topology.lan ~n_replicas:n ())
      ~client_specs:
        [
          Runner.clients ~target:Runner.Round_robin ~count:clients
            Workload.default;
        ]
      ()
  in
  let res = Runner.run (module P) spec in
  let counts =
    List.map
      (fun r -> State_machine.applied_count (Executor.state_machine (P.executor r)))
      !replicas
  in
  let most = List.fold_left Int.max 0 counts
  and least = List.fold_left Int.min max_int counts in
  Alcotest.(check int) "one instance per replica" n (List.length counts);
  Alcotest.(check bool)
    (Printf.sprintf "%d applied at most, %d completed" most res.Runner.completed)
    true
    (most >= 20 * clients);
  Alcotest.(check bool)
    (Printf.sprintf "applied spread %d <= %d clients" (most - least) clients)
    true
    (most - least <= clients)

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
(* Durable votes: every relayed ack waits for its disk                 *)
(* ------------------------------------------------------------------ *)

(* Only the replicas in [Disks.ids] write to a device, a slow
   [Sync_every] one; the rest write to the volatile device and ack at
   once. At n = 9, r = 2 the gen-0 plan of leader 0 has relays 1 and 5
   over members 2-4 and 6-8. *)
let slow_fsync_ms = 10.0

module Disks (P : Proto.RUNNABLE) (Ids : sig
  val ids : int list
end) =
struct
  include P

  let create (env : message Proto.env) =
    create
      (if List.mem env.Proto.id Ids.ids then env
       else { env with Proto.storage = None })
end

let durable_relay_config () =
  {
    (relay_config ~tracing:true ~r:2 9) with
    Config.storage =
      Some
        {
          Storage.default_config with
          Storage.sync_mode = Storage.Sync_every;
          fsync_ms = slow_fsync_ms;
        };
  }

(* A relay hop runs from the round reaching the relay to its full ack
   leaving. With the disks on [ids] and every other replica acking at
   once, each hop must last at least one fsync: the full ack carries a
   bit that waited for a disk. A bit set before its accept is durable
   (the relay's own at [Relay.start], or a fanned member's reply sent
   at once) completes the hop in about a LAN round trip. *)
let check_hops_wait_for_disk (module P : Proto.RUNNABLE) ~ids ~warmup_ms =
  let module H =
    Proto_harness.Make
      (Disks
         (P)
         (struct
           let ids = ids
         end))
  in
  let h = H.lan ~config:(durable_relay_config ()) ~n:9 () in
  H.run_for h warmup_ms;
  List.iter
    (fun i ->
      Alcotest.(check int) "committed" 1 (List.length (H.submit_seq h [ put i i ]));
      H.run_for h 100.0)
    [ 1; 2; 3 ];
  let trace = H.C.trace h.H.cluster in
  let hops = Trace.relay_hop_ms trace in
  Alcotest.(check bool)
    (Printf.sprintf "%s: hops aggregated (%d)" P.name (Stats.count hops))
    true
    (Stats.count hops >= 6);
  Alcotest.(check bool)
    (Printf.sprintf "%s: shortest hop %.3f ms waits for a %.0f ms fsync"
       P.name (Stats.min hops) slow_fsync_ms)
    true
    (Stats.min hops >= slow_fsync_ms);
  H.assert_consistent h

(* Disks on the relays only: the hop waits for the relay's own vote. *)
let test_relay_own_vote_durable () =
  check_hops_wait_for_disk (module Paxi_protocols.Paxos) ~ids:[ 1; 5 ]
    ~warmup_ms:200.0;
  check_hops_wait_for_disk (module Paxi_protocols.Raft) ~ids:[ 1; 5 ]
    ~warmup_ms:1_000.0

(* Disks on the members only: a fanned member acks its relay exactly as
   a direct follower acks the leader, after its fsync. *)
let test_fanned_member_durable () =
  let members = [ 2; 3; 4; 6; 7; 8 ] in
  check_hops_wait_for_disk (module Paxi_protocols.Paxos) ~ids:members
    ~warmup_ms:200.0;
  check_hops_wait_for_disk (module Paxi_protocols.Raft) ~ids:members
    ~warmup_ms:1_000.0

(* ------------------------------------------------------------------ *)
(* relay_groups = 0 stays byte-identical to the direct path            *)
(* ------------------------------------------------------------------ *)

let pin_spec ?faults protocol ~r =
  let config =
    { (Config.default ~n_replicas:5) with Config.seed = 77; relay_groups = r }
  in
  let spec =
    Runner.spec ~warmup_ms:200.0 ~duration_ms:1_000.0 ?faults ~config
      ~topology:(Topology.lan ~n_replicas:5 ())
      ~client_specs:
        [
          Runner.clients ~target:(Runner.Fixed 0) ~count:8
            { Workload.default with Workload.write_ratio = 1.0 };
        ]
      ()
  in
  Runner.run (Paxi_protocols.Registry.find_exn protocol) spec

(* Replicas 1 and 2 down over [500, 900) ms: at r = 2 this drives the
   paxos relay fallback and both protocols' partial flushes. *)
let crash_two f =
  List.iter
    (fun i ->
      Faults.crash f ~node:(Address.replica i) ~from_ms:500.0
        ~duration_ms:400.0)
    [ 1; 2 ]

(* Fixed-seed event-count pins for the direct path with the relay code
   compiled in but off. A drift here means relay_groups = 0 perturbed
   the legacy simulation — the cross-PR identity the CI perf-smoke
   baseline also gates. The relay-on pins hold the relay layer itself
   to the same event stream, fault-free and through relay crashes.
   Each pin is the two-event delivery's count less its arrival events
   (one per message that reached its destination's network edge):
   199,753 - 99,840, 200,426 - 100,166, 138,893 - 69,410,
   152,626 - 76,266, 134,500 - 67,134 and 141,926 - 70,911. *)
let test_relay_zero_pins () =
  let paxos = pin_spec "paxos" ~r:0 in
  let raft = pin_spec "raft" ~r:0 in
  Alcotest.(check int) "paxos sim_events pinned" 99_913
    paxos.Runner.sim_events;
  Alcotest.(check int) "raft sim_events pinned" 100_260 raft.Runner.sim_events;
  (* and with relays on, the same workload still completes cleanly *)
  let relay = pin_spec "paxos" ~r:2 in
  Alcotest.(check bool) "relay run progresses" true
    (relay.Runner.completed > 500);
  Alcotest.(check int) "relay run consensus clean" 0
    (List.length relay.Runner.consensus_violations);
  let events ?faults protocol =
    (pin_spec ?faults protocol ~r:2).Runner.sim_events
  in
  Alcotest.(check int) "paxos r=2 sim_events pinned" 69_483 (events "paxos");
  Alcotest.(check int) "raft r=2 sim_events pinned" 76_360 (events "raft");
  Alcotest.(check int) "paxos r=2 crash sim_events pinned" 67_366
    (events ~faults:crash_two "paxos");
  Alcotest.(check int) "raft r=2 crash sim_events pinned" 71_015
    (events ~faults:crash_two "raft")

let suite =
  ( "relay",
    [
      Alcotest.test_case "plan partition exact" `Quick
        test_plan_partition_exact;
      Alcotest.test_case "plan rotation covers" `Quick
        test_plan_rotation_covers;
      Alcotest.test_case "plan cache reuses" `Quick test_plan_cache_reuses;
      Alcotest.test_case "plan cache keys exact" `Quick
        test_plan_cache_exact_keys;
      Alcotest.test_case "bitmap exact" `Quick test_bitmap_exact;
      Alcotest.test_case "duplicate on complete record" `Quick
        test_duplicate_complete;
      Alcotest.test_case "duplicate on incomplete record" `Quick
        test_duplicate_incomplete;
      Alcotest.test_case "partial flush" `Quick test_partial_flush;
      Alcotest.test_case "prune below mark" `Quick test_prune_below_mark;
      Alcotest.test_case "absorb ignores non-members" `Quick
        test_absorb_non_member;
      Alcotest.test_case "start declines off-plan" `Quick test_start_not_relay;
      Alcotest.test_case "own vote needs its epoch" `Quick test_own_vote_epoch;
      Alcotest.test_case "group of one acks on its own vote" `Quick
        test_group_of_one;
      Alcotest.test_case "paxos relay commits" `Quick
        test_paxos_relay_commits;
      Alcotest.test_case "raft relay commits" `Quick test_raft_relay_commits;
      Alcotest.test_case "every replica applies (paxos relay)" `Quick
        test_paxos_relay_every_replica_applies;
      Alcotest.test_case "paxos relay at n=25" `Slow test_paxos_relay_big_n;
      Alcotest.test_case "paxos relay crash fallback" `Slow
        test_paxos_relay_crash;
      Alcotest.test_case "raft relay crash fallback" `Slow
        test_raft_relay_crash;
      Alcotest.test_case "relay own vote waits for its fsync" `Quick
        test_relay_own_vote_durable;
      Alcotest.test_case "fanned member waits for its fsync" `Quick
        test_fanned_member_durable;
      Alcotest.test_case "relay_groups=0 pins" `Slow test_relay_zero_pins;
    ] )
