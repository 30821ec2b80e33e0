open Paxi_benchmark

type profile = {
  kinds : Schedule.kinds;  (** fault kinds this protocol must survive *)
  n : int;  (** cluster size the trial uses *)
  zoned : bool;  (** three-zone topology (multi-leader families) *)
  global_consensus : bool;
      (** whether the cross-replica consensus check applies — zone- or
          coordinator-scoped protocols keep deliberately divergent
          per-node state *)
}

(* What each family is expected to survive, matched to the recovery
   machinery its implementation actually has (each row validated
   empirically against randomized campaigns; see DESIGN.md):

   - paxos/fpaxos: heartbeat-driven failover plus reliable-delivery
     retransmission of phase-1/phase-2 posts — full matrix.
   - raft: elections, next_index-driven AppendEntries catch-up, and
     reliably-posted appends — full matrix.
   - epaxos: [watch_instance] retransmits PreAccept/Accept, so lost
     messages heal, but a crashed command leader leaves its in-flight
     instances as permanent dependency holes — everything but crash.
   - abd: leaderless; every operation is a fresh client-driven quorum
     round and the client retries against rotating replicas — full
     matrix.
   - mencius: per-message loss heals (client retries re-drive the
     rotation and skips regenerate), but a crash or partition wedges
     the crashed replica's slot range — no crash, no partition.
   - wpaxos: steal P1a/P2as are reliably posted, so drops, flakiness
     and link blackouts all heal once the network does; only a crash
     is fatal (a dead zone leader takes its mandatory zone-majority
     vote with it — there is no reconfiguration).
   - chain: explicitly-acked hops heal any transient loss; the fixed
     head-to-tail order makes a crash fatal.
   - wankeeper/vpaxos: token moves and ownership handoffs ride the
     explicitly-acked reliable channel and are re-sent until they take
     effect, zone leaders (the master too) fail over, and token and
     ownership state is committed in the zone groups, so partitions
     heal. Crash stays off until it is validated at campaign scale
     (ROADMAP); the master zone itself is fixed. *)
let profile_of name =
  let open Schedule in
  (* Clock skew only means anything to lease-based read paths; the
     default campaigns (and their fixed-seed pins) keep it off, and
     read-path campaigns opt in via [generate ~skew:true]. *)
  let full = { all_kinds with skew = false } in
  let no_crash = { full with crash = false } in
  match name with
  | "paxos" | "fpaxos" | "raft" ->
      { kinds = full; n = 5; zoned = false; global_consensus = true }
  | "epaxos" ->
      { kinds = no_crash; n = 5; zoned = false; global_consensus = true }
  | "abd" -> { kinds = full; n = 5; zoned = false; global_consensus = false }
  | "chain" -> { kinds = no_crash; n = 5; zoned = false; global_consensus = true }
  | "mencius" ->
      {
        kinds = { full with crash = false; partition = false };
        n = 5;
        zoned = false;
        global_consensus = true;
      }
  | "wpaxos" ->
      { kinds = no_crash; n = 9; zoned = true; global_consensus = true }
  | "wankeeper" ->
      { kinds = no_crash; n = 9; zoned = true; global_consensus = false }
  | "vpaxos" ->
      { kinds = no_crash; n = 9; zoned = true; global_consensus = false }
  | other ->
      invalid_arg
        (Printf.sprintf "Trial.profile_of: unknown protocol %S (known: %s)"
           other
           (String.concat ", " Paxi_protocols.Registry.names))

type verdict = {
  ok : bool;
  reasons : string list;
  completed : int;
  gave_up : int;
  anomalies : int;
  divergences : int;
  recoveries : int;
  replay_ms_total : float;
  timers_cancelled : int;
  messages_sent : int;
  sim_events : int;
  retransmits : int;
  p50_ms : float;
  p99_ms : float;
}

let horizon_ms = 3_000.0

(* Virtual time the cluster gets after the last fault lifts: long
   enough for the slowest failover timeout (base 1000ms scaled by up
   to 3.5x for the highest replica id) plus a full client retry. *)
let recovery_ms = 4_500.0

(* [?n] overrides the profile's cluster size (zoned profiles spread
   [n / 3] replicas per zone) — regression trials pin behavior at
   sizes the default campaign does not visit, e.g. the two-replica
   zones of the wpaxos n=6 wedge. *)
let resolve_profile ?n protocol =
  let profile = profile_of protocol in
  match n with Some n -> { profile with n } | None -> profile

let generate ?n ?(skew = false) ~protocol ~seed ~max_faults () =
  let profile = resolve_profile ?n protocol in
  let kinds =
    if skew then { profile.kinds with Schedule.skew = true } else profile.kinds
  in
  let rng = Rng.create ~seed in
  Schedule.generate ~rng ~n:profile.n ~kinds ~max_faults ~horizon_ms

let config ?n ?read_path ?(relay_groups = 0) ?durable ~protocol ~seed () =
  let profile = resolve_profile ?n protocol in
  {
    (Config.default ~n_replicas:profile.n) with
    Config.seed;
    Config.read_path;
    Config.relay_groups;
    (* [?durable] arms the stable-storage model: crashes become real
       (volatile state lost, durable log replayed on recovery)
       instead of transport-level pauses. *)
    Config.storage = durable;
    (* every trial runs with the reliable-delivery substrate armed:
       faults are the whole point here, and several families (chain,
       wankeeper, vpaxos, and paxos/raft since their ad-hoc retry
       paths moved into lib/net/reliable) depend on it to heal. The
       budget — 40ms doubling to a 320ms cap, 25 tries ≈ 7.9s —
       comfortably outlives the generator's longest fault window
       (1.8s) plus delivery jitter. *)
    Config.retransmit =
      Some { Config.base_ms = 40.0; max_ms = 320.0; max_tries = 25 };
  }

let run ?n ?read_ratio ?read_path ?relay_groups ?(shards = 1) ?arrival
    ?durable ~protocol ~seed schedule =
  let profile = resolve_profile ?n protocol in
  let (module P) = Paxi_protocols.Registry.find_exn protocol in
  let config = config ?n ?read_path ?relay_groups ?durable ~protocol ~seed () in
  let warmup_ms = 200.0 in
  let fault_end = Schedule.end_ms schedule in
  let duration_ms =
    Float.max 1_500.0 (fault_end +. recovery_ms -. warmup_ms)
  in
  let workload = { Workload.default with Workload.keys = 15 } in
  let workload =
    match read_ratio with
    | Some r -> { workload with Workload.write_ratio = 1.0 -. r }
    | None -> workload
  in
  (* sharded trials run K co-located groups behind a hash partitioner
     over the shared fault plane: every injected fault hits replica i
     of all K groups at once, and the oracle judges the union — the
     per-key histories still serialize because a key never changes
     owner. [shards = 1] is the single-group deployment. *)
  let spec =
    Runner.spec ~warmup_ms ~duration_ms ~cooldown_ms:2_000.0
      ~collect_history:true ~check_consensus:profile.global_consensus
      ~faults:(Schedule.install schedule ~n:profile.n)
      ~sharding:{ Runner.shards; partition = `Hash }
      ~config
      ~topology:(Runner.lan_topology ~zoned:profile.zoned profile.n)
      ~client_specs:
        (Runner.lan_clients
           ?arrival:(Option.map (Arrival.split ~count:3) arrival)
           ~zoned:profile.zoned ~count:3 workload)
      ()
  in
  let result = Runner.run (module P) spec in
  let anomalies = Linearizability.check result.Runner.history in
  let divergences = result.Runner.consensus_violations in
  let reasons = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> reasons := s :: !reasons) fmt in
  (match anomalies with
  | [] -> ()
  | a :: _ ->
      fail "%d linearizability anomalies (first: %s)" (List.length anomalies)
        a.Linearizability.reason);
  (match divergences with
  | [] -> ()
  | v :: _ ->
      fail "%d consensus divergences (first: %s)" (List.length divergences)
        (Fmt.str "%a" Consensus_check.pp_violation v));
  if result.Runner.completed = 0 then fail "no operation ever completed"
  else if
    (* liveness: commits resume after the last fault lifts (history
       records completed ops only, so one late invocation completing
       is exactly the evidence we need) *)
    schedule <> []
    && not
         (List.exists
            (fun (op : Linearizability.op) ->
              op.Linearizability.invoked_ms >= fault_end)
            result.Runner.history)
  then
    fail "no operation invoked after the last fault lifted (%.0fms) completed"
      fault_end;
  {
    ok = !reasons = [];
    reasons = List.rev !reasons;
    completed = result.Runner.completed;
    gave_up = result.Runner.gave_up;
    anomalies = List.length anomalies;
    divergences = List.length divergences;
    recoveries = result.Runner.recoveries;
    replay_ms_total = result.Runner.replay_ms_total;
    timers_cancelled = result.Runner.timers_cancelled;
    messages_sent = result.Runner.messages_sent;
    sim_events = result.Runner.sim_events;
    retransmits = result.Runner.retransmits;
    p50_ms = Stats.median result.Runner.latency;
    p99_ms = Stats.percentile result.Runner.latency 99.0;
  }
