(** Benchmark runner (§4.2 Benchmarker): drives a protocol deployment
    — one consensus group, or K sharded groups behind a key
    partitioner — with closed- or open-loop clients generating a
    {!Workload}, measures per-request latency and aggregate + per-shard
    throughput over a measured window, optionally collects the full
    operation history for the offline checkers, and sweeps concurrency
    or arrival rate to find saturation (Fig. 7/9). *)

type target =
  | Nearest  (** the client's in-region replica (default) *)
  | Fixed of int
  | Round_robin

type arrival = Arrival.t =
  | Closed
  | Open of { rate_per_sec : float }
  | Bursty of { rate_per_sec : float; on_ms : float; off_ms : float }
      (** see {!Arrival}: closed loop paces on replies, the open-loop
          models pace on their own Poisson / on-off modulated clock *)

type sharding = {
  shards : int;  (** number of independent consensus groups, K *)
  partition : Paxi_shard.Partitioner.kind;
}
(** Deployment-level sharding: the runner builds K groups of
    [config.n_replicas] replicas each over one shared simulator and
    fault plane ({!Paxi_shard.Shard}), and routes every command by key.
    Every run is such a deployment; an unsharded one has K = 1. The
    partitioned key space is the union of the client specs' declared
    ranges. *)

type client_spec = {
  region : Region.t option;
  count : int;  (** number of clients with this spec *)
  target : target;
  arrival : arrival;
  workload : Workload.t;
}

val clients :
  ?region:Region.t ->
  ?target:target ->
  ?arrival:arrival ->
  count:int ->
  Workload.t ->
  client_spec

val lan_topology : zoned:bool -> int -> Topology.t
(** [n] replicas on one LAN. [zoned] spreads them evenly over three
    co-located zones ([n / 3] each in "az-a", "az-b", "az-c") at a
    flat LAN round trip: a single-AZ deployment that still gives the
    multi-leader protocols (wpaxos, wankeeper, vpaxos) their zone
    structure. *)

val lan_clients :
  ?arrival:arrival -> zoned:bool -> count:int -> Workload.t -> client_spec list
(** [count] round-robin clients for {!lan_topology}. [zoned] spreads
    them across the zones, [max 1 (count / 3)] per zone in zone order,
    so owner-side locality tracking sees a uniform mix and does not
    collapse ownership onto one leader. *)

type spec = {
  config : Config.t;
  topology : Topology.t;
  client_specs : client_spec list;
  warmup_ms : float;
  duration_ms : float;  (** measured window, after warmup *)
  cooldown_ms : float;  (** extra drain time before the run ends *)
  max_retries : int;  (** client retries before giving up a command *)
  collect_history : bool;
  check_consensus : bool;
      (** compare per-key histories across replicas at the end (per
          group, in a sharded deployment) *)
  faults : (Faults.t -> unit) option;  (** fault schedule installer *)
  sharding : sharding option;
      (** [None] (default) is one group: the same deployment as
          [Some { shards = 1; partition = `Hash }] *)
}

val spec :
  ?warmup_ms:float ->
  ?duration_ms:float ->
  ?cooldown_ms:float ->
  ?max_retries:int ->
  ?collect_history:bool ->
  ?check_consensus:bool ->
  ?faults:(Faults.t -> unit) ->
  ?sharding:sharding ->
  config:Config.t ->
  topology:Topology.t ->
  client_specs:client_spec list ->
  unit ->
  spec

type shard_stat = {
  shard_completed : int;  (** in-window completions owned by the shard *)
  shard_throughput_rps : float;
  shard_latency : Stats.t;
  shard_leader : int;
      (** the group's busiest replica — its de-facto leader under
          leader-based protocols *)
  shard_leader_busy_ms : float;  (** that replica's queue occupancy *)
}

type result = {
  throughput_rps : float;  (** completed ops/sec in the window *)
  latency : Stats.t;  (** per-request latency (ms) in the window *)
  read_latency : Stats.t;
      (** in-window [Get] latencies only — the read-path sweeps compare
          this against [write_latency] to price a fast read *)
  write_latency : Stats.t;  (** in-window write latencies only *)
  per_region : (Region.t * Stats.t) list;
  shard_stats : shard_stat array;
      (** per-shard series, length = deployment shards (1 when
          unsharded: entry 0 then mirrors the aggregate) *)
  completed : int;  (** total completed ops, including warmup *)
  gave_up : int;  (** ops abandoned after [max_retries] *)
  history : Linearizability.op list;  (** empty unless collected *)
  consensus_violations : Consensus_check.violation list;
  busiest_node_busy_ms : float;
  busiest_node : int;
  messages_sent : int;
  sim_events : int;  (** simulator events executed during the run *)
  sim_events_inlined : int;
      (** always 0: no event runs outside the scheduler since every
          message became one event (DESIGN.md §6); kept for readers
          of the field *)
  retransmits : int;
      (** message copies re-sent by the reliable-delivery layer's
          backoff timers (0 unless [Config.retransmit] is set) *)
  dup_drops : int;
      (** duplicate explicit-ack payloads suppressed at receivers *)
  recoveries : int;
      (** crash-recovery edges completed: fresh replica instances
          booted from durable state. 0 on memory-only deployments,
          where crashes are transport-level pauses *)
  replay_ms_total : float;
      (** simulated time spent replaying durable logs at recovery
          edges, summed over every recovery *)
  timers_cancelled : int;
      (** pending timer events mass-cancelled at crash edges *)
  storage_writes : int;  (** records appended across all devices *)
  storage_fsyncs : int;  (** fsync operations serviced *)
  storage_busy_ms : float;
      (** total device occupancy servicing fsyncs;
          [storage_busy_ms /. storage_fsyncs] is the mean fsync
          service time *)
  storage_syncs : int;  (** syncs whose continuation ran *)
  storage_sync_wait_ms : float;
      (** summed wait from each sync to its continuation, device
          queueing and group-commit windows included;
          [storage_sync_wait_ms /. storage_syncs] is the measured fsync
          term compared against the model's *)
  storage_lost_writes : int;
      (** records lost to crashes before their fsync completed *)
  allocated_bytes : float;
      (** GC-reported bytes allocated by this domain across the event
          loop ([Gc.allocated_bytes] delta around [Sim.run_until]) —
          the hot path's allocation bill, excluding setup/teardown *)
  bytes_per_event : float;
      (** [allocated_bytes] per event fired during the loop; the
          allocation-regression figure pinned in tests and gated in CI *)
  trace : Paxi_obs.Trace.t;
      (** the latency-dissection trace (shard 0's, in a sharded
          deployment), windowed to the measured interval; disabled
          unless [config.tracing] *)
}

val run : (module Proto.RUNNABLE) -> spec -> result

val derive_seed : root:int -> int -> int
(** [derive_seed ~root i] hashes a stable point identity [i] (an index
    or a structural hash of the point's parameters) into a simulation
    seed. Points seeded this way give the same result no matter which
    domain runs them or in what order, which is what keeps pooled
    sweeps byte-identical to sequential ones. *)

val run_many :
  ?pool:Paxi_exec.Pool.t ->
  ((module Proto.RUNNABLE) * spec) list ->
  result list
(** Run every (protocol, spec) point — each an independent simulation
    seeded by its own [spec.config.seed] — across the pool's domains
    (default: the shared [PAXI_JOBS]-sized pool). Results come back in
    input order and are identical to mapping {!run} sequentially. *)

val saturation_sweep :
  ?pool:Paxi_exec.Pool.t ->
  (module Proto.RUNNABLE) ->
  make_spec:(concurrency:int -> spec) ->
  concurrencies:int list ->
  (int * result) list
(** One independent run per concurrency level, fanned out across the
    pool; the caller plots latency against throughput, as the paper's
    performance tier does by raising client concurrency until
    throughput stops growing. *)
