(** End-to-end analytic latency/throughput curves (§3.3–3.4): the
    average round latency perceived by a client is

    {v Latency = Wq + ts + DL + DQ v}

    where Wq is the queue wait at the busiest node (M/D/1 by default,
    as selected in Fig. 4), ts the round service time, DL the
    client-to-leader RTT and DQ the quorum RTT ((Q-1)-th order
    statistic of follower RTTs — Monte-Carlo in LAN, the (Q-1)-th
    smallest fixed RTT in WAN). These curves regenerate Fig. 4, 8, 10
    and 12. *)

type protocol =
  | Paxos
  | Paxos_relay of { groups : int }
      (** Paxos behind relay/aggregation trees (DESIGN.md §12): leader
          service demand ∝ groups, quorum wait a nested two-hop order
          statistic ({!Order_stats.relay_quorum_rtt_lan}) *)
  | Fpaxos of { q2 : int }
  | Epaxos of { conflict : float }
  | Epaxos_adaptive of { conflict_lo : float; conflict_hi : float }
      (** conflict probability grows linearly with utilization, the
          paper's EPaxos (Conflict=[0.02, 0.70]) series in Fig. 10 *)
  | Wpaxos of { leaders : int; locality : float; fz : int }
  | Wankeeper of { leaders : int; locality : float }

val protocol_name : protocol -> string

type point = { throughput_rps : float; latency_ms : float }

(** {1 LAN} *)

type lan = { rtt_mu_ms : float; rtt_sigma_ms : float }

val default_lan : lan
(** The paper's measured intra-region RTT, N(0.4271, 0.0476) ms. *)

val relay_hop_lan : lan:lan -> n:int -> groups:int -> rng:Rng.t -> float
(** Expected duration of one relay aggregation hop — first member
    delivery to combined-ack departure: the worst of the group's
    [s - 1] member RTTs plus the relay's own fan-out/aggregation
    service (0.075 ms, calibrated against measured
    ["relay:aggregate"] spans at n = 25; DESIGN.md §12), where
    [s = ceil ((n - 1) / groups)]. [bench/main dissect --relay-groups]
    validates measured hop spans against this term. *)

val lan_max_throughput :
  protocol -> node:Service.node_params -> float
(** Saturation throughput (rounds/sec). *)

val sharded_max_throughput :
  protocol -> node:Service.node_params -> shards:int -> float
(** Aggregate saturation of K independent groups on disjoint machines:
    [K * lan_max_throughput] — the linear-scaling assumption the shard
    sweep measures against. Holds for balanced partitioning; a skewed
    key distribution saturates its hot shard first, so the measured
    aggregate falls below this line while per-shard imbalance rises. *)

type breakdown = {
  wq_ms : float;  (** queue wait at the busiest node *)
  service_ms : float;  (** leader round service time *)
  dl_ms : float;  (** client-to-leader network RTT *)
  dq_ms : float;  (** quorum RTT (order statistic) *)
  conflict_extra_ms : float;
      (** EPaxos second-phase penalty weighted by conflict rate *)
  durability_ms : float;
      (** fsync wait on the commit path when stable storage is armed
          ({!fsync_term_ms}); 0 on memory-only deployments *)
  total_ms : float;  (** sum of the components — [lan_point]'s latency *)
}
(** The Latency = Wq + ts + DL + DQ (+ Dfsync) decomposition of §3.3,
    kept as separate components so measured per-request traces can be
    compared term by term against the model ([bench/main dissect]). *)

val fsync_term_ms : lambda_rps:float -> Storage.config option -> float
(** Expected fsync wait one commit pays (DESIGN.md §14): acceptors
    fsync in parallel before acking, so the round absorbs the term
    once. Under [Sync_every] each replica fsyncs once per op, so the
    device is an M/D/1 queue at
    [rho = lambda_rps * fsync_ms / 1000]:
    [fsync_ms + rho * fsync_ms / (2 (1 - rho))], and [infinity] once
    [rho >= 1]. [batch_window_ms / 2 + fsync_ms] under [Sync_batched]
    (a record lands uniformly inside the open group-commit window),
    and [0] under [Sync_none] or with storage off. [bench/main dissect
    --protocol paxos --durable every] gates the measured mean wait
    from sync to continuation against this term. *)

val lan_breakdown :
  ?queue:Queueing.kind ->
  ?durable:Storage.config ->
  protocol ->
  node:Service.node_params ->
  lan:lan ->
  rng:Rng.t ->
  lambda_rps:float ->
  breakdown option
(** [None] once the busiest node or the storage device saturates.
    [?durable] adds the {!fsync_term_ms} durability term to the commit
    path. *)

(** {2 Read paths} (PR 7) *)

(** A fast-path read's analytic shape: [Local_read] (leader lease) and
    [Tail_read] (chain tail) are one client RTT plus the serving
    node's touch time with no quorum term; [Quorum_read] (ABD) adds
    two majority-RTT order-statistic rounds (query + write-back) and
    the coordinator's two broadcast serializations. *)
type read_kind = Local_read | Quorum_read | Tail_read

val read_kind_name : read_kind -> string

val read_breakdown :
  read_kind -> node:Service.node_params -> lan:lan -> rng:Rng.t -> breakdown
(** The terms of one fast-path read, in the same {!breakdown} shape as
    the write path so [bench/main dissect] can validate measured
    local-read/quorum-read latencies against the model per-term.
    [wq_ms] is 0 by construction (reads bypass the slot log and its
    queueing story); [rng] only feeds the quorum-RTT Monte Carlo, so
    local/tail breakdowns are deterministic. *)

val lan_point :
  ?queue:Queueing.kind ->
  protocol ->
  node:Service.node_params ->
  lan:lan ->
  rng:Rng.t ->
  lambda_rps:float ->
  point option
(** [None] once the busiest node saturates. *)

val lan_curve :
  ?queue:Queueing.kind ->
  protocol ->
  node:Service.node_params ->
  lan:lan ->
  rng:Rng.t ->
  lambdas:float list ->
  point list

(** {1 WAN} *)

type wan = {
  regions : Region.t list;  (** one replica (or zone leader) each *)
  client_mix : (Region.t * float) list;
      (** where requests originate, weights summing to 1 *)
  rtt_ms : Region.t -> Region.t -> float;
}

val default_wan : wan
(** The paper's five AWS regions with a uniform client mix and the
    calibrated RTT matrix. *)

val wan_point :
  ?queue:Queueing.kind ->
  protocol ->
  node:Service.node_params ->
  wan:wan ->
  leader_region:Region.t ->
  lambda_rps:float ->
  point option
(** Aggregate arrival rate [lambda_rps] across all regions;
    [leader_region] places the single leader (ignored by multi-leader
    protocols, which put one leader per region). *)

val wan_curve :
  ?queue:Queueing.kind ->
  protocol ->
  node:Service.node_params ->
  wan:wan ->
  leader_region:Region.t ->
  lambdas:float list ->
  point list
