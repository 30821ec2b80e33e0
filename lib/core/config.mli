(** Cluster and protocol configuration (§4.1 Configurations).

    One flat record carries the knobs shared by every protocol plus the
    per-protocol parameters the paper's evaluation varies: FPaxos
    phase-2 quorum size, WPaxos fault-tolerance level [fz], the
    EPaxos conflict-bookkeeping penalty, thrifty quorums and commit
    piggybacking. *)

type batching = {
  max_batch : int;  (** flush a leader's batch at this many commands *)
  max_wait_ms : float;
      (** flush a non-full batch after this long (0 = next sim instant) *)
}
(** Leader command batching (§6's capacity lever): coalesce queued
    client commands into one multi-command phase-2 round — one
    serialized message per peer with summed wire size, one quorum per
    batch slot-range — amortizing [t_in]/[t_out] across the batch. *)

type retransmit = { base_ms : float; max_ms : float; max_tries : int }
(** Reliable-delivery policy applied by {!Paxi_net.Reliable} to every
    message a protocol posts with an ack key: first retransmission
    after [base_ms], backoff doubling up to [max_ms], giving up after
    [max_tries] retransmissions. [max_tries = 0] (or a [None] field)
    leaves the layer inert — no timers, no acks, no dedup state. *)

type read_path =
  | Lease of { margin_ms : float }
      (** the established leader answers reads from its local state
          machine while it holds a heartbeat-renewed lease; [margin_ms]
          is subtracted from the lease expiry before every serve, and
          must exceed twice the largest clock offset the deployment
          (or the nemesis) can produce — see DESIGN.md §11 *)
  | Quorum
      (** ABD-style quorum reads from any replica (query a majority's
          per-key registers, write the freshest value back to a
          majority); write acks are deferred behind a commit-ack round
          so acknowledged writes are majority-readable *)
  | Tail
      (** chain replication's head-write/tail-read split; other
          protocols ignore it *)
(** How [Get] commands are served. [None] (the default) routes reads
    through the full write path — one slot per read — exactly as every
    protocol behaved before the read path existed. *)

type t = {
  n_replicas : int;
  seed : int;
  msg_size_bytes : int;  (** wire size charged per protocol message *)
  t_in_ms : float;  (** CPU cost to process an incoming message *)
  t_out_ms : float;  (** CPU cost to serialize an outgoing message *)
  bandwidth_mbps : float;
  client_timeout_ms : float;  (** client retry timeout *)
  q2_size : int option;
      (** FPaxos phase-2 quorum size; [None] = majority *)
  fz : int;  (** WPaxos: number of zone (region) failures tolerated *)
  epaxos_penalty : float;
      (** multiplier on message-processing cost at EPaxos replicas,
          accounting for dependency computation (§5) *)
  piggyback_commit : bool;
      (** piggyback phase-3 on the next phase-2 broadcast (§2) *)
  thrifty : bool;
      (** leaders contact only Q-1 followers instead of N-1 (§6.1) *)
  migration_threshold : int;
      (** consecutive remote accesses before object
          migration/stealing — the paper's "simple three-consecutive
          access policy" (§5.3) *)
  failover_timeout_ms : float;
      (** how long a follower waits without hearing from the leader
          before starting its own phase-1 (staggered by replica id) *)
  initial_object_owner : int option;
      (** multi-leader protocols: replica that initially owns every
          object (the locality experiment starts with all objects in
          Ohio); [None] = keys are claimed on first access *)
  master_region_index : int;
      (** WanKeeper/VPaxos: index (into the topology's region list) of
          the region hosting the master / level-2 group *)
  batching : batching option;
      (** leader command batching for Paxos/FPaxos/Raft; [None] (the
          default) proposes one slot per client command *)
  retransmit : retransmit option;
      (** reliable-delivery retransmission policy; [None] (the
          default) disables retransmission, matching a loss-free
          network assumption *)
  tracing : bool;
      (** collect per-request latency-dissection traces (see
          {!Paxi_obs.Trace}); off by default. Tracing only reads
          timestamps the simulator already computed — a fixed-seed run
          produces byte-identical statistics either way *)
  read_path : read_path option;
      (** read-serving strategy; [None] (the default) keeps reads on
          the write path and is byte-identical to builds without a
          read path *)
  relay_groups : int;
      (** PigPaxos-style relay trees for Paxos/Raft phase 2: partition
          the [n-1] followers into this many groups, send each round to
          one relay per group, and let relays fan out and aggregate
          acks into one bitmap reply — the leader touches [2r] messages
          per slot instead of [2(n-1)]. Group membership rotates
          deterministically and a silent relay is bypassed (the leader
          re-sends direct and re-partitions). [0] (the default) is the
          direct path, byte-identical to pre-relay builds. Incompatible
          with [thrifty]: a relay round covers every follower, while
          thrifty sends phase 2 to a quorum only, so the two knobs ask
          for opposite copy lists. See DESIGN.md §12. *)
  storage : Storage.config option;
      (** stable-storage model (DESIGN.md §14): [Some c] makes every
          persistent protocol write (ballots, terms, votes, accepted
          entries) traverse a simulated fsync queue before the replica
          may ack, arms Raft snapshot/log-compaction, and turns
          nemesis crashes into real crashes — volatile state is lost,
          timers are mass-cancelled, and recovery replays the durable
          log on the simulated clock. [None] (the default) is
          memory-only: paxos and raft run the same durable code on
          {!Storage.volatile}, which writes nothing and acks at once,
          and a nemesis crash only pauses the replica. *)
}

val default : n_replicas:int -> t
(** Calibrated to the paper's m5.large setup; see field defaults in the
    implementation. *)

val validate : t -> (unit, string) result
(** Reject inconsistent settings (bad quorum sizes, negative costs). *)

val majority : t -> int
(** [⌊n/2⌋ + 1]. *)

val phase2_quorum_size : t -> int
(** [q2_size] when set (FPaxos), else majority. *)

val to_json : t -> Json.t
(** Serialize to the JSON shape understood by {!of_json}. *)

val of_json : Json.t -> (t, string) result
(** Read a configuration from JSON: every field is optional and
    overrides {!default} (which requires ["n_replicas"]). Unknown
    fields are rejected to catch typos. *)

val load_file : string -> (t, string) result
(** Parse a JSON configuration file (the §4.1 distribution model). *)
