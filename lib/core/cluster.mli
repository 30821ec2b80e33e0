(** Cluster engine: instantiates one replica of a protocol per
    topology slot, wires them through a virtual-time transport, and
    routes client requests and replies.

    The engine is a functor over {!Proto.PROTOCOL}, so each protocol
    gets a transport specialized to its own message type — the
    simulation-mode equivalent of Paxi running all nodes in one
    process over Go channels (§4.1 Networking). *)

type 'p envelope =
  | Peer of 'p
  | Request of { client : Address.t; command : Command.t }
  | Reply of Proto.reply
  | Rel of 'p Reliable.packet
      (** a protocol message under reliable-delivery bookkeeping, or
          one of the substrate's own acks (see {!Paxi_net.Reliable}) *)

module Make (P : Proto.RUNNABLE) : sig
  type t
  (** One consensus group: replicas, transport, reliable endpoints and
      the client pending table. *)

  type shared
  (** The context a group — or several groups, in a sharded deployment
      — runs over: one virtual-time heap ([Sim.t]), one latency matrix
      ([Topology.t]) and one fault plane ([Faults.t]). Groups sharing
      a [shared] are co-located by replica index: fault injection is
      addressed by [Address.replica i], so crashing machine [i] takes
      out replica [i] of every group at once (rack-scoped faults),
      while each group keeps its own leader, failover clocks and
      processing queues. *)

  val create_shared :
    ?sim:Sim.t ->
    ?faults:Faults.t ->
    config:Config.t ->
    topology:Topology.t ->
    unit ->
    shared
  (** Validate the config/topology pair and build the shared context
      (the sim defaults to a fresh one seeded from [config.seed]).
      Raises [Invalid_argument] on an invalid config or when the
      topology size disagrees with [config.n_replicas]. *)

  val create_group : shared -> t
  (** Instantiate one group over the shared context: replicas are
      created and [P.on_start] runs at virtual time 0. *)

  val create :
    ?sim:Sim.t ->
    ?faults:Faults.t ->
    config:Config.t ->
    topology:Topology.t ->
    unit ->
    t
  (** [create_shared] followed by [create_group] — the classic
      one-group deployment, byte-identical to the pre-shard engine. *)

  val sim : t -> Sim.t

  val trace : t -> Paxi_obs.Trace.t
  (** The cluster's latency-dissection trace. Disabled (a no-op sink)
      unless [config.tracing] is set; when enabled, the transport
      observer and protocol hooks feed it per-request spans, per-hop
      queue accounting and per-message-type counters. *)

  val config : t -> Config.t
  val topology : t -> Topology.t
  val faults : t -> Faults.t
  val replica : t -> int -> P.replica

  val register_client : t -> id:int -> ?region:Region.t -> unit -> unit
  (** Declare a client and (for WAN topologies) pin it to a region. *)

  val submit :
    t ->
    client:int ->
    target:int ->
    command:Command.t ->
    on_reply:(Proto.reply -> unit) ->
    unit
  (** Send [command] from [client] to replica [target]. [on_reply]
      fires at most once, when some replica answers for this command
      id; re-submitting the same command id replaces the callback
      (client retry). *)

  val pending : t -> client:int -> command:Command.t -> bool
  (** Is this command still awaiting a reply? *)

  val give_up : t -> client:int -> command:Command.t -> unit
  (** Drop the pending callback (client abandons the request). *)

  val leader_of_key : t -> replica:int -> Command.key -> int option

  val nearest_replica : t -> client:int -> int
  (** Lowest-id replica in the client's region; falls back to replica
      0 when the region hosts none. *)

  val message_counts : t -> int * int * int
  (** (sent, delivered, dropped) protocol+client messages so far. *)

  val retransmit_counts : t -> int * int
  (** (retransmits, dup_drops) summed over every replica's
      reliable-delivery endpoint; both 0 when retransmission is
      disabled. *)

  val replica_busy_ms : t -> int -> float
  (** Cumulative processing-queue occupancy of a replica — the
      busiest-node load of §6. *)

  val storage : t -> int -> Storage.t option
  (** A replica's stable-storage device; [None] on memory-only
      clusters ([Config.storage] unset). *)

  val recoveries : t -> int
  (** Crash-recovery edges completed (a fresh replica instance booted
      from durable state). 0 on memory-only clusters, where crashes
      are transport-level pauses. *)

  val replay_ms_total : t -> float
  (** Total simulated time spent replaying durable logs at recovery
      edges. *)

  val timers_cancelled : t -> int
  (** Pending events mass-cancelled at crash edges across all
      replicas. *)

  val storage_totals : t -> Storage.totals
  (** Every replica's storage device summed; zeros when storage is
      off. *)
end
