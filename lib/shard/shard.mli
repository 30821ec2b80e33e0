(** Sharded multi-group deployments: K independent consensus groups of
    the same protocol behind a key-space {!Partitioner}, all running
    over one shared simulator, latency matrix and fault plane
    ([Cluster.Make(P).shared]). This is the runner's only deployment
    shape: an unsharded run is K = 1.

    Each group is a full [Cluster.Make(P).t] — its own leader, its own
    failover clocks, its own transport/processing queues and reliable
    endpoints — so aggregate capacity grows ~linearly in K until the
    key distribution concentrates load on few shards. Groups are
    co-located by replica index on the shared fault plane: injected
    faults address [Address.replica i] and therefore hit replica [i]
    of every group (machine/rack-scoped failures). A 1-shard
    deployment is byte-identical to [Cluster.Make(P).create]:
    creation performs the same steps in the same order, and routing
    draws no randomness. *)

module Make (P : Proto.RUNNABLE) : sig
  type t

  val create :
    ?sim:Sim.t ->
    ?faults:Faults.t ->
    config:Config.t ->
    topology:Topology.t ->
    partitioner:Partitioner.t ->
    unit ->
    t
  (** Build [Partitioner.shards] groups over one shared context. Every
      group uses the same config (n_replicas per group) and topology. *)

  val sim : t -> Sim.t
  val shards : t -> int

  val route : t -> key:int -> int
  (** Owning shard for a key (pure, no RNG). *)

  val register_client : t -> id:int -> ?region:Region.t -> unit -> unit
  (** Register the client with every group (one region assignment,
      K reply handlers): a client talks to whichever shard owns the
      key of each command. *)

  val nearest_replica : t -> shard:int -> client:int -> int

  val submit :
    t ->
    shard:int ->
    client:int ->
    target:int ->
    command:Command.t ->
    on_reply:(Proto.reply -> unit) ->
    unit

  val pending : t -> shard:int -> client:int -> command:Command.t -> bool
  val give_up : t -> shard:int -> client:int -> command:Command.t -> unit
  val replica : t -> shard:int -> int -> P.replica

  val trace : t -> shard:int -> Paxi_obs.Trace.t
  val set_window : t -> from_ms:float -> until_ms:float -> unit

  val busiest_in_shard : t -> shard:int -> int * float
  (** The group's most-occupied replica (index, busy ms) — the
      per-shard leader-load figure of the shard sweeps. *)

  val busiest : t -> int * float
  (** The most-occupied replica across all groups (index, busy ms); the
      first group wins a tie. *)

  val message_counts : t -> int * int * int
  (** (sent, delivered, dropped), summed across groups. *)

  val retransmit_counts : t -> int * int

  val recovery_counts : t -> int * float * int
  (** (recoveries, replay ms, timers cancelled), summed across groups. *)

  val storage_totals : t -> Storage.totals
  (** Storage totals summed across groups. *)
end
