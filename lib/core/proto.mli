(** The protocol-developer interface of the framework (§4, Fig. 5):
    a protocol supplies its message type and a replica that handles
    client requests and peer messages; everything else — networking,
    quorums, datastore, benchmarking — comes from the shared modules.

    This mirrors Paxi's "fill in the two shaded blocks" design:
    [message] is the Messages block, and the [PROTOCOL] replica
    callbacks are the Replica block. *)

type reply = {
  command : Command.t;
  read : Command.value option;  (** value observed by a read *)
  replier : int;  (** replica that committed and replied *)
  leader_hint : int option;
      (** where the client should send next, if the protocol wants to
          redirect *)
}

(** Reliable-delivery operations (see {!Paxi_net.Reliable}): a message
    posted under an ack key is retransmitted on an exponential-backoff
    timer until every destination settles — by the protocol calling
    [settle] when the natural reply arrives ([ack:Piggyback]), or by
    the substrate's own acknowledgements ([ack:Explicit], which also
    suppresses duplicate deliveries at the receiver). All operations
    are inert no-ops when [Config.retransmit] is absent ([active =
    false]); posts then degrade to plain sends with identical
    accounting, so protocols call them unconditionally. *)
type 'm rel = {
  active : bool;
  fresh : unit -> int;  (** a never-used ack key *)
  post : ?key:int -> ?size_bytes:int -> ack:Reliable.ack_mode -> int -> 'm -> int;
      (** [post ~ack dst m] sends and registers; returns the key. *)
  post_multi :
    ?key:int -> ?size_bytes:int -> ack:Reliable.ack_mode -> int list -> 'm -> int;
      (** one multicast (single serialization), per-destination
          settling. *)
  post_all : ?key:int -> ?size_bytes:int -> ack:Reliable.ack_mode -> 'm -> int;
      (** [post_multi] to every other replica — the reliable
          [broadcast]. *)
  settle : dst:int -> key:int -> unit;
  settle_all : key:int -> unit;  (** withdraw the post entirely *)
  unpost_all : unit -> unit;  (** step-down: withdraw every post *)
}

val null_rel : unit -> 'm rel
(** A fully inert [rel] (unique keys, no sends, no state) for harness
    env stubs that also stub out the plain send operations. *)

(** Tracing hooks (see {!Paxi_obs.Trace}) for the two protocol-level
    milestones the transport cannot observe on its own: a client
    command being assigned a consensus slot, and that slot's quorum
    being satisfied. Protocols call these unconditionally — both are
    no-ops when tracing is disabled — and must not skip them on the
    grounds of [active]; the flag only lets a protocol avoid building
    expensive arguments. The hooks receive values the protocol already
    computed and never draw randomness or schedule events. *)
type obs = {
  active : bool;
  on_propose : slot:int -> cmd:Command.t -> unit;
  on_quorum : slot:int -> unit;
  on_read : unit -> unit;
      (** a read was served off the fast path — a local lease read, an
          ABD quorum read, or a chain tail read — i.e. it will never
          reach [on_propose] because it consumes no slot *)
  on_relay : start_ms:float -> end_ms:float -> unit;
      (** a relay (Config.relay_groups > 0) finished aggregating one
          round's group acks: [start_ms] is when the wrapped round
          reached it, [end_ms] when the combined bitmap ack left *)
}

val null_obs : obs
(** Inert hooks ([active = false]) for harness env stubs. *)

(** A replica's local clock: simulator time plus whatever skew the
    fault plane injects at [node] (exactly simulator time with no skew
    rule active). *)
type clock = { sim : Sim.t; faults : Faults.t; node : Address.t }

val local_now : clock -> float
(** The clock's reading, the same value [env.now ()] returns. It
    inlines into its caller, so storing it into a float slot (a float
    array, a float-only record) allocates nothing; per-message stamps
    read it instead of calling [now]. *)

val sim_clock : Sim.t -> id:int -> clock
(** Replica [id]'s clock on [sim] with no fault plane, for harness env
    stubs whose [now] reads [Sim.now sim]. *)

val round_sizes : Config.t -> int option array
(** The wire sizes, as [Some (k * msg_size_bytes)], of rounds of [k =
    0 .. max_batch] commands ([0 .. 1] without batching), built once
    per replica so a reliable post of a round passes its [?size_bytes]
    without boxing it. *)

val round_size : int option array -> Config.t -> int -> int option
(** [round_size sizes config k]: entry [k] of {!round_sizes}, or a
    fresh [Some] past its end. *)

(** Capabilities handed to a replica by the cluster engine. Peer
    identifiers are replica ids [0 .. n-1]. *)
type 'm env = {
  id : int;
  n : int;
  config : Config.t;
  topology : Topology.t;
  rng : Rng.t;
  now : unit -> float;
  clock : clock;  (** what [now] reads, for closure-free stamps *)
  schedule : float -> (unit -> unit) -> Sim.handle;
      (** [schedule delay thunk] — virtual-time timer. *)
  cancel : Sim.handle -> unit;
      (** Cancel a timer from [schedule]. Stale handles (already
          fired, already cancelled, {!Sim.nil}) are ignored. *)
  send : int -> 'm -> unit;
  broadcast : 'm -> unit;  (** to every other replica *)
  multicast : int list -> 'm -> unit;
  send_sized : int -> size_bytes:int -> 'm -> unit;
      (** like [send] with an explicit wire size — batched messages
          charge the sum of their commands' sizes instead of the
          configured per-message default *)
  broadcast_sized : size_bytes:int -> 'm -> unit;
  multicast_sized : int list -> size_bytes:int -> 'm -> unit;
  reply : Address.t -> reply -> unit;  (** answer a client *)
  forward : int -> client:Address.t -> Command.t -> unit;
      (** hand a client request over to another replica, preserving the
          originating client address *)
  rel : 'm rel;  (** reliable-delivery operations *)
  obs : obs;  (** tracing hooks; inert when tracing is off *)
  storage : Storage.t option;
      (** this replica's stable storage ([Config.storage]); [None] =
          memory-only, where durability is free and protocols must
          keep their pre-storage behavior byte-for-byte *)
}

module type PROTOCOL = sig
  type message

  type replica

  val name : string

  val message_label : message -> string
  (** Constructor tag of a message, e.g. ["P2a"] — keys the
      per-message-type send counters of the tracing layer. *)

  val create : message env -> replica

  val on_request : replica -> client:Address.t -> Command.t -> unit
  (** A client request — its command — arrived at this replica
      (directly or forwarded). *)

  val on_message : replica -> src:int -> message -> unit

  val on_start : replica -> unit
  (** Called once at time 0 (e.g. to elect an initial leader). *)

  val on_recover : replica -> unit
  (** Called on a {e fresh} replica instance (from {!create}) standing
      in for one that crashed, after the cluster restored whatever
      [env.storage] held. The replica must rebuild only from durable
      state — re-arm timers, rejoin the cluster — never assume its
      pre-crash volatile state (old ballot, quorum votes, leadership)
      survived. Only reached when [Config.storage] is set; memory-only
      clusters never call it. *)

  val leader_of_key : replica -> Command.key -> int option
  (** Introspection for routing and tests: which replica currently
      leads this key, if the protocol has the notion. *)

  val executor : replica -> Executor.t
  (** The replica's exactly-once execution layer; checkers read its
      state machine. *)
end

(** A protocol plus its node-cost shaping, as consumed by
    {!Cluster.Make} and the protocol registry. *)
module type RUNNABLE = sig
  include PROTOCOL

  val cpu_factor : Config.t -> float
  (** Multiplier on per-message CPU costs at this protocol's replicas
      (EPaxos charges its dependency-bookkeeping penalty here; other
      protocols return 1.0). *)
end
