(** PigPaxos-style relay/aggregation trees (DESIGN.md §12): one shared
    layer under every relaying protocol.

    A leader running with [Config.relay_groups = r > 0] partitions its
    [n-1] followers into [r] groups and sends each replication round
    to one {e relay} per group instead of to every follower. The relay
    applies the round locally, fans it out to its group, aggregates
    the members' acks into a positional bitmap over the group, and
    returns one combined reply — the leader touches [2r] messages per
    round instead of [2(n-1)], while quorum accounting stays exact:
    every bit maps back to a replica id through the shared plan.

    A {!t} is one replica's relay state, created in the protocol's
    [create]. It owns everything about a round that does not depend on
    the protocol: the rotation plans (a pure function of cluster size,
    leader and generation, so every replica derives the same partition
    with no coordination or RNG draws), the rotation counters and
    bypass window, and a table of pooled aggregation records keyed by
    an integer the protocol picks (Paxos: the round's first slot; Raft:
    the match index the round establishes).

    The protocol supplies only what differs: its message wrappers and
    ack constructor ([create ~ack]), its accept call (made before
    {!start}), the rule for whether a record is still current
    ({!set_current}), its prune mark ({!start}'s [~mark]), and its
    leader-side round bookkeeping (fallback timers, reliable posts).

    Rotation: the follower list is rotated by the generation before it
    is cut into contiguous groups, so relay duty and membership both
    shift. The generation advances every 1024 routed rounds and on
    every {!stall}. With [relay_groups = 0] nothing here runs:
    no messages, no timers, no RNG draws. *)

type plan = {
  groups : int array array;
      (** [groups.(g)] lists group [g]'s member ids; the relay is
          [groups.(g).(0)]. Group sizes differ by at most one. *)
  group_of : int array;
      (** [group_of.(id)] = index of the group containing replica
          [id], or [-1] for the leader (indexed [0 .. n-1]). *)
  relays : int list;  (** [groups.(g).(0)] for every group, in order *)
}

val compute : n:int -> leader:int -> r:int -> gen:int -> plan
(** The partition of [leader]'s [n-1] followers into [r] groups at
    generation [gen]. Deterministic; total in [1 <= r <= n-1]. *)

val full_mask : int -> int
(** [full_mask k] has the low [k] bits set: every member of a group of
    size [k] acked. *)

(** One round in flight at a relay: its key, the group's ack bitmap,
    the protocol's tag (Paxos: ballot round; Raft: term) and extent
    (Paxos: slot count; Raft: 0), and a partial-flush timer. Records
    recycle on an intrusive free list, each with its flush thunk built
    once, so steady-state aggregation allocates nothing per round
    beyond the messages it sends. *)
type agg = private {
  mutable a_key : int;  (** the key the record is stored under *)
  mutable a_leader : int;
  mutable a_gen : int;
  mutable a_group : int array;  (** shared with the plan, never copied *)
  mutable a_bits : int;
  mutable a_tag : int;
  mutable a_aux : int;
  a_t0 : float array;
      (** one slot: when the round reached the relay (obs), stored
          unboxed *)
  mutable a_flush : Paxi_sim.Sim.handle;
  mutable a_on_flush : unit -> unit;
      (** the record's partial flush, built with the record and reused
          by every timer it arms *)
  mutable a_next : agg;  (** free-list link; physically [self] when live *)
  mutable a_epoch : int;  (** the record's use, bumped when it is recycled *)
}

type 'm t

val create : 'm Proto.env -> ack:(int -> agg -> 'm) -> 'm t
(** [ack key a] builds the protocol's combined reply for the record
    stored under [key]. *)

val set_current : 'm t -> (agg -> bool) -> unit
(** Install the protocol's rule for whether a record is still current
    (Paxos: it carries the replica's ballot; Raft: it carries the term
    and the replica is not leading). Set once, right after the replica
    record exists; until then every record is current. *)

val active : 'm t -> bool
(** [Config.relay_groups > 0]. *)

val plan : 'm t -> leader:int -> gen:int -> plan
(** {!compute} memoized under the exact key [gen * n + leader]. *)

(** {1 Leader side} *)

val routing : 'm t -> bool
(** Relay mode is on and no bypass window is open. *)

val route : 'm t -> int
(** The generation for the next round, advancing the rotation; [-1]
    when the round must go direct (not {!routing}). *)

val relays : 'm t -> gen:int -> int list
(** The relay ids of this replica's own plan at [gen]. *)

val fallback_ms : 'm t -> float
(** How long a leader gives a relayed round before re-sending direct:
    an eighth of the failover timeout, so a dead relay costs a blip,
    not a leadership change. *)

val stall : 'm t -> unit
(** A relayed round stalled: rotate the plan and send direct for one
    failover timeout. *)

val relay_group : 'm t -> src:int -> gen:int -> int array
(** The group [src] relays for in this replica's own plan at [gen], or
    [[||]] when [src] is no relay there: bit [i] of [src]'s combined
    ack credits member [i] of it. *)

val covers : int array -> bits:int -> bool
(** [bits] has every member of the group acked. *)

val acked : bits:int -> int -> bool
(** Bit [i] of [bits] is set. *)

(** {1 Relay side} *)

val agg_nil : agg
(** The pooled records' sentinel: never live, never stored. *)

val lookup : 'm t -> int -> agg
(** The record stored under the key, or {!agg_nil}. Records live in a
    table sorted by key: a lookup is a binary search and allocates
    nothing. *)

val start :
  'm t ->
  key:int ->
  leader:int ->
  gen:int ->
  tag:int ->
  aux:int ->
  mark:int ->
  size_bytes:int ->
  'm ->
  agg
(** Begin aggregating a round this replica already accepted: drop the
    record [key] held, then — if this replica relays its group in
    [leader]'s plan at [gen] — take a record with no bit set, fan the
    message to the rest of the group, arm the partial flush (unless
    the group is the relay alone), prune the records with
    [key + aux <= mark] in key order once more than 128 are held, and
    return the record, for the caller to cast its own vote ({!own})
    once its accept is durable. {!agg_nil} means no relay under that
    plan (the round raced a rotation): the caller answers directly. *)

val own : 'm t -> agg -> int -> unit
(** [own t a epoch]: this replica's own vote, bit 0 of [a], if [a] is
    still the use numbered [epoch]. Built once per relay, so
    [Storage.after dev (own t) a a.a_epoch] allocates nothing on the
    volatile device. *)

val resend : 'm t -> agg -> size_bytes:int -> 'm -> unit
(** A duplicate of the round in [a] (the leader retransmits): resend
    the full ack if the record is complete, else re-fan the message to
    the members whose bits are clear. *)

val absorb : 'm t -> agg -> src:int -> unit
(** Fold member [src]'s ack into [a] (non-members are ignored); the
    completing ack sends the combined reply. *)

val drop : 'm t -> agg -> unit
(** Cancel the record's flush timer, remove it, recycle it. *)

val reset : 'm t -> unit
(** Drop every record, in key order: this replica's view of leadership
    moved on. *)
