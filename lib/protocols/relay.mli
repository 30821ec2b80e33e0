(** PigPaxos-style relay/aggregation trees (DESIGN.md §12).

    A leader running with [Config.relay_groups = r > 0] partitions its
    [n-1] followers into [r] groups and sends each phase-2 round to one
    {e relay} per group instead of to every follower. The relay applies
    the round locally, fans it out to its group members, aggregates
    their acks into a positional bitmap over the group, and returns one
    combined reply — the leader touches [2r] messages per slot instead
    of [2(n-1)] while quorum accounting stays exact (every bit maps
    back to a concrete replica id through the shared plan).

    This module holds the protocol-agnostic machinery both Paxos and
    Raft build on: the deterministic rotation {e plan} (pure function
    of cluster size, leader and generation — every replica derives the
    identical partition with no extra coordination or RNG draws), a
    per-replica plan cache, bitmap helpers, and a pool of reusable
    aggregation records so a relay's ack wave allocates no
    per-follower cells (ROADMAP "last of the per-event allocation").

    Rotation policy: the follower list is rotated by [gen] before
    being cut into contiguous groups, so relay duty and group
    membership both shift as the generation advances. Generations
    advance on a fixed round cadence (see {!gen_of_seq}) and whenever
    the leader bypasses a silent relay, which re-partitions the slow
    or dead relay out of its post. *)

type plan = {
  groups : int array array;
      (** [groups.(g)] lists group [g]'s member ids; the relay is
          [groups.(g).(0)]. Group sizes differ by at most one. *)
  group_of : int array;
      (** [group_of.(id)] = index of the group containing replica
          [id], or [-1] for the leader (indexed [0 .. n-1]). *)
}

val compute : n:int -> leader:int -> r:int -> gen:int -> plan
(** The partition of [leader]'s [n-1] followers into [r] groups at
    generation [gen]. Deterministic; total in [1 <= r <= n-1]. *)

type plans
(** A per-replica memo of {!compute} keyed by (leader, gen): hot-path
    lookups (one per relay round) reuse the cached arrays. *)

val plans : unit -> plans

val find : plans -> n:int -> leader:int -> r:int -> gen:int -> plan

val gen_window : int
(** Rounds per rotation generation: [gen_of_seq] advances the plan
    every [gen_window] relay rounds, cheap enough to cache yet fast
    enough that no relay stays a hotspot. *)

val gen_of_seq : seq:int -> bump:int -> int
(** The generation for the [seq]-th relay round given [bump] extra
    forced rotations (one per relay fallback). *)

val full_mask : int -> int
(** [full_mask k] has the low [k] bits set — the "every group member
    acked" bitmap for a group of size [k]. Groups are capped well
    below word size by validation ([r >= 1] gives groups of at most
    [n-1] members; sweeps stop at n = 81). *)

(** {1 Pooled aggregation records}

    One [agg] tracks one in-flight round at a relay: which bits of the
    group have acked, plus two protocol-owned integer tags (Paxos
    stores the ballot round and slot count; Raft the term and expected
    match index) and a flush timer for partial acks. Records recycle
    on an intrusive free list; steady-state aggregation allocates
    nothing per follower or per round. *)

type agg = {
  mutable a_leader : int;
  mutable a_gen : int;
  mutable a_group : int array;  (** shared with the plan, never copied *)
  mutable a_mask : int;
  mutable a_bits : int;
  mutable a_tag : int;  (** protocol tag 1 (ballot round / term) *)
  mutable a_aux : int;  (** protocol tag 2 (slot count / match index) *)
  mutable a_complete : bool;
  mutable a_t0 : float;  (** when the round reached the relay (obs) *)
  mutable a_flush : Paxi_sim.Sim.handle;
  mutable a_next : agg;  (** free-list link; physically [self] when live *)
}

type pool

val pool : unit -> pool

val alloc :
  pool -> leader:int -> gen:int -> group:int array -> tag:int -> aux:int -> agg
(** A fresh or recycled record with [a_bits = 0], [a_mask] covering
    [group], no flush timer, [a_complete = false]. *)

val release : pool -> agg -> unit
(** Return a record to the free list. The caller must have cancelled
    its flush timer. *)

val set_bit : agg -> int -> unit
(** Record group position [i]'s ack (idempotent). *)

val complete : agg -> bool
(** Every group member has acked. *)

val position : agg -> int -> int
(** Index of replica [id] in [a_group], or [-1]. Linear in the group
    size (at most a few dozen members). *)
