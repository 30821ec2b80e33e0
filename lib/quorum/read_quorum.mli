(** The ABD read/write round engine (Attiya–Bar-Noy–Dolev), factored
    out of the ABD protocol so any majority protocol can run
    linearizable quorum reads over per-key registers.

    A register holds a [(timestamp, writer)] tag ordered
    lexicographically; stores are monotone ({!adopt}). A round is the
    two-phase coordinator state: {e query} a quorum for its registers,
    track the freshest tag seen, then {e store} (write back) the
    winning value to a quorum — the write-back is what makes a read
    linearizable. The engine is polymorphic in the register value so
    it does not depend on the store layer: ABD instantiates ['v] with
    [Command.value option], Paxos's quorum-read mode with the shadow
    value of an applied slot.

    The engine only tracks votes and the running maximum; messaging
    and register tables stay with the caller. No randomness, no
    timers. *)

type tag = int * int
(** [(timestamp, writer id)], ordered lexicographically. *)

val zero_tag : tag
(** [(0, -1)] — the tag of a never-written register; smaller than any
    tag a writer can produce. *)

val next_tag : tag -> self:int -> tag
(** [(ts + 1, self)]: a tag strictly larger than any tag with
    timestamp [ts], owned by this coordinator. *)

type 'v register = { mutable tag : tag; mutable value : 'v }

val fresh_register : empty:'v -> 'v register

val lookup : ('k, 'v register) Hashtbl.t -> empty:'v -> 'k -> 'v register
(** Find or create the register for a key. *)

val adopt : 'v register -> tag:tag -> value:'v -> unit
(** Install [(tag, value)] iff [tag] is strictly newer — the monotone
    ABD store rule; stale and duplicate stores are no-ops. *)

(** {1 Rounds} *)

type phase = Query | Store

type 'v t

val create : Quorum.spec -> self:int -> local_tag:tag -> local_value:'v -> 'v t
(** Open a round in the [Query] phase. The coordinator is a quorum
    member: its own register state seeds the running maximum and its
    vote is pre-acked. *)

val phase : _ t -> phase

val satisfied : _ t -> bool
(** Whether the current phase's quorum is already met. Right after
    {!create} or {!begin_store} this holds only when the coordinator's
    own vote is a quorum (a single-member spec): the caller must then
    proceed without waiting for a reply that will never come. *)

val best : 'v t -> tag * 'v
(** The freshest (tag, value) observed so far in the current phase. *)

val query_ack : 'v t -> src:int -> tag:tag -> value:'v -> bool
(** A query reply: fold the remote register into the running maximum
    and record the vote. Returns [true] once the query quorum is
    satisfied — the caller should then pick the winner via {!best} and
    {!begin_store} the write-back. Ignored (returns [false]) after the
    round has moved to [Store]. *)

val begin_store : 'v t -> self:int -> tag:tag -> value:'v -> unit
(** Move to the write-back phase with a fresh vote tracker (the
    coordinator pre-acked again); [tag]/[value] is what is being
    stored — the query winner for a read, a {!next_tag}-stamped new
    value for a write. *)

val store_ack : 'v t -> src:int -> bool
(** A store ack; [true] once the store quorum is satisfied and the
    round is complete. Ignored while still in [Query]. *)
