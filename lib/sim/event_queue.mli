(** Priority queue of the scheduler's timer slots. Entries are ordered
    by (time, sequence number), so ties on time fire in insertion order
    and runs are deterministic. Implemented as a 4-ary implicit heap
    over a float array of times and an int array of keys packing
    (seq, slot); every comparison is monomorphic and no operation
    allocates (amortized over array growth). *)

type t

val slot_bits : int
(** Slots are below [2{^slot_bits}]; a key keeps the seq above them. *)

val create : unit -> t
val is_empty : t -> bool
val length : t -> int

val alloc_seq : t -> int
(** Claim the next sequence number. {!push} claims one itself; the
    scheduler's zero-delay lane claims them here, so lane entries and
    heap entries share one (time, seq) order. Fails once the seq no
    longer fits in the bits above the slot. *)

val push : t -> time:float -> int -> unit
(** [push q ~time slot] queues [slot] at [time] with the next sequence
    number. A slot may be queued at most once at a time. *)

val insert : t -> time:float -> seq:int -> int -> unit
(** [insert q ~time ~seq slot] queues [slot] at [(time, seq)], a seq
    claimed earlier with {!alloc_seq}. No two queued entries may share
    a seq. *)

val update : t -> int -> time:float -> seq:int -> unit
(** [update q slot ~time ~seq] moves [slot]'s entry to the key
    [(time, seq)], earlier or later, in O(log n). [slot] must be
    queued; an unchanged key is a no-op. *)

val top_time : t -> float
(** Time of the earliest entry. Undefined on an empty queue — guard
    with {!is_empty}. *)

val top_seq : t -> int
(** Sequence number of the earliest entry. Same precondition. *)

val top_slot : t -> int
(** Slot of the earliest entry. Same precondition. *)

val drop_top : t -> unit
(** Remove the earliest entry. Same precondition. *)

val remove : t -> int -> unit
(** [remove q slot] takes [slot]'s entry out of the queue, wherever it
    sits, in O(log n). [slot] must be queued. *)

val clear : t -> unit
(** Empty the queue, reset the sequence counter and drop the backing
    arrays. *)
