(** Growable replicated-log abstraction shared by the multi-decree
    protocols: a sparse array of per-slot entries plus an execution
    frontier. Paxos, wpaxos and mencius hold {!Cmd_log} entries and
    reach this module only through it; raft keeps its own entry type,
    because it replaces entries by truncation and commits by index. *)

type 'a t

val create : unit -> 'a t
val get : 'a t -> int -> 'a option
val set : 'a t -> int -> 'a -> unit
val next_slot : 'a t -> int
(** One past the highest occupied slot (0 when empty). *)

val reserve : 'a t -> int
(** Allocate and return the next free slot index. *)

val exec_frontier : 'a t -> int
(** Index of the first slot not yet executed. *)

val advance_frontier :
  'a t -> executable:('a -> bool) -> f:(int -> 'a -> unit) -> unit
(** Run [f] on consecutive slots starting at the frontier while each
    slot is filled and [executable]; advances the frontier past them.
    The frontier is already past a slot while [f] runs on it, so [f]
    may call [advance_frontier] again: the nested call starts at the
    next slot, and every slot runs exactly once, in order. *)

val commit_below :
  'a t -> int -> pending:('a -> bool) -> mark:('a -> unit) -> bool
(** [commit_below t bound ~pending ~mark] runs [mark] on every filled
    slot in [\[exec_frontier t, bound)] whose entry is [pending], and
    returns whether it marked any. Same marks and same result as a
    walk of that whole range, but incremental: a scan watermark skips
    slots an earlier call already looked at, and slots {!set} below
    the watermark since are queued and revisited. [pending] runs at
    most once per slot plus once per such late {!set}, so a hole at
    the frontier costs nothing per call. Marks are not made in slot order.

    Contract: [mark v] makes [pending v] false, [pending] and [mark]
    do not touch the log, and an entry becomes pending again only by
    being replaced through {!set} — never in place. *)

val iter_filled : 'a t -> f:(int -> 'a -> unit) -> unit

val iter_from : 'a t -> start:int -> f:(int -> 'a -> unit) -> unit
(** Like {!iter_filled} but starting at slot [start] (clamped to 0) —
    lets hot paths skip the already-executed prefix instead of
    rescanning the whole history. *)

val filled_count : 'a t -> int

val base : 'a t -> int
(** First slot still held in the log; slots below it were discarded by
    {!truncate} (their effect lives in a snapshot). 0 until the first
    truncation. *)

val truncate : 'a t -> upto:int -> unit
(** Discard every slot below [upto] (exclusive) and raise {!base} to
    it: [get] on a discarded slot returns [None], [set] below [base]
    is ignored, and the execution frontier is advanced to at least
    [upto] (a snapshot at [upto - 1] subsumes execution of the
    prefix). No-op when [upto <= base]. *)
