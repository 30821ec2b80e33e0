(** The replicated log of the multi-decree protocols: per slot one int
    meta word and one {!Command.t}, an execution frontier, and the
    clients of the slots this replica proposed. Paxos, wpaxos and
    mencius reach it through {!Cmd_log} (meta word = packed ballot and
    commit bit); raft keeps its terms in the meta word and replaces
    entries by truncation and overwrite.

    Layout (DESIGN.md §10, "Replica state layout"): the slots live in
    flat pages of parallel arrays, so a slot is no heap block of its
    own and the major GC has nothing per slot to promote or trace.
    Page 0 starts at 16 slots when the first slot is written and
    doubles up to 1,024; past that, whole 1,024-slot pages are
    appended and nothing is copied. {!create} allocates no page, pages
    a sparse log never touches stay unallocated, and a client page
    exists only where this replica recorded a client. *)

type t

val create : unit -> t

val mem : t -> int -> bool
(** The slot is filled. *)

val meta : t -> int -> int
(** The slot's meta word; 0 for an empty slot. *)

val cmd : t -> int -> Command.t
(** The slot's command; {!Command.noop} for an empty slot. *)

val set : t -> int -> meta:int -> Command.t -> unit
(** Fill or replace the slot. A replaced slot loses its client, and a
    slot set below {!commit_below}'s scan watermark is revisited by the
    next call. Ignored below {!base}; raises [Invalid_argument] for a
    negative slot or a meta word outside [\[0, 2^61)]. *)

val update : t -> int -> meta:int -> Command.t -> unit
(** Rewrite a filled slot in place: it keeps its client, and
    {!commit_below} does not take it for a new entry. *)

val set_meta : t -> int -> int -> unit
(** [update] of the meta word alone. *)

val set_client : t -> int -> Address.t -> unit
(** Record the client a filled slot answers. *)

val no_client : int
(** [min_int]: no {!Address.code}. *)

val take_client : t -> int -> int
(** Remove and return the slot's client as its {!Address.code}, or
    {!no_client} when it has none. Allocates nothing. *)

val next_slot : t -> int
(** One past the highest occupied slot (0 when empty). *)

val reserve : t -> int
(** Allocate and return the next free slot index. *)

val exec_frontier : t -> int
(** Index of the first slot not yet executed. *)

val advance_frontier :
  t -> executable:(int -> bool) -> f:(int -> unit) -> unit
(** Run [f] on consecutive slots starting at the frontier while each
    slot is filled and [executable] holds of its meta word; advances
    the frontier past them. The frontier is already past a slot while
    [f] runs on it, so [f] may call [advance_frontier] again: the
    nested call starts at the next slot, and every slot runs exactly
    once, in order. *)

val commit_below :
  t -> int -> pending:(int -> bool) -> mark:(int -> int) -> bool
(** [commit_below t bound ~pending ~mark] replaces the meta word [m]
    of every filled slot in [\[exec_frontier t, bound)] for which
    [pending m] holds with [mark m], and returns whether it replaced
    any. Same marks and same result as a walk of that whole range,
    but incremental: a scan watermark skips slots an earlier call
    already looked at, and slots {!set} below the watermark since are
    queued and revisited. [pending] runs at most once per slot plus
    once per such late {!set}, so a hole at the frontier costs nothing
    per call. Marks are not made in slot order.

    Contract: [pending (mark m)] is false, and a slot becomes pending
    again only by being replaced through {!set} — never through
    {!update} or {!set_meta}. *)

val iter_from : t -> start:int -> f:(int -> unit) -> unit
(** [f] on every filled slot from [start] (clamped to 0) up, in
    order. *)

val filled_count : t -> int

val base : t -> int
(** First slot still held in the log; slots below it were discarded by
    {!truncate} (their effect lives in a snapshot). 0 until the first
    truncation. *)

val truncate : t -> upto:int -> unit
(** Discard every slot below [upto] (exclusive) and raise {!base} to
    it: a discarded slot reads empty, [set] below [base] is ignored,
    and the execution frontier is advanced to at least [upto] (a
    snapshot at [upto - 1] subsumes execution of the prefix). Pages
    wholly below [upto] are released. No-op when [upto <= base]. *)
