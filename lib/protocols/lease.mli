(** Leader leases (DESIGN.md §11): one shared layer under every
    protocol that serves linearizable reads from the leader's local
    state ([read_path = Lease]) — Paxos, FPaxos and Raft.

    Follower side: a replica that accepts the leader's renewal traffic
    {e grants} a lease — it promises to help no rival candidate (no
    phase-1 promise, no vote) until the grant expires.

    Leader side: whenever the protocol's renewal quorum is met —
    including when the leader's own grant alone meets it — the leader
    {e extends} its serve window. It serves a read from its state
    machine while the window, less a safety margin for clock skew, is
    open and its progress has reached the term's read barrier. A read
    that arrives outside the window waits in a queue. The queue drains
    as soon as the window opens or the progress moves, and goes back
    to the protocol when the leader loses the lease ({!revoke}).

    The protocol keeps only its renewal rule: what carries a grant,
    how grants are counted, and how far a met quorum extends the
    window. The window is open only between {!lead} and {!revoke}, so
    an open window implies leadership. *)

type t

val create : 'm Proto.env -> Executor.t -> t
(** Reads [config.read_path] for the mode and margin. Outside lease
    mode {!grant} is a no-op and {!refuses} is [false]; the protocols
    renew the window only in lease mode. *)

val set_progress : t -> (unit -> int) -> unit
(** How far the leader's state machine has got, compared against the
    barrier set by {!lead}: Paxos's execution frontier, Raft's commit
    index. Set once, right after the protocol builds its replica. *)

val on : t -> bool
(** [read_path = Lease]. *)

(** {1 Follower promise} *)

val grant : t -> holder:int -> window:float -> unit
(** Promise [holder] to help no rival for [window] ms from now. The
    grant is renewed wholesale: its expiry only moves forward. *)

val refuses : t -> int -> bool
(** Would helping [candidate] break a live grant to another replica?
    Always [false] outside lease mode. *)

(** {1 Leader serve window} *)

val lead : t -> barrier:int -> unit
(** A new term: the window is closed until the renewal quorum is met,
    and no read is served before the progress reaches [barrier]. *)

val extend : t -> until:float -> unit
(** The renewal quorum is met: open the window to [until] (local
    clock) if that is later, then serve queued reads. *)

val revoke : t -> pending:(Address.t * Command.t) Queue.t -> unit
(** Leadership lost or promised away: close the window and move queued
    reads onto [pending], from where the protocol forwards them. *)

val valid : t -> bool
(** The leader may serve a read locally right now. *)

val read : t -> client:Address.t -> Command.t -> unit
(** A client read at the leader: served now if {!valid}, else
    queued. *)

val drain : t -> unit
(** Serve queued reads while {!valid} — call after the progress
    moves. *)

val served : t -> int
(** Reads answered from the local state machine. *)
