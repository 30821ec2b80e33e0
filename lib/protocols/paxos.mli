(** Multi-decree Paxos (multi-Paxos, §2) with the optimizations the
    paper assumes: a stable leader that skips phase-1 for subsequent
    commands, and the commit phase piggybacked on the next phase-2
    broadcast.

    The same implementation provides Flexible Paxos: when
    [config.q2_size] is set, phase-2 uses quorums of that size and
    phase-1 uses quorums of [N - q2 + 1], preserving the FPaxos
    intersection requirement. Followers forward client requests to the
    leader; on leader silence a follower starts its own phase-1 after
    a timeout staggered by replica id, recovering any uncommitted
    entries reported by its phase-1 quorum. *)

include Proto.PROTOCOL

val cpu_factor : Config.t -> float

val is_leader : replica -> bool
val current_ballot : replica -> Ballot.t
val commit_frontier : replica -> int
val last_proposed_slot : replica -> int
(** Highest slot in the log; -1 when empty. *)

val executor : replica -> Executor.t

(** {2 Read path} (PR 7) — all inert unless [config.read_path] is set. *)

val lease_valid : replica -> bool
(** The leader may serve a read locally right now: it is active, has
    executed past its leadership barrier, and holds an unexpired lease
    with the safety margin subtracted. Always [false] off-leader and
    outside [Lease] mode. *)

val local_reads_served : replica -> int
(** Reads answered from the leader's local store under a lease. *)

val quorum_reads_served : replica -> int
(** Reads answered via an ABD round over the shadow registers. *)
