(** Flexible Paxos (FPaxos, §2): multi-decree Paxos with independently
    sized phase-1/phase-2 quorums. The protocol logic is {!Paxos};
    this module fixes the name and defaults the phase-2 quorum to the
    paper's |q2| = 3 for 9 nodes when the config does not specify
    one. *)

include Proto.PROTOCOL

val cpu_factor : Config.t -> float
val is_leader : replica -> bool
val executor : replica -> Executor.t

val default_q2 : n:int -> int
(** The small phase-2 quorum the paper evaluates: [⌈(n+1)/3⌉] — 3 for
    a 9-node cluster. *)

val lease_valid : replica -> bool
val local_reads_served : replica -> int
(** Read-path accessors, shared with {!Paxos} (same replica type). *)
