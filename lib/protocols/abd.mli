(** ABD atomic storage (Attiya, Bar-Noy, Dolev) — the "Atomic Storage"
    recommendation of the paper's Figure-14 flowchart for deployments
    that need linearizable reads/writes but not state-machine
    replication ("consensus is not required to provide read/write
    linearizability").

    Multi-writer multi-reader registers over majority quorums, one
    register per key. A write first queries a majority for the
    highest tag, then stores the value under a strictly larger tag
    ((timestamp+1, writer)) at a majority. A read queries a majority,
    then writes the highest (tag, value) back to a majority before
    returning it, which makes reads linearizable. Every operation
    costs two majority round trips and no operation ever blocks behind
    a leader — there is none. The round itself is {!Abd_round}; this
    module only records finished operations and answers clients. *)

include Proto.PROTOCOL

val cpu_factor : Config.t -> float
val executor : replica -> Executor.t
val stored_tag : replica -> Command.key -> (int * int) option
(** (timestamp, writer) currently stored at this replica. *)
