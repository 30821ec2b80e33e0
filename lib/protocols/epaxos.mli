(** Egalitarian Paxos (EPaxos, §2): leaderless consensus where every
    replica opportunistically leads the commands it receives.

    A command leader pre-accepts a command with its dependency set (the
    latest interfering instances it knows) and sequence number. If a
    fast quorum of [⌈3N/4⌉] replicas reports identical attributes, the
    command commits in one round trip; otherwise the leader merges the
    reported attributes and runs a classic accept round on a majority
    (the conflict penalty the paper dissects in Fig. 11/12). Committed
    instances execute in dependency order: Tarjan's strongly-connected
    components over the dependency graph, components in reverse
    topological order, ties broken by sequence number.

    Failure recovery of orphaned instances (explicit-prepare) is not
    implemented; the paper's EPaxos experiments do not exercise
    replica failure. *)

include Proto.PROTOCOL

val cpu_factor : Config.t -> float
(** EPaxos replicas pay [config.epaxos_penalty] on message processing
    for dependency bookkeeping, as in the paper's modeling (§5). *)

val executor : replica -> Executor.t
val executed_count : replica -> int
val fast_path_count : replica -> int
(** Commands this replica led that committed on the fast path. *)

val slow_path_count : replica -> int
