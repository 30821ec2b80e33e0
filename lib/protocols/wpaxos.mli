(** WPaxos (§2): a multi-leader Paxos variant for WANs built on
    flexible grid quorums.

    Every object (key) has its own ballot and its own log. A zone
    (region) leader acquires an object by running phase-1 over a
    quorum of majorities in [Z - fz] zones; it then commits commands
    on the object through phase-2 majorities in [fz + 1] zones —
    its own zone plus the [fz] nearest, so [fz = 0] commits with
    region-local latency and [fz = 1] tolerates a full region failure
    (the two configurations of Fig. 11/13). Object migration is just
    another phase-1 with a higher ballot: no external master is
    needed. Stealing follows the paper's three-consecutive-access
    adaptation policy, and [config.initial_object_owner] seeds
    ownership (the locality experiment starts all objects in Ohio).

    As in the paper's evaluation (§5), only the first replica of each
    zone acts as its leader; other replicas forward requests to it. *)

include Proto.PROTOCOL

val cpu_factor : Config.t -> float
val executor : replica -> Executor.t
val owns : replica -> Command.key -> bool
val owner_of : replica -> Command.key -> int option
val steals_started : replica -> int
