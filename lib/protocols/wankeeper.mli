(** WanKeeper (§2): hierarchical two-level consensus with a token
    broker.

    Each region runs a level-1 Paxos group ({!Zone_paxos}) whose leader
    fails over; the leader of one region's group (the
    [config.master_region_index]-th) is also the level-2 master.
    Commands on an object execute in the region group that holds the
    object's token. Tokens start at the master; when several regions
    contend for the same object the master retracts the token and
    executes those commands itself in its own group, and once accesses
    settle on one region (the consecutive-access threshold) the master
    passes the token down so that region commits with local latency —
    the behaviour behind Ohio's flat latency curve in Fig. 11b and its
    win in Fig. 13a.

    Token state is committed in the zone groups: the master zone logs
    which zone holds each token, a region logs the generations it holds
    and gives back, so a new zone leader (or master) finds it. Token
    movement carries the object's latest value, which the receiving
    group re-commits before its claim, keeping reads linearizable
    across moves. A lost move is sent again: the master re-sends a
    grant to a holder that asks for its own object, and a retraction
    until it is acked. The master zone itself is fixed. *)

include Proto.PROTOCOL

val cpu_factor : Config.t -> float
val executor : replica -> Executor.t
val is_master : replica -> bool
val is_zone_leader : replica -> bool
val tokens_held : replica -> int
(** Number of keys whose token this replica's zone holds, by its
    store (0 in the master zone). *)

val grants : replica -> int
(** Tokens granted (meaningful at the master). *)

val retractions : replica -> int
