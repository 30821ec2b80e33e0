(** Vertical Paxos (§2), in the augmented form the paper evaluates
    (§5.3): per-region Paxos groups ({!Zone_paxos}) commit commands on
    the objects assigned to them, while the master group (in the
    [config.master_region_index] region, led by its zone leader) owns
    the object-to-group assignment and commits every reassignment
    through its own consensus before it takes effect — the control
    plane / data plane split of VPaxos.

    Object migration follows the same consecutive-remote-access
    policy as WPaxos/WanKeeper. Each assignment opens a new epoch of
    the object; the old owner's group commits that it gave its epoch
    away (after every command it ran on the object) and ships the
    latest value, and the new owner's group re-commits it and commits
    that it owns the new epoch before serving queued commands, so
    reads stay linearizable across migrations. Both claims, and the
    assignment, live in the zone groups, so a new zone leader finds
    them; a new owner that waits too long for the state reminds the old
    one. The master zone itself is fixed. *)

include Proto.PROTOCOL

val cpu_factor : Config.t -> float
val executor : replica -> Executor.t
val is_master : replica -> bool
val is_zone_leader : replica -> bool
val assigned_zone : replica -> Command.key -> int option
(** Which zone owns the key: the committed assignment in the master
    zone, this replica's routing hint elsewhere. *)

val migrations : replica -> int
(** Reassignments committed (meaningful at the master). *)
