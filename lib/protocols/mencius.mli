(** Mencius (Mao et al., OSDI 2008) — the rotating-leader approach the
    paper cites among multi-leader WAN designs (§5.2 [29]).

    The slot space is partitioned round-robin: replica [i] owns slots
    [s] with [s mod N = i] and can propose in its own slots without
    phase-1. A replica that receives another owner's accept for a slot
    beyond its own next slot immediately {e skips} its intervening
    slots (committing no-ops) so the global execution frontier never
    waits on an idle owner — Mencius' key mechanism.

    Every replica serves client requests in its own slots, so load
    spreads like other multi-leader protocols, but every command still
    waits on a majority that includes the slot order. Leader-failure
    revocation (stealing a crashed owner's slots) is not implemented;
    availability experiments use the other protocols. *)

include Proto.PROTOCOL

val cpu_factor : Config.t -> float
val executor : replica -> Executor.t
val next_owned_slot : replica -> int
val skips_issued : replica -> int
