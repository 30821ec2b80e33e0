(** Order-preserving parallel map over a {!Pool}.

    [map f xs] applies [f] to every element on the pool's domains and
    returns results in list order, so replacing [List.map] with
    [Parmap.map] in a sweep changes wall-clock time and nothing else —
    provided [f] is self-contained (its own simulator, its own seeded
    RNG). Defaults to the shared {!Pool.default} pool, whose size
    honours [PAXI_JOBS]. *)

val map : ?pool:Pool.t -> ('a -> 'b) -> 'a list -> 'b list
