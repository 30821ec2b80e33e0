(** Key-space partitioners: which consensus group owns a key. Routing
    is pure arithmetic (no RNG, no state), so adding a partitioner in
    front of a cluster cannot perturb the simulator's event or draw
    sequence — the foundation of the K=1 byte-identity guarantee. *)

type kind = [ `Hash | `Range ]

type t

val hash : shards:int -> t
(** Murmur-mix the key and take it mod [shards]: balances any key
    distribution (hot keys scatter) at the price of range locality. *)

val range : shards:int -> min_key:int -> keys:int -> t
(** Split [\[min_key, min_key + keys)] into [shards] contiguous slices
    of ~[keys/shards] keys each; keys outside the declared space clamp
    to the edge shards. Preserves range locality — and therefore
    concentrates hotspots: a skewed prefix lands on one shard.
    Requires [keys >= shards]. *)

val make : kind -> shards:int -> min_key:int -> keys:int -> t

val shards : t -> int
val kind : t -> kind

val route : t -> int -> int
(** Owning shard of a key, in [0 .. shards-1]. Deterministic: equal
    keys always route to the same shard. *)
