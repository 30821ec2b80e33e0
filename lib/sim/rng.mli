(** Deterministic, splittable pseudo-random number generator.

    Every stochastic component of the simulator draws from an [Rng.t]
    seeded explicitly, so whole-cluster experiments are reproducible
    bit-for-bit. Independent streams are obtained with {!split}, which
    derives a child generator whose sequence is statistically
    independent of the parent's subsequent draws. *)

type t

val create : seed:int -> t
(** [create ~seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives an independent child stream and advances [t]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [\[0, bound)]. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [\[0, bound)]. [bound > 0]. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform draw from [\[lo, hi)]. Requires [lo <= hi]. *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian draw via the Box–Muller transform. *)

val exponential : t -> rate:float -> float
(** Exponential draw with rate [rate] (mean [1/rate]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)
