(** Paxos ballot numbers: a round counter paired with the proposing
    replica's id, totally ordered with the counter as the high-order
    component so any two distinct proposers always have comparable,
    distinct ballots. *)

type t = { round : int; owner : int }

val zero : t
(** The null ballot; smaller than any ballot a replica produces. *)

val initial : owner:int -> t
val next : t -> owner:int -> t
(** Smallest ballot owned by [owner] strictly greater than [t]. *)

val succ : t -> t
(** Next round for the same owner. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val max_round : int
val max_owner : int

val pack : t -> int
(** The ballot as one non-negative int below [2^56], ordered as
    {!compare} orders ballots. Raises [Invalid_argument] for a round
    outside [\[0, max_round\]] or an owner outside
    [\[-1, max_owner\]] (the owner of {!zero} is [-1]). *)

val unpack : int -> t
(** Inverse of {!pack}. *)

val pp : Format.formatter -> t -> unit
