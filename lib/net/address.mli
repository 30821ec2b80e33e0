(** Node addressing. Replicas participate in the protocol; clients
    only exchange request/reply traffic with replicas. *)

type t = Replica of int | Client of int

(** [replica] and [client] return a prebuilt value for ids in
    [\[0, 1024)], so the per-message paths that name an endpoint
    allocate nothing; larger ids build a fresh one. Either way the
    result is [equal] to the constructor's. *)

val replica : int -> t
val client : int -> t
val is_replica : t -> bool
val is_client : t -> bool

val replica_id : t -> int
(** Raises [Invalid_argument] on a client address. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val code : t -> int
(** The address as one int: [2i + 1] for [Replica i], [2i] for
    [Client i] (the same int as {!hash}). [min_int] is the code of no
    address an id above [min_int / 2] names. *)

val of_code : int -> t
(** Inverse of {!code}, through {!replica} and {!client}: prebuilt
    values for small ids. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Table : Hashtbl.S with type key = t
