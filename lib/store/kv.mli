(** In-memory multi-version key-value datastore (§4.1 Data store).

    Every write creates a new version; the full version chain of every
    key is retained so the consensus checker can compare per-node
    histories, as the paper does with its multi-version store.

    A version is its writer command: the store keeps each key's writers
    in a flat array, oldest first, and builds {!version} records only
    when {!versions} is called (by the checkers). *)

type t

type version = {
  value : Command.value option;  (** [None] for a delete *)
  seq : int;  (** position in this key's version chain, from 1 *)
  writer : Command.t;  (** the command that created this version *)
}

val create : unit -> t
val get : t -> Command.key -> Command.value option
(** Latest live value; [None] if absent or deleted. *)

val write : t -> Command.t -> unit
(** Append a version to the writer's key: a [Put] sets its value, a
    [Delete] removes it. Raises [Invalid_argument] on a [Get]. *)

val versions : t -> Command.key -> version list
(** Oldest first. *)

val keys : t -> Command.key list
(** Every key ever written, in no particular order. *)

val size : t -> int
(** Number of keys ever written. *)
