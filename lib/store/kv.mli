(** In-memory key-value datastore (§4.1 Data store): each key's latest
    value and nothing else.

    Paxi's store is multi-version so that the consensus checker can
    compare per-node histories. Here a key's history is derived from
    the replica's applied sequence instead ({!State_machine.key_history}),
    so the store keeps no version and no writer: a write stores one
    int, a read is one probe. *)

type t

val create : unit -> t
val get : t -> Command.key -> Command.value option
(** Latest live value; [None] if absent or deleted. *)

val write : t -> Command.t -> unit
(** A [Put] sets its key's value, a [Delete] removes it. Raises
    [Invalid_argument] on a [Get]. *)

val slot : t -> Command.key -> int
(** Where [key] is, or would go: below {!capacity}, one slot per key
    present, fixed until a new key is written. *)

val capacity : t -> int

val keys : t -> Command.key list
(** Every key ever written, deleted ones included, in no particular
    order. *)

val size : t -> int
(** Number of keys ever written. *)
