(** The replica's flat int-keyed table: open-addressed, each entry an
    int key, an int value and a one-byte tag, with no heap block per
    entry. {!Kv} (key → latest value) and the executor's memo (packed
    [(client, id)] → read result) are both one. *)

val slot : int -> mask:int -> int
(** Home slot of [k] in a power-of-two table: in [0, mask], [mask]
    being the capacity minus one. *)

type t

val free : char
(** The tag of an empty slot; callers tag entries with other chars. *)

val create : unit -> t

val find : t -> int -> int
(** The slot holding the key, or the free slot where it would go. *)

val tag : t -> int -> char
val value : t -> int -> int

val set : t -> int -> int -> char -> int -> unit
(** [set t i k tag v], with [i = find t k]: store [v] under [k] with a
    tag other than {!free}. A new key may grow the table, which moves
    every slot. *)

val keys : t -> int list
(** Every key in the table, in no particular order. *)

val count : t -> int
val capacity : t -> int
