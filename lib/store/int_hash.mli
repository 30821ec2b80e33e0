(** Home slot of an int key in a power-of-two, open-addressed table:
    the shared hash of the replica's flat tables (the executor's memo
    and {!Kv}'s key index). *)

val slot : int -> mask:int -> int
(** [slot k ~mask] is in [0, mask]; [mask] is the capacity minus one. *)
