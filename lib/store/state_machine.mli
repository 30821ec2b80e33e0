(** Deterministic replicated state machine over the multi-version
    store. Each replica owns one instance; commands are applied in
    commit order, and the full applied sequence is retained for the
    consensus checker (common-prefix validation across replicas). It is
    kept in pages: the first doubles from 16 commands to 1,024, later
    ones are appended whole, so nothing is copied past 1,024 commands. *)

type t

val create : unit -> t
val apply : t -> Command.t -> Command.value option
(** Apply the next committed command and return what it read: the
    value a [Get] observed, [None] for writes. No-ops leave the store
    untouched. Duplicate application of the same command id is applied
    again (deduplication is the protocol's job); tests rely on this to
    catch protocols that double-commit. *)

val applied : t -> Command.t list
(** All applied commands, oldest first. *)

val image : t -> Command.t array
(** A fresh copy of {!applied} as an array. *)

val applied_count : t -> int
val store : t -> Kv.t
val key_history : t -> Command.key -> Command.t list
(** Writers of each version of [key], oldest first — the per-record
    history H^r the consensus checker collects from every node. *)
