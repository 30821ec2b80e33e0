(** Exactly-once command execution over a replica's state machine.

    Consensus may decide the same command in more than one slot when
    clients retry after a timeout; the executor applies each distinct
    [(client, id)] once and memoizes the result so re-decided commands
    still produce a reply with the original read value. The memo key
    packs the pair into one int, so ids are taken modulo [2^32] and
    client ids must fit in 31 bits. *)

type t

val create : unit -> t

val execute : t -> Command.t -> Command.value option
(** Apply the command (or recall its memoized result) and return the
    read value. No-ops return [None] and are not applied. *)

val read : t -> Command.t -> Command.value option
(** Peek at the current value of a [Get]'s key without consuming a
    slot or touching the memo table — the fast read path (lease, ABD
    and tail reads). Returns [None] for writes and absent keys. *)

val already_executed : t -> Command.t -> bool
val state_machine : t -> State_machine.t
val executed_count : t -> int
(** Distinct commands applied (excludes no-ops and duplicates). *)

val image : t -> Command.t array
(** The applied-command prefix, oldest first: a snapshot image that
    {!install} replays to rebuild the store, memo table and applied
    sequence exactly (no-ops are never applied, so never appear). *)

val install : t -> Command.t array -> unit
(** Reset to [image]: replay every command through a fresh state
    machine, deterministically reconstructing the KV — the receiving
    half of snapshot install and crash recovery. *)
