(** The ABD round (Attiya, Bar-Noy, Dolev): one shared layer under
    every protocol that reads or writes linearizably over majority
    quorums without a leader — {!Abd}, which runs every operation
    through it, and Paxos's quorum read path ([read_path = Quorum]),
    which runs reads over shadow registers fed from its applied log.

    Each replica keeps one register per key holding a
    [(timestamp, writer)] tag and a value; stores are monotone
    ({!adopt}). A coordinator runs one round per operation: {e query}
    a majority for their registers and keep the freshest tag, then
    {e store} to a majority — the winner itself for a read (the
    write-back that makes the read linearizable), or a new value under
    a strictly larger tag owned by the coordinator for a write — then
    {e finish}. The coordinator is a quorum member: its own register
    seeds each phase and its own vote is cast first, so after each
    phase the round checks whether that vote already is the quorum
    (n = 1) and moves on without waiting for replies.

    The enclosing protocol supplies only its message wrapper and what
    to do when a round finishes. No randomness, no timers. *)

type tag = int * int
(** [(timestamp, writer id)], ordered lexicographically; [(0, -1)] is
    the tag of a never-written register. *)

type message =
  | Query of { rid : int; key : Command.key }
  | QueryR of { rid : int; tag : tag; value : Command.value option }
  | Store of {
      rid : int;
      key : Command.key;
      tag : tag;
      value : Command.value option;
    }
  | StoreR of { rid : int }

val message_label : message -> string
(** Constructor tag (["Query"], ...) for the enclosing protocol's
    per-message-type tracing counters. *)

type t

val create :
  env:'outer Proto.env ->
  wrap:(message -> 'outer) ->
  finish:(client:Address.t -> Command.t -> Command.value option -> unit) ->
  t
(** [wrap] embeds round messages into the enclosing protocol's message
    type. [finish ~client cmd read] fires at the coordinator once
    [cmd]'s round completes; [read] is the value a read observed
    ([None] for a write). *)

val start : t -> client:Address.t -> Command.t -> unit
(** Coordinate one operation: a [Get] reads its key, a [Put] or
    [Delete] writes it. *)

val on_message : t -> src:int -> message -> unit

val adopt : t -> Command.key -> tag:tag -> Command.value option -> unit
(** Install [(tag, value)] in the local register iff [tag] is strictly
    newer; stale and duplicate stores are no-ops. *)

val completed : t -> int
(** Rounds this replica coordinated to the end. *)

val stored_tag : t -> Command.key -> tag option
(** The tag this replica stores for a key; [None] while unwritten. *)
