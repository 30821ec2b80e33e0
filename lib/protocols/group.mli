(** Intra-zone replication group with a fixed leader: the level-1
    building block of the hierarchical protocols (WanKeeper's
    per-region Paxos groups, VPaxos's Paxos groups).

    The group runs phase-2-only multi-Paxos among its members — the
    leader is configuration-fixed, so phase-1 is implicit, matching
    the paper's deployment where each region's group leader is
    pre-designated. Commands commit on a majority of members and
    execute in log order on every member. *)

type message =
  | Accept of { slot : int; cmd : Command.t; commit_up_to : int }
  | AcceptOk of { slot : int }
  | Commit of { slot : int; cmd : Command.t }

val message_label : message -> string
(** Constructor tag (["Accept"], ...) for the enclosing protocol's
    per-message-type tracing counters. *)

type t

val create :
  env:'outer Proto.env ->
  wrap:(message -> 'outer) ->
  members:int list ->
  leader:int ->
  exec:Executor.t ->
  on_executed:(Command.t -> Address.t option -> Command.value option -> unit) ->
  t
(** [wrap] embeds group messages into the enclosing protocol's message
    type; [on_executed cmd client read] fires on every member as
    commands execute (the protocol replies to [client] from the
    leader). *)

val is_leader : t -> bool
val leader : t -> int
val members : t -> int list

val propose : t -> client:Address.t option -> Command.t -> unit
(** Leader-only; raises [Invalid_argument] elsewhere. *)

val on_message : t -> src:int -> message -> unit

val last_proposed_slot : t -> int
(** Highest slot this leader has proposed; -1 before the first
    proposal. *)

val frontier : t -> int
(** First unexecuted slot. Together with {!last_proposed_slot} this
    lets a protocol detect that its in-flight proposals have
    drained. *)
