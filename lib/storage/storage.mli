(** Stable storage modeled as a second service queue.

    One instance per replica: protocols {!write} persistent records
    (ballot/term registers, accepted log entries, snapshots) and call
    {!sync} with the continuation that sends the ack they owe — the
    continuation runs only after the simulated fsync completes, which
    puts the disk on the critical path exactly as the paper's
    dissection framework demands. Records become durable at fsync
    {e completion}; {!crash} loses the unsynced tail, and recovery
    reads back only the durable image. The vocabulary is
    protocol-agnostic (integer registers; [(index, a, b, cmd)] log
    entries; applied-command snapshot images) so this library sits
    below the protocol layer. *)

type sync_mode =
  | Sync_none  (** durability is free: synchronous, no events *)
  | Sync_batched  (** group commit: one fsync per [batch_window_ms] *)
  | Sync_every  (** one fsync per {!sync} *)

val mode_to_string : sync_mode -> string
val mode_of_string : string -> (sync_mode, string) result

type config = {
  sync_mode : sync_mode;
  fsync_ms : float;
  batch_window_ms : float;
  snapshot_threshold : int;
  replay_ms_per_cmd : float;
}

val default_config : config
val validate_config : config -> (config, string) result
val config_to_json : config -> Json.t
val config_of_json : Json.t -> (config, string) result

type entry = { a : int; b : int; cmd : Command.t }
(** One durable log slot: [a]/[b] are protocol tags (paxos: accepted
    ballot round/owner; raft: entry term), [cmd] the command. *)

type op =
  | Reg of int * int
  | Entry of int * entry
  | Truncate of int
  | Snapshot of int * int * Command.t array

type t

val create :
  config:config ->
  sim:Sim.t ->
  schedule:(float -> (unit -> unit) -> unit) ->
  t
(** [schedule delay k] must route through the owner's crash-domain
    timer registry so fsync completions die with the replica. *)

val mode : t -> sync_mode
val snapshot_threshold : t -> int

val write : t -> op -> unit
(** Append a record to the unsynced tail (volatile until a sync
    covering it completes). *)

val sync : t -> (unit -> unit) -> unit
(** Make the tail durable, then run the continuation. [Sync_none] is
    synchronous; [Sync_every] schedules one fsync on the FIFO device;
    [Sync_batched] joins the open group-commit window. *)

val persist : t -> op list -> (unit -> unit) -> unit
(** [write] each op, then [sync]. *)

val crash : t -> unit
(** Lose the unsynced tail (counted in {!lost_writes}), invalidate any
    in-flight fsync completions, and reset the device clock. The
    durable image survives. *)

(** {2 Recovery reads} *)

val reg : t -> int -> int
(** Durable register value; 0 if never written. *)

val log_base : t -> int
val log_top : t -> int
val snapshot : t -> (int * int * Command.t array) option
val durable_entries : t -> int
val iter_entries : t -> f:(int -> entry -> unit) -> unit
(** Durable log slots in index order, [log_base .. log_top). *)

val replay_cost_ms : t -> float
(** Simulated time to replay the retained log at recovery
    ([replay_ms_per_cmd] × retained entries); loading the snapshot
    image itself is modeled as free. *)

(** {2 Metrics} *)

val writes : t -> int
val fsyncs : t -> int
val busy_ms : t -> float
(** Total simulated time the device spent servicing fsyncs;
    [busy_ms /. fsyncs] is the measured mean fsync latency the dissect
    gate compares against the model term. *)

val lost_writes : t -> int
(** Records discarded by crashes before their fsync completed. *)
