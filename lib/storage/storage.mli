(** Stable storage modeled as a second service queue.

    One instance per replica: protocols write persistent records
    ({!set_reg}, {!append}, {!truncate}, {!write_snapshot}: ballot/term
    registers, accepted log entries, snapshots) and call
    {!sync} or {!after} with the continuation that sends the ack they
    owe — the continuation runs only after the simulated fsync
    completes, which puts the disk on the critical path exactly as the
    paper's dissection framework demands. Records become durable at
    fsync {e completion}; {!crash} loses the unsynced tail, and
    recovery reads back only the durable image. The vocabulary is
    protocol-agnostic (integer registers; [(index, a, b, cmd)] log
    entries; applied-command snapshot images) so this library sits
    below the protocol layer.

    A replica without [Config.storage] writes to {!volatile}, so a
    protocol keeps one durable path for memory-only runs too. *)

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

type t

val create :
  config:config ->
  sim:Sim.t ->
  timers:Timers.t ->
  t
(** Device events (fsync completions, group-commit flushes) are
    scheduled on [sim] and tracked in [timers], the owner's crash
    domain, so they die with the replica. Every array is allocated on
    first use. *)

val volatile : t
(** The memory-only device: writers record nothing, {!sync} and
    {!after} run their continuation at once, reads are empty, {!crash}
    does nothing, [snapshot_threshold] is 0 and {!totals} is
    {!no_totals}. Never mutated: one value serves every domain. *)

val snapshot_threshold : t -> int

(** {2 Records}

    Each writer appends one record to the unsynced tail; it stays
    volatile until a {!sync} covering it completes. Writing a record
    allocates nothing. *)

val set_reg : t -> int -> int -> unit
(** [set_reg t idx v]: register [idx] := [v]. *)

val append : t -> index:int -> a:int -> b:int -> Command.t -> unit
(** Log slot [index] := [(a, b, cmd)]; [a]/[b] are protocol tags
    (paxos: accepted ballot round/owner; raft: entry term). A slot
    below {!log_base} at fsync completion is ignored. *)

val truncate : t -> upto:int -> unit
(** Discard the log slots below [upto]. *)

val write_snapshot : t -> last_index:int -> a:int -> Command.t array -> unit
(** State-machine image through slot [last_index] (inclusive), with
    [a] the protocol tag of that slot (raft: its term); the image is
    the applied-command prefix, replayable in order. *)

val sync : t -> (unit -> unit) -> unit
(** Make the tail durable, then run the continuation. [Sync_none] is
    synchronous; [Sync_every] schedules one fsync on the FIFO device;
    [Sync_batched] joins the open group-commit window. Continuations
    run in sync order. The device allocates nothing for a sync. *)

val after : t -> ('a -> 'b -> unit) -> 'a -> 'b -> unit
(** [after t f a b] is [sync t (fun () -> f a b)], except that on
    {!volatile} it calls [f a b] directly and builds no closure. An
    ack is [after t env.send dst msg]. *)

val crash : t -> unit
(** Lose every record not yet durable (counted in [lost_writes]),
    drop the continuations waiting on them, invalidate any in-flight
    fsync completions, and reset the device clock. The durable image
    survives. *)

(** {2 Recovery reads} *)

val reg : t -> int -> int
(** Durable register value; 0 if never written. *)

val log_base : t -> int
val log_top : t -> int
val snapshot : t -> (int * int * Command.t array) option
val durable_entries : t -> int
val iter_entries : t -> f:(int -> a:int -> b:int -> Command.t -> unit) -> unit
(** Durable log slots in index order, [log_base .. log_top). *)

val replay_cost_ms : t -> float
(** Simulated time to replay the retained log at recovery
    ([replay_ms_per_cmd] × retained entries); loading the snapshot
    image itself is modeled as free. *)

(** {2 Metrics} *)

type totals = {
  writes : int;  (** records written *)
  fsyncs : int;  (** fsyncs issued *)
  busy_ms : float;
      (** simulated time the device spent servicing fsyncs;
          [busy_ms /. fsyncs] is the mean fsync service time *)
  lost_writes : int;  (** records discarded by crashes before durable *)
  syncs : int;  (** syncs whose continuation ran *)
  sync_wait_ms : float;
      (** summed wait from each of those syncs to its continuation —
          queueing behind earlier fsyncs and the group-commit window
          included; [sync_wait_ms /. syncs] is the mean the dissect
          gate compares against the model's fsync term *)
}

val no_totals : totals
val totals : t -> totals
val add_totals : totals -> totals -> totals
