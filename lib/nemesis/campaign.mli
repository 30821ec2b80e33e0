(** Nemesis campaign: a batch of independent fault-schedule trials for
    one protocol, fanned across the shared domain pool, with failing
    schedules shrunk to one-line repros.

    Every trial's seed is derived from its identity (protocol, root
    seed, trial index) — never from scheduling order — so reports are
    byte-identical at any [PAXI_JOBS]. *)

type outcome = {
  trial : int;
  seed : int;  (** the derived per-trial seed; replays the trial *)
  schedule : Schedule.t;  (** as generated *)
  verdict : Trial.verdict;
  shrunk : (Schedule.t * int) option;
      (** failing trials only: minimized schedule and probe count *)
}

type report = {
  protocol : string;
  root_seed : int;
  trials : int;
  max_faults : int;
  passed : int;
  outcomes : outcome list;  (** every trial, in index order *)
  failures : outcome list;
  deployment : string list;
      (** the deployment flags the trials ran with ([-n],
          [--relay-groups], [--shards], [--read-ratio], [--read-path],
          [--arrival]), in the bench CLI's spelling; empty at the
          defaults *)
}

val run :
  ?pool:Paxi_exec.Pool.t ->
  ?shrink_budget:int ->
  ?max_faults:int ->
  ?n:int ->
  ?read_ratio:float ->
  ?read_path:Config.read_path ->
  ?relay_groups:int ->
  ?shards:int ->
  ?arrival:Paxi_benchmark.Runner.arrival ->
  ?skew:bool ->
  protocol:string ->
  trials:int ->
  seed:int ->
  unit ->
  report
(** Run [trials] independent trials ([max_faults] defaults to 4).
    Shrinking runs inside each trial's task, so pooling schedules
    whole trials. [?n] overrides the profile's cluster size;
    [?read_ratio]/[?read_path] set every trial's read share and
    read-serving strategy; [?arrival] is the aggregate offered load
    ({!Trial.run}); [?relay_groups] routes paxos/raft rounds through
    relay trees — the relay-crash campaign; [?skew] (default false)
    lets the generator draw clock-skew faults — with the read knobs,
    the adversarial read campaign. *)

val repro_line : report -> seed:int -> Schedule.t -> string
(** The exact CLI invocation that replays a (shrunk) failing trial of
    the campaign: its protocol and deployment flags, the trial's seed
    and the schedule. *)

val to_json : report -> Json.t
(** Deterministic report encoding; CI diffs this across [PAXI_JOBS]
    settings. Besides the verdicts it carries every trial's outputs
    under ["results"]: completed, gave_up, messages sent, simulator
    events, retransmits and the in-window p50/p99 latency as [%h]
    bits. *)

val pp : Format.formatter -> report -> unit
