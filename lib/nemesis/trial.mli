(** One nemesis trial: run a protocol cluster under a fault schedule
    and judge the outcome with the offline oracles.

    The oracle combines three judgments:
    - {e safety}: the client-observed history is linearizable
      ({!Paxi_benchmark.Linearizability.check}) and, for protocols
      that maintain one global replicated state machine, the
      per-replica state machines share common-prefix per-key histories
      ({!Paxi_benchmark.Consensus_check.check});
    - {e liveness}: some client operation invoked after the last fault
      window lifts still completes — commits resume once the network
      heals;
    - {e progress}: the run completed at least one operation at all.

    Each protocol is stressed only with the fault kinds its
    implementation has a recovery path for; the profile table in
    [trial.ml] doubles as documentation of each family's fault
    tolerance. *)

val horizon_ms : float
(** Fault windows start inside [\[0, 0.75 * horizon_ms)]. *)

type verdict = {
  ok : bool;
  reasons : string list;  (** why the trial failed; [] when [ok] *)
  completed : int;
  gave_up : int;
  anomalies : int;  (** linearizability anomalies *)
  divergences : int;  (** consensus-check violations *)
  recoveries : int;
      (** crash-recovery edges completed (0 on memory-only trials) *)
  replay_ms_total : float;  (** simulated log-replay time at recovery *)
  timers_cancelled : int;  (** timer events mass-cancelled at crashes *)
  messages_sent : int;
  sim_events : int;  (** simulator events the run executed *)
  retransmits : int;  (** reliable-delivery re-sends *)
  p50_ms : float;  (** in-window latency median; [nan] when none *)
  p99_ms : float;
}

val generate :
  ?n:int ->
  ?skew:bool ->
  protocol:string ->
  seed:int ->
  max_faults:int ->
  unit ->
  Schedule.t
(** The schedule a trial with this identity runs: deterministic in
    [(protocol, seed, max_faults)] and gated by the protocol's
    profile. [?n] overrides the profile's cluster size; [?skew]
    (default false) additionally allows clock-skew faults — the
    read-path campaigns enable it to attack lease expiry, while the
    default matrix stays byte-identical to its fixed-seed pins. *)

val config :
  ?n:int ->
  ?read_path:Config.read_path ->
  ?relay_groups:int ->
  ?durable:Storage.config ->
  protocol:string ->
  seed:int ->
  unit ->
  Config.t
(** The cluster configuration {!run} builds from these arguments, for
    a caller to {!Config.validate} before any trial runs. *)

val run :
  ?n:int ->
  ?read_ratio:float ->
  ?read_path:Config.read_path ->
  ?relay_groups:int ->
  ?shards:int ->
  ?arrival:Paxi_benchmark.Runner.arrival ->
  ?durable:Storage.config ->
  protocol:string ->
  seed:int ->
  Schedule.t ->
  verdict
(** Run one simulated cluster of [protocol] under the schedule, with
    closed-loop clients, and judge it. Deterministic in the
    arguments. [?n] overrides the profile's cluster size (zoned
    profiles place [n / 3] replicas per zone); [?read_ratio] sets the
    clients' read share (write ratio [1 - r]) and [?read_path] the
    cluster's read-serving strategy; [?relay_groups] (default 0 =
    direct) routes phase 2 through relay trees — the relay-crash
    campaigns run paxos/raft behind relays and demand commits survive
    relay failures. [?shards] (default 1) runs
    K hash-partitioned groups over the shared fault plane (faults are
    machine-scoped: replica [i] of every group fails together) and
    [?arrival] (default closed-loop) swaps the client pacing model, its
    rate the aggregate split across the trial's three clients, so
    the oracle also covers sharded and open-loop configurations.
    [?durable] (default off) arms the stable-storage model: crashes
    destroy volatile state and recovery boots a fresh replica from
    the durable log (pause-not-crash becomes crash-and-recover), with
    the verdict reporting recovery counts and replay time. All
    default off, preserving the write-path baseline and its
    fixed-seed pins. *)
