(** Fault injection, mirroring the four special commands of the Paxi
    client library (§4.2 Availability): [Crash(t)], [Drop(i,j,t)],
    [Slow(i,j,t)] and [Flaky(i,j,t)], plus network partitions.

    Faults are declared as schedules over virtual time and consulted by
    the transport on every delivery. The schedule caches the rules
    active at the last query time together with the gap between the
    window edges around it, and rebuilds that set only when a query
    leaves the gap or a rule is added or cleared. Queries may come in
    any time order, and answers and RNG draws always equal a scan of
    the whole schedule. A query with no active rule allocates
    nothing. *)

type t

val create : unit -> t

val crash : t -> node:Address.t -> from_ms:float -> duration_ms:float -> unit
(** Freeze [node]: while crashed it neither processes nor emits
    messages; in-flight messages addressed to it are dropped. *)

val drop : t -> src:Address.t -> dst:Address.t -> from_ms:float -> duration_ms:float -> unit
(** Drop every message from [src] to [dst] during the window. *)

val slow :
  t ->
  src:Address.t ->
  dst:Address.t ->
  from_ms:float ->
  duration_ms:float ->
  extra_ms:float ->
  unit
(** Delay messages on the link by a random amount in [\[0, extra_ms\]]. *)

val flaky :
  t ->
  src:Address.t ->
  dst:Address.t ->
  from_ms:float ->
  duration_ms:float ->
  p_drop:float ->
  unit
(** Drop each message on the link independently with probability
    [p_drop]. *)

val partition :
  t -> groups:Address.t list list -> from_ms:float -> duration_ms:float -> unit
(** Nodes can only talk within their own group during the window. *)

val skew :
  t ->
  node:Address.t ->
  from_ms:float ->
  duration_ms:float ->
  offset_ms:float ->
  unit
(** Shift [node]'s local clock by [offset_ms] (either sign) during the
    window. Only protocol-visible time is skewed — event scheduling
    and message delivery are untouched — so the fault attacks exactly
    the clock reads that lease expiry depends on. *)

val is_crashed : t -> now_ms:float -> Address.t -> bool

val is_empty : t -> bool
(** No rule has been added since creation or the last {!clear}. *)

val crash_windows : t -> Address.t -> (float * float) list
(** All crash windows scheduled for [node], oldest-first, as
    [(from_ms, until_ms)] pairs — including windows already expired at
    query time. Lets the cluster engine pre-schedule crash and
    recovery edges for the whole run. *)

val clock_offset : t -> now_ms:float -> Address.t -> float
(** Sum of the active skew offsets for a node at [now_ms]; 0 when no
    skew window covers the instant. Deterministic — consults no RNG —
    so a schedule without skew rules leaves runs byte-identical. *)

val should_drop : t -> Rng.t -> now_ms:float -> src:Address.t -> dst:Address.t -> bool
(** Combined verdict of crash/drop/flaky/partition rules. *)

val extra_delay : t -> Rng.t -> now_ms:float -> src:Address.t -> dst:Address.t -> float
(** Additional latency from active [slow] rules (ms). *)

val clear : t -> unit
(** Remove every rule and invalidate the active-set cache, so rules
    added afterwards behave exactly as on a fresh schedule (a cleared
    schedule never resurrects expired windows). *)

val rule_count : t -> int

val to_json : t -> Json.t
(** Serialize the schedule, preserving the order rules were added in
    (flaky rules consume RNG draws in rule order, so order is part of
    behaviour). *)
