(** Virtual-time discrete-event scheduler.

    All simulated components (network links, node processing queues,
    clients, fault injectors) schedule thunks on one shared [Sim.t];
    [run_until] drains events in timestamp order while advancing the
    virtual clock. Time is in milliseconds, matching the paper's
    latency units.

    Events are totally ordered by (time, sequence number). Zero-delay
    events — those scheduled at exactly the current clock — go through
    a FIFO lane instead of the heap, and [try_inline] lets the network
    layer run a provably next-in-order continuation without scheduling
    it at all. Both preserve the exact firing order of the plain
    heap-only scheduler. *)

type t

type handle
(** Cancellation handle for a scheduled event: an immediate
    (generation, slot) pair, not a heap object. Handles stay valid
    forever — once the event fires or is cancelled, the handle goes
    {e stale} and {!cancel} ignores it — so
    callers keep a plain [handle] (initialized to {!nil}) instead of
    a [handle option]. *)

val nil : handle
(** A handle that never names an event; {!cancel} on it is a no-op. *)

val is_nil : handle -> bool

val create : ?seed:int -> unit -> t
val now : t -> float
(** Current virtual time (ms). *)

val rng : t -> Rng.t
(** The root RNG of this simulation; split it for per-component
    streams. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** Schedule a thunk at an absolute virtual time. Scheduling in the
    past raises [Invalid_argument]; scheduling at exactly [now] lands
    in the zero-delay lane (same order, O(1)). *)

val schedule_after : t -> delay:float -> (unit -> unit) -> handle
(** Schedule relative to [now]; negative delays are clamped to 0. *)

val schedule_immediate : t -> (unit -> unit) -> handle
(** Equivalent to [schedule_after ~delay:0.] but skips the clamp and
    heap entirely: the thunk joins the zero-delay FIFO lane. *)

val live : t -> handle -> bool
(** [live t h] is true iff [h] still names a pending, uncancelled
    event: the handle's generation matches its slot's and the slot has
    not been cancelled or fired. Stale handles
    (including {!nil}) are [false]. Lets ownership registries
    ({!Timers}) sweep dead handles without bookkeeping on the firing
    path. *)

val cancel : t -> handle -> unit
(** A cancelled event never runs (it is not counted and draws no
    randomness). A heap event is removed from the heap at once, in
    O(log n), and its slot and thunk are released. A zero-delay lane
    event stays queued, marked, and is skipped when it reaches the
    front. Idempotent; stale handles — {!nil}, already fired, already
    cancelled — are ignored. *)

val run_until : t -> float -> unit
(** Process every event with timestamp [<= horizon], advancing the
    clock; afterwards the clock reads [horizon]. *)

val run : t -> unit
(** Drain all pending events (the queue must be finite: protocols
    driven by closed-loop clients terminate when clients stop). *)

val step : t -> bool
(** Process exactly one event. Returns [false] when the queue is
    empty. Inline execution ({!try_inline}) is disabled under [step]
    so harnesses observe one event per call. *)

val try_inline : t -> time:float -> (unit -> unit) -> bool
(** [try_inline t ~time thunk] runs [thunk] immediately with the clock
    advanced to [time] — counting it as a fired event — iff doing so
    is indistinguishable from [schedule_at t ~time thunk]: we are
    inside [run]/[run_until], [now <= time <= horizon], and no pending
    event (heap or lane) precedes [(time, fresh seq)]. Returns [false]
    without side effects otherwise; the caller must then schedule
    normally. *)

val pending : t -> int
(** Number of scheduled events still queued: uncancelled ones plus any
    cancelled lane entries not yet reached. A cancelled heap event
    leaves the count at once. *)

val events_fired : t -> int
(** Number of event thunks executed so far (cancelled events are not
    counted) — the denominator-free simulator throughput metric
    reported by the perf guard. Includes inlined continuations, so the
    total matches a run with inlining disabled. *)

val events_inlined : t -> int
(** How many of {!events_fired} ran inline via {!try_inline} instead
    of through the queue. *)
