(** Virtual-time discrete-event scheduler.

    All simulated components (network links, node processing queues,
    clients, fault injectors) schedule thunks on one shared [Sim.t];
    [run_until] drains events in timestamp order while advancing the
    virtual clock. Time is in milliseconds, matching the paper's
    latency units.

    Events are totally ordered by (time, sequence number). Zero-delay
    events — those scheduled at exactly the current clock — go through
    a FIFO lane instead of the heap, in the same order the heap would
    give them. An {!agent} is a standing event its owner moves to any
    (time, seq) key it claimed: the network layer keeps one per node,
    at that node's next handler call. *)

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
    empty. *)

val on_stop : t -> (unit -> unit) -> unit
(** [on_stop t f] runs [f] whenever {!run} or {!run_until} returns,
    after the clock is final: a component that defers work up to the
    current position settles it there. [f] must schedule nothing. *)

(** {2 Positions and agents} *)

val alloc_seq : t -> int
(** Claim the next sequence number of the (time, seq) order, for a
    key an agent will be set to or for an ordering decision made
    later. *)

val current_seq : t -> int
(** The seq of the event running now: with {!now} it is the current
    position, and a key below [(now, current_seq)] is in the past.
    After {!step} it is the seq of the event just run; after {!run} or
    {!run_until}, a seq above every one claimed before they returned;
    before anything has run, [-1]. *)

type agent
(** A standing event: a slot owned for the life of the simulation,
    firing one fixed thunk each time its key comes up. *)

val agent : ?counted:bool -> t -> (unit -> unit) -> agent
(** A new agent, at rest (not queued). With [~counted:false] its
    firings are not counted in {!events_fired}: bookkeeping that must
    happen at its place in the order but is no event of the simulated
    system. *)

val wake : t -> agent -> time:float -> seq:int -> unit
(** [wake t a ~time ~seq] queues [a] at [(time, seq)], or moves it
    there if it is queued already. The key must not be in the past,
    and [seq] is one claimed with {!alloc_seq} that no other queued
    event holds. Firing takes the agent out of the queue (it runs
    once per wake). *)

val rest : t -> agent -> unit
(** Take [a] out of the queue if it is there. *)

val pending : t -> int
(** Number of scheduled events still queued: uncancelled ones plus any
    cancelled lane entries not yet reached. A cancelled heap event
    leaves the count at once. *)

val events_fired : t -> int
(** Number of event thunks executed so far, counted agents' firings
    included (cancelled events are not counted). *)
