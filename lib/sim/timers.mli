(** Timer ownership registry for crash domains.

    Wraps a replica's [Sim.schedule_*] handles so that a nemesis crash
    can mass-cancel every pending event the replica owns (election
    clocks, heartbeats, retransmit backoffs, storage fsync
    completions). Without this, timers scheduled before the crash fire
    into the recovered instance — the "pause-not-crash" bug. Tracking
    is O(1) amortized; handles of events that already fired are swept
    lazily via {!Sim.live} when the vector fills. *)

type t

val create : Sim.t -> t

val track : t -> Sim.handle -> Sim.handle
(** Register a handle with this owner and return it unchanged, so call
    sites read [Timers.track tm (Sim.schedule_after sim ~delay f)]. *)

val cancel_all : t -> unit
(** Cancel every still-live tracked event and empty the registry. Used
    at the crash edge; each cancel removes its heap entry and releases
    its slot at once. *)

val live_count : t -> int
(** Number of tracked events still pending (test/debug aid). *)

val cancelled_total : t -> int
(** Cumulative events killed by {!cancel_all} over this registry's
    lifetime — surfaces in recovery accounting. *)
