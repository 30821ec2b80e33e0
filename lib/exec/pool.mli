(** Work-stealing pool of OCaml 5 domains for embarrassingly parallel
    experiment sweeps.

    Every point of the paper's evaluation grid (protocol x concurrency
    x topology) is an independent deterministic simulation with its own
    seeded RNG, so a sweep is a list of thunks that can be evaluated on
    any domain in any order. The pool distributes thunks round-robin
    across per-worker deques; a worker that drains its own deque steals
    from the back of its siblings', so stragglers (e.g. long WAN
    locality runs) do not serialize the batch. Results are returned in
    submission order regardless of which domain ran what.

    A pool with [jobs = 1] spawns no domains and evaluates thunks
    in the calling domain, in order — the sequential escape hatch
    ([PAXI_JOBS=1]) used to check that parallel output is
    byte-identical.

    Thunks must not share mutable state and must not themselves call
    back into the same pool (batches are not reentrant). *)

type t

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains; the caller
    participates as the last worker during {!run_list}. [jobs]
    defaults to [PAXI_JOBS] if set to a positive integer, otherwise
    [Domain.recommended_domain_count ()] (the calling domain plus
    [recommended_domain_count () - 1] workers). Raises
    [Invalid_argument] when [jobs < 1]. *)

val run_list : t -> (unit -> 'a) list -> 'a list
(** Evaluate every thunk and return results in input order. If any
    thunk raises, the remaining thunks still run and the first
    exception (by completion time) is re-raised afterwards. Must be
    called from the domain that created the pool. *)

val shutdown : t -> unit
(** Join the worker domains. Idempotent; the pool must not be used
    afterwards. *)

val default : unit -> t
(** Shared lazily-created pool sized as {!create}'s default; shut down
    automatically at exit. *)
