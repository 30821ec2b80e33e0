(** Greedy schedule shrinker: given a failing fault schedule and a
    predicate that re-runs the trial, find a smaller schedule that
    still fails — first by dropping whole faults, then by halving the
    surviving windows. *)

val shrink :
  ?budget:int ->
  still_fails:(Schedule.t -> bool) ->
  Schedule.t ->
  Schedule.t * int
(** [shrink ~still_fails s] returns a minimized schedule that still
    satisfies [still_fails], plus the number of predicate probes
    spent. [s] itself must already fail; the result is [s] unchanged
    when no probe succeeds. At most [budget] probes (default 150) are
    attempted. *)
