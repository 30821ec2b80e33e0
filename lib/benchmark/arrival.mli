(** Pluggable client arrival models. The legacy closed loop waits for
    each reply before issuing the next command (throughput is then set
    by concurrency, the paper's sweep mode); open-loop models issue on
    their own clock regardless of outstanding replies, which is what a
    production front door does — offered load keeps arriving whether or
    not the system keeps up, so saturation shows as unbounded queueing
    rather than a throughput plateau. *)

type t =
  | Closed  (** next request issues when the previous one resolves *)
  | Open of { rate_per_sec : float }
      (** Poisson arrivals: i.i.d. exponential inter-arrival gaps with
          mean [1000 / rate_per_sec] ms — the analytic model's arrival
          assumption (§3.2) *)
  | Bursty of { rate_per_sec : float; on_ms : float; off_ms : float }
      (** On/off modulated Poisson: the same long-run average rate, but
          all arrivals are squeezed into periodic on windows ([on_ms]
          every [on_ms + off_ms]), so the instantaneous rate during a
          burst is [rate * (on+off)/on]. Models diurnal spikes and
          thundering herds. *)

val validate : t -> (unit, string) result

val rate_per_sec : t -> float option
(** Long-run average arrival rate; [None] for [Closed]. *)

val split : t -> count:int -> t
(** One of [count] equal streams whose rates sum to [t]'s. *)

val next_gap_ms : t -> rng:Rng.t -> now_ms:float -> float
(** Milliseconds from [now_ms] until the next arrival. Draws exactly
    one exponential per call for both open-loop models ([Bursty]
    carries residual gaps across off windows by memorylessness, and
    deterministically skips the off part of each cycle). Raises
    [Invalid_argument] on [Closed], which has no arrival clock. *)
