(** Single-queue waiting-time approximations — Table 1 of the paper.

    Each node is one queue combining CPU and NIC (§3.2). Given an
    arrival rate [lambda] (rounds/sec) and a service rate [mu]
    (rounds/sec), these return the expected queue waiting time Wq in
    {e seconds}; callers convert to ms. All models require utilization
    [rho = lambda / mu < 1]; saturated queues return [infinity]. *)

type kind =
  | Mm1  (** Poisson arrivals, exponential service *)
  | Md1  (** Poisson arrivals, constant service *)
  | Mg1 of { service_cv2 : float }
      (** Poisson arrivals, general service with squared coefficient
          of variation [service_cv2] = σ²µ² *)
  | Gg1 of { arrival_cv2 : float; service_cv2 : float }
      (** Allen–Cunneen style approximation for general arrivals and
          service *)

val wait_time : kind -> lambda:float -> mu:float -> float
(** Expected wait Wq (seconds). *)

