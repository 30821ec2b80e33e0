type t =
  | Closed
  | Open of { rate_per_sec : float }
  | Bursty of { rate_per_sec : float; on_ms : float; off_ms : float }

let validate = function
  | Closed -> Ok ()
  | Open { rate_per_sec } ->
      if rate_per_sec > 0.0 then Ok () else Error "open-loop rate must be > 0"
  | Bursty { rate_per_sec; on_ms; off_ms } ->
      if rate_per_sec <= 0.0 then Error "bursty rate must be > 0"
      else if on_ms <= 0.0 then Error "bursty on_ms must be > 0"
      else if off_ms < 0.0 then Error "bursty off_ms must be >= 0"
      else Ok ()

let rate_per_sec = function
  | Closed -> None
  | Open { rate_per_sec } | Bursty { rate_per_sec; _ } -> Some rate_per_sec

let split t ~count =
  let c = float_of_int count in
  match t with
  | Closed -> Closed
  | Open { rate_per_sec } -> Open { rate_per_sec = rate_per_sec /. c }
  | Bursty { rate_per_sec; on_ms; off_ms } ->
      Bursty { rate_per_sec = rate_per_sec /. c; on_ms; off_ms }

(* The burst-window rate that preserves the requested long-run average:
   all arrivals are squeezed into the on fraction of each cycle. *)
let burst_rate ~rate_per_sec ~on_ms ~off_ms =
  rate_per_sec *. (on_ms +. off_ms) /. on_ms

let next_gap_ms t ~rng ~now_ms =
  match t with
  | Closed -> invalid_arg "Arrival.next_gap_ms: closed loops have no clock"
  | Open { rate_per_sec } ->
      Rng.exponential rng ~rate:(rate_per_sec /. 1000.0)
  | Bursty { rate_per_sec; on_ms; off_ms } ->
      (* On/off modulated (interrupted) Poisson: exponential gaps at the
         burst rate, with the off windows excised from the timeline.
         The exponential's memorylessness lets a draw that overruns the
         current on window carry its residual into the next one, so one
         draw per arrival suffices regardless of how many off windows
         it crosses. Phase is anchored at virtual time 0: cycle i is on
         during [i*(on+off), i*(on+off)+on). *)
      let cycle = on_ms +. off_ms in
      let rate = burst_rate ~rate_per_sec ~on_ms ~off_ms /. 1000.0 in
      let gap = Rng.exponential rng ~rate in
      let pos = Float.rem now_ms cycle in
      (* wait out the current off window (only possible for the very
         first tick, whose start jitter may land there) *)
      let wait = ref (if pos < on_ms then 0.0 else cycle -. pos) in
      let p = ref (if pos < on_ms then pos else 0.0) in
      let g = ref gap in
      while !p +. !g > on_ms do
        wait := !wait +. (on_ms -. !p) +. off_ms;
        g := !g -. (on_ms -. !p);
        p := 0.0
      done;
      !wait +. !g
