(* Greedy delta-debugging over fault schedules. The predicate
   [still_fails] re-runs the trial, so every probe costs a full
   simulation; the budget caps that. Two passes, each to a fixpoint:

   1. drop whole faults — remove each fault in turn and keep the
      removal whenever the remainder still fails;
   2. halve windows — scale each fault's duration by 0.5 while the
      schedule still fails, down to a floor where further halving
      stops changing verdicts.

   Dropping before halving matters: a schedule of k faults usually
   fails because of one or two of them, and each successful drop
   removes all future probes of that fault. *)

(* windows are not halved below twice this duration *)
let duration_floor_ms = 50.0

let remove_nth xs n = List.filteri (fun i _ -> i <> n) xs

let replace_nth xs n x = List.mapi (fun i y -> if i = n then x else y) xs

let shrink ?(budget = 150) ~still_fails schedule =
  let probes = ref 0 in
  let try_probe candidate =
    if !probes >= budget then false
    else begin
      incr probes;
      still_fails candidate
    end
  in
  (* pass 1: drop whole faults, restarting after every success so the
     indices stay aligned with the shrunk list *)
  let rec drop_pass schedule =
    let len = List.length schedule in
    let rec try_at i =
      if i >= len then schedule
      else
        let candidate = remove_nth schedule i in
        if candidate <> [] && try_probe candidate then drop_pass candidate
        else try_at (i + 1)
    in
    if len <= 1 then schedule else try_at 0
  in
  let schedule = drop_pass schedule in
  (* pass 2: halve each fault's window while the schedule still fails *)
  let rec halve_at schedule i =
    if i >= List.length schedule then schedule
    else
      let fault = List.nth schedule i in
      if Schedule.duration_of fault /. 2.0 < duration_floor_ms then
        halve_at schedule (i + 1)
      else
        let candidate = replace_nth schedule i (Schedule.scale_duration fault 0.5) in
        if try_probe candidate then halve_at candidate i
        else halve_at schedule (i + 1)
  in
  (halve_at schedule 0, !probes)
