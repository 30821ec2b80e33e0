open Paxi_benchmark

type outcome = {
  trial : int;
  seed : int;
  schedule : Schedule.t;
  verdict : Trial.verdict;
  shrunk : (Schedule.t * int) option;  (** (minimal schedule, probes) *)
}

type report = {
  protocol : string;
  root_seed : int;
  trials : int;
  max_faults : int;
  passed : int;
  outcomes : outcome list;
  failures : outcome list;
  deployment : string list;
}

(* Each trial's seed hashes its own identity (protocol, root seed,
   index), never its rank in some work queue, so fanning the campaign
   across a pool of any size — or running it twice — yields the same
   schedules, the same verdicts, and the same shrunk repros. *)
let trial_seed ~protocol ~root index =
  Runner.derive_seed ~root (Hashtbl.hash (protocol, index))

let run_trial ?n ?read_ratio ?read_path ?relay_groups ?shards ?arrival ~skew
    ~protocol ~root ~max_faults ~shrink_budget index =
  let seed = trial_seed ~protocol ~root index in
  let schedule = Trial.generate ?n ~skew ~protocol ~seed ~max_faults () in
  let trial =
    Trial.run ?n ?read_ratio ?read_path ?relay_groups ?shards ?arrival
      ~protocol ~seed
  in
  let verdict = trial schedule in
  let shrunk =
    if verdict.Trial.ok then None
    else
      Some
        (Shrink.shrink ~budget:shrink_budget
           ~still_fails:(fun candidate -> not (trial candidate).Trial.ok)
           schedule)
  in
  { trial = index; seed; schedule; verdict; shrunk }

(* The deployment flags in the bench CLI's spelling (a lease is its
   300 ms margin). Floats print in the shortest of %.15g / %.17g that
   reads back exactly: a repro replays the very rate the trial ran. *)
let deployment_flags ?n ?read_ratio ?read_path ?relay_groups ?shards ?arrival
    () =
  let exact x =
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x
  in
  let flag name show = Option.fold ~none:[] ~some:(fun v -> [ name; show v ]) in
  List.concat
    [
      flag "-n" string_of_int n;
      flag "--relay-groups" string_of_int relay_groups;
      flag "--shards" string_of_int shards;
      flag "--read-ratio" exact read_ratio;
      flag "--read-path"
        (function
          | Config.Lease _ -> "lease" | Quorum -> "quorum" | Tail -> "tail")
        read_path;
      flag "--arrival"
        (function
          | Runner.Closed -> "closed"
          | Open { rate_per_sec } -> "poisson:" ^ exact rate_per_sec
          | Bursty { rate_per_sec = r; on_ms; off_ms } ->
              String.concat ":" [ "bursty"; exact r; exact on_ms; exact off_ms ])
        arrival;
    ]

let run ?pool ?(shrink_budget = 120) ?(max_faults = 4) ?n ?read_ratio
    ?read_path ?relay_groups ?shards ?arrival ?(skew = false) ~protocol
    ~trials ~seed () =
  (* shrinking happens inside the trial task, so a pool schedules whole
     trials and determinism needs nothing beyond per-trial seeds *)
  let outcomes =
    Paxi_exec.Parmap.map ?pool
      (run_trial ?n ?read_ratio ?read_path ?relay_groups ?shards ?arrival
         ~skew ~protocol ~root:seed ~max_faults ~shrink_budget)
      (List.init trials Fun.id)
  in
  let failures = List.filter (fun o -> not o.verdict.Trial.ok) outcomes in
  {
    protocol;
    root_seed = seed;
    trials;
    max_faults;
    passed = trials - List.length failures;
    outcomes;
    failures;
    deployment =
      deployment_flags ?n ?read_ratio ?read_path ?relay_groups ?shards
        ?arrival ();
  }

let repro_line r ~seed schedule =
  Printf.sprintf "bench/main.exe -- nemesis --protocol %s%s --seed %d --replay '%s'"
    r.protocol
    (String.concat "" (List.map (( ^ ) " ") r.deployment))
    seed
    (Json.to_string (Schedule.to_json schedule))

let outcome_to_json o =
  let base =
    [
      ("trial", Json.Number (float_of_int o.trial));
      ("seed", Json.Number (float_of_int o.seed));
      ("schedule", Schedule.to_json o.schedule);
      ("ok", Json.Bool o.verdict.Trial.ok);
      ( "reasons",
        Json.List (List.map (fun r -> Json.String r) o.verdict.Trial.reasons) );
      ("completed", Json.Number (float_of_int o.verdict.Trial.completed));
      ("gave_up", Json.Number (float_of_int o.verdict.Trial.gave_up));
    ]
  in
  let shrunk =
    match o.shrunk with
    | None -> []
    | Some (s, probes) ->
        [
          ("shrunk", Schedule.to_json s);
          ("shrink_probes", Json.Number (float_of_int probes));
        ]
  in
  Json.Obj (base @ shrunk)

(* A trial's outputs, every trial, passing or not: a change that moves
   completions, traffic or latency under faults without flipping a
   verdict still shows in a diff. Latencies print as [%h] bits. *)
let trial_to_json o =
  let v = o.verdict in
  let int i = Json.Number (float_of_int i) in
  Json.Obj
    [
      ("trial", int o.trial);
      ("seed", int o.seed);
      ("ok", Json.Bool v.Trial.ok);
      ("completed", int v.Trial.completed);
      ("gave_up", int v.Trial.gave_up);
      ("messages_sent", int v.Trial.messages_sent);
      ("sim_events", int v.Trial.sim_events);
      ("retransmits", int v.Trial.retransmits);
      ("p50_ms", Json.String (Printf.sprintf "%h" v.Trial.p50_ms));
      ("p99_ms", Json.String (Printf.sprintf "%h" v.Trial.p99_ms));
    ]

let to_json r =
  Json.Obj
    [
      ("protocol", Json.String r.protocol);
      ("root_seed", Json.Number (float_of_int r.root_seed));
      ("trials", Json.Number (float_of_int r.trials));
      ("max_faults", Json.Number (float_of_int r.max_faults));
      ("passed", Json.Number (float_of_int r.passed));
      ("failures", Json.List (List.map outcome_to_json r.failures));
      ("results", Json.List (List.map trial_to_json r.outcomes));
    ]

let pp ppf r =
  Format.fprintf ppf "nemesis %s: %d/%d trials passed (root seed %d)@."
    r.protocol r.passed r.trials r.root_seed;
  List.iter
    (fun o ->
      let shrunk, probes =
        match o.shrunk with Some (s, p) -> (s, p) | None -> (o.schedule, 0)
      in
      Format.fprintf ppf
        "  FAIL trial %d (seed %d)@.    %s@.    shrunk (%d probes, %d fault%s): %s@.    repro: %s@."
        o.trial o.seed
        (String.concat "; " o.verdict.Trial.reasons)
        probes (List.length shrunk)
        (if List.length shrunk = 1 then "" else "s")
        (Schedule.to_string shrunk)
        (repro_line r ~seed:o.seed shrunk))
    r.failures
