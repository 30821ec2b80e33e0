(* Runs one workload and turns its runs into metrics.

   An untraced invocation ([trace = false]) repeats the workload's run
   for the requested seconds. The simulated metrics pool the first
   [sim_reps] runs, each checked; the later runs replay their seeds and
   must reproduce them. Every run after the first is bracketed by
   reference runs ({!Reference}) and preceded by a batch of deployment
   builds: [wall_s] and [setup_s] are scaled to the reference host
   speed. A traced invocation alternates untraced and traced twins of
   one seed for the requested seconds; every traced run must reproduce
   its twin exactly, and the per-layer metrics are medians over the
   traced runs. *)

open Paxi_benchmark

let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("p50_ms", "ms");
    ("p99_ms", "ms");
    ("p999_ms", "ms");
    ("unavail_ms", "ms");
    ("wall_s", "s");
    ("setup_s", "s");
    ("alloc_mb", "MB");
    ("peak_heap_mb", "MB");
  ]

(* Message labels reported one by one: the paxos messages these
   workloads exchange. Any other label is folded into the handler
   totals only. *)
let reported_labels =
  [
    "P1a";
    "P1b";
    "P2a";
    "P2b";
    "P2aBatch";
    "P2bBatch";
    "Heartbeat";
    "HeartbeatAck";
    "RelayRound";
    "RelayAck";
  ]

let per_layer =
  [
    ("sim.events_per_op", "count");
    ("sim.bytes_per_event", "B");
    ("sim.inlined_share", "ratio");
    ("sim.timer_calls_per_op", "count");
    ("sim.engine_ns_per_event", "ns");
    ("net.msgs_per_op", "count");
    ("net.send_calls_per_op", "count");
    ("net.send_ns_per_op", "ns");
    ("net.wait_in_ms", "ms");
    ("net.service_in_ms", "ms");
    ("net.busiest_util", "ratio");
    ("quorum.wait_ms", "ms");
    ("protocols.handler_calls_per_op", "count");
    ("protocols.handler_self_ns_per_op", "ns");
  ]
  @ List.concat_map
      (fun l ->
        [
          (Printf.sprintf "protocols.msg.%s.calls" l, "count");
          (Printf.sprintf "protocols.msg.%s.self_ns" l, "ns");
        ])
      reported_labels
  @ [
      ("protocols.ops_per_batch", "count");
      ("protocols.fast_read_share", "ratio");
      ("protocols.relay_hops_per_op", "count");
      ("protocols.relay_hop_ms", "ms");
      ("storage.writes_per_op", "count");
      ("storage.fsyncs_per_op", "count");
      ("storage.fsync_ms", "ms");
      ("storage.lost_writes", "count");
      ("core.recoveries", "count");
      ("core.replay_ms", "ms");
      ("core.timers_cancelled", "count");
      ("shard.imbalance", "ratio");
      ("benchmark.samples", "count");
      ("benchmark.check_s", "s");
      ("obs.traced_wall_ratio", "ratio");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.promoted_mb", "MB");
    ]

(* ---- statistics ---------------------------------------------------- *)

(* Python's [statistics.quantiles(l, n=4)] (the exclusive method). *)
let quartiles l =
  let a = Array.of_list (List.sort Float.compare l) in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = Int.max 1 (Int.min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median l =
  let _, m, _ = quartiles l in
  m

let mb bytes = bytes /. 1e6
let per num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
let or_zero x = if Float.is_nan x then 0.0 else x
let seconds_since t0 = float_of_int (Timed.now_ns () - t0) /. 1e9

(* ---- one run --------------------------------------------------------- *)

type run = {
  res : Runner.result;
  spec : Runner.spec;
  wall_s : float;  (** the [Runner.run] call *)
  alloc_mb : float;
  gc_minor : int;
  gc_major : int;
  promoted_mb : float;
  counts : Timed.counts;
  spans : Timed.snapshot option;
  consensus : unit -> Consensus_check.violation list;
      (** the consensus checker over the final replica instances *)
}

(* union of keys any of the state machines touched *)
let touched_keys state_machines =
  let keys = Hashtbl.create 1024 in
  List.iter
    (fun (_, sm) ->
      List.iter (fun k -> if k >= 0 then Hashtbl.replace keys k ()) (Kv.keys (State_machine.store sm)))
    state_machines;
  Hashtbl.fold (fun k () acc -> k :: acc) keys []

let run_once ?duration_ms ~timed (w : Workloads.t) ~seed =
  let spec = w.Workloads.spec ?duration_ms ~seed () in
  let spec =
    if timed then { spec with Runner.config = { spec.Runner.config with Config.tracing = true } }
    else spec
  in
  let (module P) = Workloads.paxos in
  let module W =
    Timed.Make
      (P)
      (struct
        let timed = timed
      end)
  in
  Timed.reset ();
  let g0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let t0 = Timed.now_ns () in
  let res = Runner.run (module W) spec in
  let wall_s = seconds_since t0 in
  let a1 = Gc.allocated_bytes () in
  let g1 = Gc.quick_stat () in
  let n = spec.Runner.config.Config.n_replicas in
  let consensus () =
    List.concat_map
      (fun group ->
        let state_machines =
          List.map (fun (i, r) -> (i, Executor.state_machine (W.executor r))) group
        in
        Consensus_check.check ~state_machines ~keys:(touched_keys state_machines))
      (W.groups ~n)
  in
  {
    res;
    spec;
    wall_s;
    alloc_mb = mb (a1 -. a0);
    gc_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
    promoted_mb = mb ((g1.Gc.promoted_words -. g0.Gc.promoted_words) *. float_of_int (Sys.word_size / 8));
    counts = Timed.read_counts ();
    spans = (if timed then Some (Timed.snapshot ()) else None);
    consensus;
  }

let failed_ratio (res : Runner.result) =
  per res.Runner.gave_up (res.Runner.completed + res.Runner.gave_up)

(* Longest gap between consecutive completions inside the measured
   window (requests of every issue time count). *)
let unavail_ms (r : run) =
  let lo = r.spec.Runner.warmup_ms in
  let hi = lo +. r.spec.Runner.duration_ms in
  let times =
    List.filter_map
      (fun (op : Linearizability.op) ->
        let t = op.Linearizability.responded_ms in
        if t >= lo && t <= hi then Some t else None)
      r.res.Runner.history
    |> Array.of_list
  in
  Array.sort Float.compare times;
  let gap = ref 0.0 in
  for i = 1 to Array.length times - 1 do
    gap := Float.max !gap (times.(i) -. times.(i - 1))
  done;
  !gap

(* ---- gates ------------------------------------------------------------ *)

type verdict = {
  check_s : float;
  unavail : float;
  failures : string list;  (** empty when every gate passed *)
}

(* Correctness (linearizability, consensus) and mechanism: a workload
   that silently skipped the layer it exists to measure fails. *)
let check (w : Workloads.t) (r : run) =
  let t0 = Timed.now_ns () in
  let anomalies = Linearizability.check r.res.Runner.history in
  let violations = r.consensus () in
  let check_s = seconds_since t0 in
  let unavail = unavail_ms r in
  let c = r.counts in
  let mechanism =
    match w.Workloads.name with
    | "relay-n49" -> if c.Timed.relay_hops = 0 then [ "relay-n49: no relay hops" ] else []
    | "shard4-lease" ->
        (if c.Timed.fast_reads = 0 then [ "shard4-lease: no fast reads" ] else [])
        @
        if per c.Timed.proposes c.Timed.propose_rounds <= 1.0 then
          [ "shard4-lease: ops_per_batch <= 1" ]
        else []
    | "durable-crash" ->
        (if r.res.Runner.recoveries < 2 then
           [ Printf.sprintf "durable-crash: %d recoveries, want >= 2" r.res.Runner.recoveries ]
         else [])
        @ if unavail = 0.0 then [ "durable-crash: unavail_ms is 0" ] else []
    | _ -> []
  in
  let failures =
    (match anomalies with
    | [] -> []
    | a :: _ ->
        [
          Printf.sprintf "linearizability: %d anomalies, first on key %d: %s"
            (List.length anomalies) a.Linearizability.read.Linearizability.key
            a.Linearizability.reason;
        ])
    @ (match violations with
      | [] -> []
      | v :: _ ->
          [
            Format.asprintf "consensus: %d violations, first %a" (List.length violations)
              Consensus_check.pp_violation v;
          ])
    @ mechanism
  in
  { check_s; unavail; failures }

(* The simulated outputs two runs of one seed must share exactly. *)
type fingerprint = { throughput : float; events : int; samples : float array }

let fingerprint (res : Runner.result) =
  {
    throughput = res.Runner.throughput_rps;
    events = res.Runner.sim_events;
    samples = Stats.samples res.Runner.latency;
  }

(* ---- the two kinds of invocation ---------------------------------- *)

type outcome = {
  metrics : (string * float) list;  (** in the order of the metric list *)
  attempted : int;
  failed : int;
  failures : string list;
  notes : string list;  (** human-readable lines printed before the result *)
}

let setup_batch = 5

(* One batch of deployment builds for [setup_s], each from a collected
   heap so that the GC work inside a build does not depend on what ran
   before it; returns the fastest. One build takes tens of microseconds
   and lands in a slow or a fast moment of a shared core about equally
   often, so the fastest of a few is the steady figure. *)
let setup_batch_min (w : Workloads.t) ~seed =
  Gc.compact ();
  List.init setup_batch (fun _ ->
      let build = Workloads.build (w.Workloads.spec ~seed ()) in
      Gc.full_major ();
      let t0 = Timed.now_ns () in
      build ();
      seconds_since t0)
  |> List.fold_left Float.min infinity

(* The simulated metrics pool the first [sim_reps] runs, each on its
   own seed derived from the given one; later runs cycle through the
   same seeds and must reproduce them exactly. *)
let sim_reps = 10
let rep_seed ~seed i = if i mod sim_reps = 0 then seed else Runner.derive_seed ~root:seed (i mod sim_reps)

let open_loop_note (spec : Runner.spec) =
  match spec.Runner.client_specs with
  | { Runner.arrival = Runner.Open _ | Runner.Bursty _; _ } :: _ ->
      [
        "open loop: latency counts from each request's scheduled send time, which in \
         virtual time is its issue time, so generator lateness is 0 by construction";
      ]
  | _ -> []

let end_to_end_run ?duration_ms (w : Workloads.t) ~seed ~seconds =
  let setup = ref [] in
  let latency = Stats.create () in
  let firsts = Array.make sim_reps None in
  let throughputs = ref [] and unavails = ref [] and allocs = ref [] and check_s = ref 0.0 in
  let completed = ref 0 and gave_up = ref 0 and failures = ref [] and diverged = ref 0 in
  let walls = ref [] and refs = ref [] and elapsed = ref 0.0 and reps = ref 0 in
  let peak_heap_mb = ref 0.0 and first_wall = ref 0.0 and notes = ref [] in
  while !reps < sim_reps || !elapsed < seconds do
    let i = !reps in
    if i > 0 then setup := setup_batch_min w ~seed :: !setup;
    let ref_before = if i > 0 then Reference.seconds Reference.rep_iters else 0.0 in
    let r = run_once ?duration_ms ~timed:false w ~seed:(rep_seed ~seed i) in
    if i > 0 then refs := ref_before :: Reference.seconds Reference.rep_iters :: !refs;
    let print = fingerprint r.res in
    if i = 0 then begin
      peak_heap_mb := mb (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)));
      first_wall := r.wall_s;
      notes := open_loop_note r.spec
    end
    else walls := r.wall_s :: !walls;
    if i < sim_reps then begin
      let v = check w r in
      failures := !failures @ v.failures;
      check_s := !check_s +. v.check_s;
      unavails := v.unavail :: !unavails;
      throughputs := r.res.Runner.throughput_rps :: !throughputs;
      allocs := r.alloc_mb :: !allocs;
      completed := !completed + r.res.Runner.completed;
      gave_up := !gave_up + r.res.Runner.gave_up;
      Array.iter (Stats.add latency) print.samples;
      firsts.(i) <- Some print
    end
    else if firsts.(i mod sim_reps) <> Some print then incr diverged;
    elapsed := !elapsed +. r.wall_s;
    incr reps
  done;
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let lat p = Stats.percentile latency p in
  let s1, s2, s3 = quartiles !setup in
  let w1, w2, w3 = quartiles !walls in
  let sum = List.fold_left ( +. ) 0.0 in
  let speed =
    Reference.rep_nominal_s *. float_of_int (List.length !refs) /. sum !refs
  in
  let attempted = !completed + !gave_up in
  {
    metrics =
      [
        ("ops_per_s", mean !throughputs);
        ("p50_ms", lat 50.0);
        ("p99_ms", lat 99.0);
        ("p999_ms", lat 99.9);
        ("unavail_ms", mean !unavails);
        ("wall_s", sum !walls /. float_of_int (List.length !walls) *. speed);
        ("setup_s", s2 *. speed);
        ("alloc_mb", mean !allocs);
        ("peak_heap_mb", !peak_heap_mb);
      ];
    attempted;
    failed = !gave_up;
    failures =
      (!failures
      @
      if !diverged > 0 then
        [
          Printf.sprintf "determinism: %d of %d repeated runs diverged from their seed's first run"
            !diverged (!reps - sim_reps);
        ]
      else []);
    notes =
      [
        Printf.sprintf "simulated metrics pool %d runs (seeds %s): %d latency samples in window"
          sim_reps
          (String.concat ", " (List.init sim_reps (fun i -> string_of_int (rep_seed ~seed i))))
          (Stats.count latency);
        Printf.sprintf "failed_ratio: %.6g (%d given up of %d attempted)"
          (per !gave_up attempted) !gave_up attempted;
        Printf.sprintf
          "wall_s: %d runs, raw q1 %.4f median %.4f q3 %.4f s (first run %.4f, not counted); \
           scaled by reference speed %.4f"
          (List.length !walls) w1 w2 w3 !first_wall speed;
        Printf.sprintf "setup_s: %d batches of %d builds, fastest per batch: q1 %.3e median %.3e q3 %.3e s"
          (List.length !setup) setup_batch s1 s2 s3;
        Printf.sprintf "check_s: %.3f (linearizability + consensus over %d runs, outside wall_s)"
          !check_s sim_reps;
      ]
      @ !notes;
  }

(* Per-layer metrics of one traced run against its untraced twin. *)
let layer_metrics (u : run) ~(check : verdict) (t : run) =
  let res = t.res in
  let ops = res.Runner.completed in
  let s = Option.get t.spans in
  let trace = res.Runner.trace in
  let mean st = or_zero (Stats.mean st) in
  let window = t.spec.Runner.duration_ms in
  let busiest =
    List.fold_left
      (fun acc i -> Float.max acc (Paxi_obs.Trace.node_busy_ms trace i))
      0.0 (Paxi_obs.Trace.node_ids trace)
  in
  let cat name =
    let rec go i = if i = Array.length s.Timed.names then None else if s.Timed.names.(i) = name then Some i else go (i + 1) in
    go 0
  in
  let calls name = match cat name with Some i -> s.Timed.calls.(i) | None -> 0 in
  let self name = match cat name with Some i -> s.Timed.self_ns.(i) | None -> 0 in
  let wall_ns = t.wall_s *. 1e9 in
  let engine_ns = wall_ns -. float_of_int (Timed.total_self_ns s) in
  let shard_imbalance =
    let ss = res.Runner.shard_stats in
    let total = Array.fold_left (fun a x -> a +. x.Runner.shard_throughput_rps) 0.0 ss in
    let mean = total /. float_of_int (Array.length ss) in
    if mean <= 0.0 then 1.0
    else Array.fold_left (fun a x -> Float.max a (x.Runner.shard_throughput_rps /. mean)) 0.0 ss
  in
  let c = t.counts in
  [
    ("sim.events_per_op", per res.Runner.sim_events ops);
    ("sim.bytes_per_event", u.res.Runner.bytes_per_event);
    ("sim.inlined_share", per res.Runner.sim_events_inlined res.Runner.sim_events);
    ("sim.timer_calls_per_op", per (calls "timer_env") ops);
    ("sim.engine_ns_per_event", engine_ns /. float_of_int (max 1 res.Runner.sim_events));
    ("net.msgs_per_op", per res.Runner.messages_sent ops);
    ("net.send_calls_per_op", per (calls "send") ops);
    ("net.send_ns_per_op", per (self "send") ops);
    ("net.wait_in_ms", mean (Paxi_obs.Trace.wait_in trace));
    ("net.service_in_ms", mean (Paxi_obs.Trace.service_in trace));
    ("net.busiest_util", busiest /. window);
    ("quorum.wait_ms", mean (Paxi_obs.Trace.quorum_wait trace));
    ("protocols.handler_calls_per_op", per (Timed.handler_calls s) ops);
    ("protocols.handler_self_ns_per_op", per (Timed.handler_self_ns s) ops);
  ]
  @ List.concat_map
      (fun l ->
        [
          (Printf.sprintf "protocols.msg.%s.calls" l, float_of_int (calls l));
          (Printf.sprintf "protocols.msg.%s.self_ns" l, float_of_int (self l));
        ])
      reported_labels
  @ [
      ("protocols.ops_per_batch", per c.Timed.proposes c.Timed.propose_rounds);
      ("protocols.fast_read_share", per c.Timed.fast_reads ops);
      ("protocols.relay_hops_per_op", per c.Timed.relay_hops ops);
      ("protocols.relay_hop_ms", mean (Paxi_obs.Trace.relay_hop_ms trace));
      ("storage.writes_per_op", per res.Runner.storage_writes ops);
      ("storage.fsyncs_per_op", per res.Runner.storage_fsyncs ops);
      ( "storage.fsync_ms",
        if res.Runner.storage_fsyncs = 0 then 0.0
        else res.Runner.storage_busy_ms /. float_of_int res.Runner.storage_fsyncs );
      ("storage.lost_writes", float_of_int res.Runner.storage_lost_writes);
      ("core.recoveries", float_of_int res.Runner.recoveries);
      ("core.replay_ms", res.Runner.replay_ms_total);
      ("core.timers_cancelled", float_of_int res.Runner.timers_cancelled);
      ("shard.imbalance", shard_imbalance);
      ("benchmark.samples", float_of_int (Stats.count res.Runner.latency));
      ("benchmark.check_s", check.check_s);
      ("obs.traced_wall_ratio", t.wall_s /. u.wall_s);
      ("gc.minor_collections", float_of_int u.gc_minor);
      ("gc.major_collections", float_of_int u.gc_major);
      ("gc.promoted_mb", u.promoted_mb);
    ]

let min_pairs = 2

let traced_run ?duration_ms (w : Workloads.t) ~seed ~seconds =
  let u0 = run_once ?duration_ms ~timed:false w ~seed in
  let verdict = check w u0 in
  let u0 = { u0 with res = { u0.res with Runner.history = [] }; consensus = (fun () -> []) } in
  let print = fingerprint u0.res in
  let rows = ref [] and untraced = ref [] and traced = ref [] in
  let elapsed = ref 0.0 and pairs = ref 0 and opaque = ref 0 in
  let other_labels = ref [] in
  while !elapsed < seconds || !pairs < min_pairs do
    let u = if !pairs = 0 then u0 else run_once ?duration_ms ~timed:false w ~seed in
    let t = run_once ?duration_ms ~timed:true w ~seed in
    if fingerprint t.res <> print || fingerprint u.res <> print then incr opaque;
    rows := layer_metrics u0 ~check:verdict t :: !rows;
    untraced := u.wall_s :: !untraced;
    traced := t.wall_s :: !traced;
    List.iter
      (fun (l, calls, _) ->
        if calls > 0 && not (List.mem l reported_labels || List.mem l !other_labels) then
          other_labels := l :: !other_labels)
      (Timed.labels (Option.get t.spans));
    elapsed := !elapsed +. u.wall_s +. t.wall_s;
    incr pairs
  done;
  let ratio = median !traced /. median !untraced in
  let metrics =
    List.map
      (fun (name, _) ->
        if name = "obs.traced_wall_ratio" then (name, ratio)
        else (name, median (List.map (List.assoc name) !rows)))
      per_layer
  in
  let attempted = u0.res.Runner.completed + u0.res.Runner.gave_up in
  {
    metrics;
    attempted;
    failed = u0.res.Runner.gave_up;
    failures =
      verdict.failures
      @
      if !opaque > 0 then
        [
          Printf.sprintf
            "transparency: %d of %d traced/untraced pairs differ in throughput, latency \
             samples or sim_events"
            !opaque !pairs;
        ]
      else [];
    notes =
      [
        Printf.sprintf "pairs: %d; untraced wall median %.4f s, traced %.4f s" !pairs
          (median !untraced) (median !traced);
        Printf.sprintf "transparency: %d of %d traced runs reproduce their untraced twins"
          (!pairs - !opaque) !pairs;
      ]
      @
      if !other_labels = [] then []
      else [ "labels folded into handler totals: " ^ String.concat ", " !other_labels ];
  }

(* ---- output ----------------------------------------------------------- *)

let json_string s = Printf.sprintf "%S" s

let result_line o ~units =
  let metric (name, v) =
    Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string name) v
      (json_string (List.assoc name units))
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.failures = []) o.attempted o.failed
    (String.concat ", " (List.map metric o.metrics))

let run ~workload ~seed ~seconds ~trace =
  if trace then (traced_run workload ~seed ~seconds, per_layer)
  else (end_to_end_run workload ~seed ~seconds, end_to_end)
