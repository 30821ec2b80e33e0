(* Sharded multi-group deployments (DESIGN.md §13): partitioner
   balance and boundary properties, hotspot key-mass, Poisson /
   bursty arrival-process statistics, the shards=1 byte-identity pin
   against the unsharded runner, a K=4 end-to-end smoke, and the
   durable counters the runner sums across groups. *)

open Paxi_benchmark
module Partitioner = Paxi_shard.Partitioner

(* ------------------------------------------------------------------ *)
(* Partitioner: hash balance, range boundaries                         *)
(* ------------------------------------------------------------------ *)

(* Hash-routing 1e5 sequential keys across 8 shards lands every shard
   within ±10% of the uniform share — the mixer kills the sequential
   structure. *)
let test_hash_balance () =
  let shards = 8 and keys = 100_000 in
  let p = Partitioner.hash ~shards in
  let counts = Array.make shards 0 in
  for k = 0 to keys - 1 do
    let s = Partitioner.route p k in
    counts.(s) <- counts.(s) + 1
  done;
  let share = float_of_int keys /. float_of_int shards in
  Array.iteri
    (fun s c ->
      let dev = Float.abs (float_of_int c -. share) /. share in
      Alcotest.(check bool)
        (Printf.sprintf "shard %d within 10%% of uniform (%d keys, %.1f%%)" s c
           (100.0 *. dev))
        true (dev <= 0.10))
    counts

(* Range routing is monotone, hits every shard, owns exact boundaries,
   and clamps strays outside [min_key, min_key + keys). *)
let test_range_boundaries () =
  let shards = 4 and min_key = 100 and keys = 1_000 in
  let p = Partitioner.range ~shards ~min_key ~keys in
  Alcotest.(check int) "first key on shard 0" 0
    (Partitioner.route p min_key);
  Alcotest.(check int) "last key on last shard" (shards - 1)
    (Partitioner.route p (min_key + keys - 1));
  Alcotest.(check int) "below-range clamps to 0" 0
    (Partitioner.route p (min_key - 50));
  Alcotest.(check int) "above-range clamps to last" (shards - 1)
    (Partitioner.route p (min_key + keys + 50));
  (* exact slice edges: key min+off owns shard off*shards/keys *)
  List.iter
    (fun (off, expect) ->
      Alcotest.(check int)
        (Printf.sprintf "offset %d on shard %d" off expect)
        expect
        (Partitioner.route p (min_key + off)))
    [ (0, 0); (249, 0); (250, 1); (499, 1); (500, 2); (749, 2); (750, 3) ];
  let prev = ref 0 in
  let seen = Array.make shards false in
  for k = min_key to min_key + keys - 1 do
    let s = Partitioner.route p k in
    Alcotest.(check bool) "monotone in key" true (s >= !prev);
    prev := s;
    seen.(s) <- true
  done;
  Alcotest.(check bool) "every shard owns keys" true
    (Array.for_all Fun.id seen)

(* Routing is a pure function of the key: any key routes to the same
   shard every time, inside the shard count, for both kinds. *)
let prop_route_consistent =
  QCheck.Test.make ~count:500 ~name:"partitioner route pure and in range"
    QCheck.(triple (int_range 1 16) (int_range 0 1) (int_range (-500) 5_000))
    (fun (shards, kind, key) ->
      let p =
        if kind = 0 then Partitioner.hash ~shards
        else Partitioner.range ~shards ~min_key:0 ~keys:(Stdlib.max shards 1_000)
      in
      let s = Partitioner.route p key in
      s >= 0 && s < shards && s = Partitioner.route p key)

(* ------------------------------------------------------------------ *)
(* Hotspot key distribution: empirical 80/20                           *)
(* ------------------------------------------------------------------ *)

let test_hotspot_mass () =
  let keys = 1_000 and draws = 100_000 in
  let gen =
    Workload.generator (Workload.hotspot ~keys)
      ~rng:(Rng.create ~seed:7) ~client:0
  in
  let hot = ref 0 in
  for _ = 1 to draws do
    let key =
      match Workload.next_op gen ~now_ms:0.0 with
      | Command.Put (k, _) | Command.Delete k | Command.Get k -> k
    in
    Alcotest.(check bool) "key in range" true (key >= 0 && key < keys);
    if key < keys / 5 then incr hot
  done;
  let mass = float_of_int !hot /. float_of_int draws in
  Alcotest.(check bool)
    (Printf.sprintf "80%% of draws on first 20%% of keys (got %.3f)" mass)
    true
    (Float.abs (mass -. 0.8) < 0.01)

(* ------------------------------------------------------------------ *)
(* Arrival processes                                                   *)
(* ------------------------------------------------------------------ *)

(* Poisson inter-arrival gaps at 1000 rps: mean 1ms, and the
   exponential signature var = mean^2. *)
let test_poisson_gaps () =
  let rng = Rng.create ~seed:11 in
  let arrival = Arrival.Open { rate_per_sec = 1_000.0 } in
  let n = 100_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let g = Arrival.next_gap_ms arrival ~rng ~now_ms:0.0 in
    Alcotest.(check bool) "gap non-negative" true (g >= 0.0);
    sum := !sum +. g;
    sumsq := !sumsq +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool)
    (Printf.sprintf "mean gap 1ms (got %.4f)" mean)
    true
    (Float.abs (mean -. 1.0) < 0.02);
  Alcotest.(check bool)
    (Printf.sprintf "exponential variance = mean^2 (got %.4f)" var)
    true
    (Float.abs (var -. (mean *. mean)) < 0.05)

(* K independent Poisson clocks of rate r merge into ~K*r arrivals per
   second — the additivity the sharded open-loop clients rely on. *)
let test_poisson_additivity () =
  let k = 4 and rate = 250.0 and horizon = 10_000.0 in
  let total = ref 0 in
  for i = 0 to k - 1 do
    let rng = Rng.create ~seed:(100 + i) in
    let arrival = Arrival.Open { rate_per_sec = rate } in
    let now = ref 0.0 in
    while !now < horizon do
      now := !now +. Arrival.next_gap_ms arrival ~rng ~now_ms:!now;
      if !now < horizon then incr total
    done
  done;
  let expected = float_of_int k *. rate *. (horizon /. 1_000.0) in
  let dev = Float.abs (float_of_int !total -. expected) /. expected in
  Alcotest.(check bool)
    (Printf.sprintf "merged rate additive (%d arrivals, %.1f%% off)" !total
       (100.0 *. dev))
    true (dev < 0.03)

(* Bursty arrivals stay inside the on-windows (phase anchored at t=0)
   and still deliver the configured average rate. *)
let test_bursty_windows () =
  let on_ms = 50.0 and off_ms = 150.0 and rate = 1_000.0 in
  let arrival = Arrival.Bursty { rate_per_sec = rate; on_ms; off_ms } in
  let cycle = on_ms +. off_ms in
  let rng = Rng.create ~seed:13 in
  let horizon = 20_000.0 in
  let now = ref 0.0 and count = ref 0 in
  while !now < horizon do
    now := !now +. Arrival.next_gap_ms arrival ~rng ~now_ms:!now;
    if !now < horizon then begin
      incr count;
      let pos = Float.rem !now cycle in
      Alcotest.(check bool)
        (Printf.sprintf "arrival at %.3f inside an on-window" !now)
        true
        (pos <= on_ms +. 1e-9)
    end
  done;
  let expected = rate *. (horizon /. 1_000.0) in
  let dev = Float.abs (float_of_int !count -. expected) /. expected in
  Alcotest.(check bool)
    (Printf.sprintf "on/off average rate preserved (%d arrivals, %.1f%% off)"
       !count (100.0 *. dev))
    true (dev < 0.05)

(* ------------------------------------------------------------------ *)
(* shards = 1 is byte-identical to the unsharded runner                *)
(* ------------------------------------------------------------------ *)

let identity_spec sharding =
  let config = { (Config.default ~n_replicas:5) with Config.seed = 88 } in
  let spec =
    Runner.spec ~warmup_ms:200.0 ~duration_ms:1_000.0 ~config
      ~topology:(Topology.lan ~n_replicas:5 ())
      ?sharding
      ~client_specs:
        [ Runner.clients ~target:Runner.Round_robin ~count:6 Workload.default ]
      ()
  in
  Runner.run (Paxi_protocols.Registry.find_exn "paxos") spec

(* A 1-shard hash deployment replays the classic single-cluster event
   stream draw-for-draw: same completions, same latency samples, same
   simulator event count — plus a fixed pin so cross-PR drift of the
   legacy stream itself is caught even if both paths drift together. *)
let test_k1_identity () =
  let legacy = identity_spec None in
  let sharded =
    identity_spec (Some { Runner.shards = 1; partition = `Hash })
  in
  Alcotest.(check int) "sim_events identical" legacy.Runner.sim_events
    sharded.Runner.sim_events;
  Alcotest.(check int) "completions identical" legacy.Runner.completed
    sharded.Runner.completed;
  Alcotest.(check bool) "latency samples identical" true
    (Stats.samples legacy.Runner.latency = Stats.samples sharded.Runner.latency);
  Alcotest.(check (float 0.0)) "throughput identical"
    legacy.Runner.throughput_rps sharded.Runner.throughput_rps;
  (* 137,467 events of the two-event delivery less its 68,698 arrivals *)
  Alcotest.(check int) "legacy stream pinned" 68_769 legacy.Runner.sim_events;
  Alcotest.(check int) "single shard stat mirrors aggregate" 1
    (Array.length sharded.Runner.shard_stats);
  Alcotest.(check int) "shard 0 owns every in-window completion"
    (Stats.count sharded.Runner.latency)
    sharded.Runner.shard_stats.(0).Runner.shard_completed

(* ------------------------------------------------------------------ *)
(* K = 4 end-to-end smoke                                              *)
(* ------------------------------------------------------------------ *)

let sharded_spec ~partition ~workload ~arrival =
  let config = { (Config.default ~n_replicas:3) with Config.seed = 91 } in
  Runner.spec ~warmup_ms:200.0 ~duration_ms:1_000.0 ~config
    ~topology:(Topology.lan ~n_replicas:3 ())
    ~sharding:{ Runner.shards = 4; partition }
    ~check_consensus:true
    ~client_specs:[ Runner.clients ~target:(Runner.Fixed 0) ~arrival ~count:4 workload ]
    ()

let test_k4_smoke () =
  let result =
    Runner.run
      (Paxi_protocols.Registry.find_exn "paxos")
      (sharded_spec ~partition:`Hash ~workload:Workload.default
         ~arrival:(Runner.Open { rate_per_sec = 500.0 }))
  in
  Alcotest.(check int) "four shard series" 4
    (Array.length result.Runner.shard_stats);
  Alcotest.(check bool) "work completed" true (result.Runner.completed > 500);
  Alcotest.(check int) "consensus clean across groups" 0
    (List.length result.Runner.consensus_violations);
  let in_window = Stats.count result.Runner.latency in
  let summed =
    Array.fold_left
      (fun a s -> a + s.Runner.shard_completed)
      0 result.Runner.shard_stats
  in
  Alcotest.(check int) "shard series partition the window" in_window summed;
  Array.iteri
    (fun s st ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d served requests" s)
        true
        (st.Runner.shard_completed > 0))
    result.Runner.shard_stats

(* Hotspot keys under range partitioning pile onto shard 0 (keys
   0..249 of 1000 own the 80% mass): the imbalance the shard sweep
   charts, visible even in a short run. *)
let test_k4_range_hotspot_imbalance () =
  let result =
    Runner.run
      (Paxi_protocols.Registry.find_exn "paxos")
      (sharded_spec ~partition:`Range ~workload:(Workload.hotspot ~keys:1000)
         ~arrival:(Runner.Open { rate_per_sec = 500.0 }))
  in
  let c s = result.Runner.shard_stats.(s).Runner.shard_completed in
  for s = 1 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "hot shard outweighs shard %d (%d vs %d)" s (c 0) (c s))
      true
      (c 0 > 2 * c s)
  done

(* ------------------------------------------------------------------ *)
(* Counters the runner sums across groups                              *)
(* ------------------------------------------------------------------ *)

(* A durable paxos deployment with two staggered crashes, run unsharded
   (K = 1) and as two hash groups co-located on the same fault plane:
   every crash hits replica i of both groups, so recoveries, replay
   time, cancelled timers and the storage bill are per-group sums.
   Fixed-seed pins, the way [Runner.result] reports them. *)
let durable_crash_run sharding =
  let config =
    {
      (Config.default ~n_replicas:5) with
      Config.seed = 5;
      storage =
        Some
          { Storage.default_config with Storage.sync_mode = Storage.Sync_every };
    }
  in
  let faults f =
    Faults.crash f ~node:(Address.replica 0) ~from_ms:400.0 ~duration_ms:300.0;
    Faults.crash f ~node:(Address.replica 3) ~from_ms:900.0 ~duration_ms:300.0
  in
  Runner.run
    (Paxi_protocols.Registry.find_exn "paxos")
    (Runner.spec ~warmup_ms:200.0 ~duration_ms:1_500.0 ~config ~faults
       ?sharding
       ~topology:(Topology.lan ~n_replicas:5 ())
       ~client_specs:
         [ Runner.clients ~target:Runner.Round_robin ~count:4 Workload.default ]
       ())

let check_counters name sharding ~completed ~recoveries ~replay_ms
    ~timers_cancelled ~writes ~fsyncs ~lost =
  let r = durable_crash_run sharding in
  let pin what = Printf.sprintf "%s: %s" name what in
  Alcotest.(check int) (pin "completed") completed r.Runner.completed;
  Alcotest.(check int) (pin "recoveries") recoveries r.Runner.recoveries;
  Alcotest.(check string) (pin "replay ms") replay_ms
    (Printf.sprintf "%.2f" r.Runner.replay_ms_total);
  Alcotest.(check int) (pin "timers cancelled") timers_cancelled
    r.Runner.timers_cancelled;
  Alcotest.(check int) (pin "storage writes") writes r.Runner.storage_writes;
  Alcotest.(check int) (pin "storage fsyncs") fsyncs r.Runner.storage_fsyncs;
  Alcotest.(check int) (pin "lost writes") lost r.Runner.storage_lost_writes

let test_summed_counters () =
  check_counters "unsharded" None ~completed:795 ~recoveries:2
    ~replay_ms:"15.86" ~timers_cancelled:6 ~writes:10_489 ~fsyncs:4_034
    ~lost:2;
  check_counters "2 hash groups"
    (Some { Runner.shards = 2; partition = `Hash })
    ~completed:938 ~recoveries:4 ~replay_ms:"18.71" ~timers_cancelled:9
    ~writes:12_372 ~fsyncs:4_760 ~lost:1

let suite =
  ( "shard",
    [
      Alcotest.test_case "hash balance at 1e5 keys" `Quick test_hash_balance;
      Alcotest.test_case "range boundaries and clamping" `Quick
        test_range_boundaries;
      QCheck_alcotest.to_alcotest prop_route_consistent;
      Alcotest.test_case "hotspot 80/20 mass" `Quick test_hotspot_mass;
      Alcotest.test_case "poisson gap statistics" `Quick test_poisson_gaps;
      Alcotest.test_case "poisson K-stream additivity" `Quick
        test_poisson_additivity;
      Alcotest.test_case "bursty on-window containment" `Quick
        test_bursty_windows;
      Alcotest.test_case "shards=1 byte-identity pin" `Slow test_k1_identity;
      Alcotest.test_case "K=4 sharded smoke" `Slow test_k4_smoke;
      Alcotest.test_case "K=4 range hotspot imbalance" `Slow
        test_k4_range_hotspot_imbalance;
      Alcotest.test_case "durable crash counters summed across groups" `Slow
        test_summed_counters;
    ] )
