(* Nemesis harness: fixed-seed campaigns over every protocol family,
   shrinker behaviour on synthetic predicates, schedule serialization,
   and campaign determinism across pool sizes. *)

module Schedule = Paxi_nemesis.Schedule
module Trial = Paxi_nemesis.Trial
module Shrink = Paxi_nemesis.Shrink
module Campaign = Paxi_nemesis.Campaign

(* The PR-pinning campaign: every protocol in the registry survives a
   fixed-seed batch of randomized fault schedules drawn from its own
   tolerance profile. A failure prints the shrunk one-line repro. *)
let test_campaign protocol () =
  let report = Campaign.run ~protocol ~trials:3 ~seed:42 () in
  List.iter
    (fun (o : Campaign.outcome) ->
      let shrunk =
        match o.Campaign.shrunk with Some (s, _) -> s | None -> o.Campaign.schedule
      in
      Printf.printf "%s trial %d failed: %s\n  repro: %s\n" protocol
        o.Campaign.trial
        (String.concat "; " o.Campaign.verdict.Trial.reasons)
        (Campaign.repro_line report ~seed:o.Campaign.seed shrunk))
    report.Campaign.failures;
  Alcotest.(check int)
    (protocol ^ " campaign failures")
    0
    (List.length report.Campaign.failures)

(* Trials are seeded by identity, so the same campaign on pools of
   different sizes produces byte-identical JSON reports, and each
   report carries every trial's outputs, not only the pass count. *)
let test_campaign_pool_deterministic () =
  let report_with jobs =
    let pool = Paxi_exec.Pool.create ~jobs () in
    let r = Campaign.run ~pool ~protocol:"paxos" ~trials:3 ~seed:7 () in
    Paxi_exec.Pool.shutdown pool;
    Json.to_string (Campaign.to_json r)
  in
  let seq = report_with 1 in
  Alcotest.(check string)
    "campaign json identical at jobs=1 and jobs=4" seq (report_with 4);
  let rows =
    match Result.map (Json.member "results") (Json.parse seq) with
    | Ok (Some (Json.List rows)) -> rows
    | _ -> []
  in
  Alcotest.(check int) "one results row per trial" 3 (List.length rows);
  List.iter
    (fun row ->
      List.iter
        (fun k ->
          Alcotest.(check bool) ("row has " ^ k) true
            (Json.member k row <> None))
        [ "completed"; "messages_sent"; "sim_events"; "p99_ms" ])
    rows

(* ------------------------------------------------------------------ *)
(* Schedule generation and serialization                               *)
(* ------------------------------------------------------------------ *)

let schedule_testable =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Schedule.to_string s))
    ( = )

let test_generate_deterministic () =
  let gen () = Trial.generate ~protocol:"raft" ~seed:123 ~max_faults:6 () in
  Alcotest.check schedule_testable "same seed, same schedule" (gen ()) (gen ());
  let other = Trial.generate ~protocol:"raft" ~seed:124 ~max_faults:6 () in
  Alcotest.(check bool) "different seed differs" false (gen () = other)

let test_generate_respects_kinds () =
  (* chain's profile spans every kind except crash (its fixed
     head-to-tail order has no reconfiguration): no generated fault
     may be a crash, across many seeds *)
  for seed = 1 to 50 do
    let s = Trial.generate ~protocol:"chain" ~seed ~max_faults:6 () in
    List.iter
      (fun f ->
        match f with
        | Schedule.Crash _ ->
            Alcotest.failf "chain schedule contains %s"
              (Schedule.to_string [ f ])
        | _ -> ())
      s
  done

let test_generate_crashes_bounded () =
  (* The crash constraint is per-overlap, not per-schedule: at every
     instant the crashed set must be a minority of distinct nodes so a
     quorum survives, but nodes whose windows expired may crash again
     later. Checked at every window boundary, where the covering set
     changes. *)
  for seed = 1 to 50 do
    let s = Trial.generate ~protocol:"paxos" ~seed ~max_faults:8 () in
    let windows =
      List.filter_map
        (function
          | Schedule.Crash { node; from_ms; duration_ms } ->
              Some (node, from_ms, from_ms +. duration_ms)
          | _ -> None)
        s
    in
    List.iter
      (fun (_, t, _) ->
        let covering =
          List.filter_map
            (fun (node, f, u) -> if f <= t && t < u then Some node else None)
            windows
        in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: concurrent crashes a distinct minority"
             seed)
          true
          (List.length covering <= 2
          && List.length (List.sort_uniq compare covering)
             = List.length covering))
      windows
  done

let test_generate_crashed_windows_drain () =
  (* Regression (PR 10): the generator once accumulated crashed nodes
     for the whole schedule, so after minority_cap crashes it could
     never crash anyone again — long campaigns silently stopped
     exercising crash recovery. With windows draining, some seed must
     produce more total crashes than any instant allows. *)
  let kinds = { Schedule.no_kinds with Schedule.crash = true } in
  let exceeded = ref false in
  let repeated = ref false in
  for seed = 1 to 80 do
    let rng = Rng.create ~seed in
    let s =
      Schedule.generate ~rng ~n:5 ~kinds ~max_faults:12 ~horizon_ms:3_000.0
    in
    let nodes =
      List.filter_map
        (function Schedule.Crash { node; _ } -> Some node | _ -> None)
        s
    in
    if List.length nodes > 2 then exceeded := true;
    if List.length (List.sort_uniq compare nodes) < List.length nodes then
      repeated := true
  done;
  Alcotest.(check bool)
    "some schedule crashes more nodes than one instant may" true !exceeded;
  Alcotest.(check bool)
    "some schedule re-crashes a recovered node" true !repeated

let test_schedule_json_roundtrip () =
  for seed = 1 to 50 do
    let s = Trial.generate ~protocol:"paxos" ~seed ~max_faults:6 () in
    match Schedule.of_json (Schedule.to_json s) with
    | Ok s' -> Alcotest.check schedule_testable "roundtrip" s s'
    | Error e -> Alcotest.failf "roundtrip failed: %s" e
  done

let test_schedule_text_roundtrip_replays () =
  (* the repro line goes through text, where float precision is
     truncated; the parsed schedule must still be a valid schedule
     with the same shape (kind sequence and near-identical windows) *)
  let s = Trial.generate ~protocol:"paxos" ~seed:5 ~max_faults:6 () in
  match Schedule.of_string (Json.to_string (Schedule.to_json s)) with
  | Error e -> Alcotest.failf "text roundtrip failed: %s" e
  | Ok s' ->
      Alcotest.(check int) "same length" (List.length s) (List.length s');
      List.iter2
        (fun a b ->
          let fa, ua = Schedule.window_of a and fb, ub = Schedule.window_of b in
          Alcotest.(check bool)
            "windows within float-printing tolerance" true
            (Float.abs (fa -. fb) < 0.01 && Float.abs (ua -. ub) < 0.01))
        s s'

(* ------------------------------------------------------------------ *)
(* Shrinker on synthetic predicates (no simulation)                    *)
(* ------------------------------------------------------------------ *)

let crash n = Schedule.Crash { node = n; from_ms = 100.0; duration_ms = 800.0 }

let slow src =
  Schedule.Slow
    { src; dst = src + 1; from_ms = 0.0; duration_ms = 1_600.0; extra_ms = 5.0 }

let contains_crash s =
  List.exists (function Schedule.Crash _ -> true | _ -> false) s

let test_shrink_drops_irrelevant_faults () =
  let schedule = [ slow 0; crash 1; slow 2; slow 3 ] in
  let shrunk, _ = Shrink.shrink ~still_fails:contains_crash schedule in
  (* the drop pass isolates the crash, then the halving pass walks its
     window down to the floor (the predicate ignores duration) *)
  Alcotest.check schedule_testable "only the crash survives"
    [ Schedule.Crash { node = 1; from_ms = 100.0; duration_ms = 50.0 } ]
    shrunk

let test_shrink_halves_windows () =
  (* failure iff some fault lasts >= 100ms: halving must walk the
     1600ms window down to the smallest still-failing duration *)
  let still_fails s =
    List.exists (fun f -> Schedule.duration_of f >= 100.0) s
  in
  let shrunk, _ = Shrink.shrink ~still_fails [ slow 0 ] in
  Alcotest.(check int) "one fault" 1 (List.length shrunk);
  let d = Schedule.duration_of (List.hd shrunk) in
  Alcotest.(check bool)
    (Printf.sprintf "duration %.0f minimized into [100, 200)" d)
    true
    (d >= 100.0 && d < 200.0)

let test_shrink_result_still_fails () =
  let still_fails s = List.length s >= 2 in
  let schedule = [ slow 0; slow 1; slow 2; crash 0; crash 1 ] in
  let shrunk, _ = Shrink.shrink ~still_fails schedule in
  Alcotest.(check bool) "shrunk still fails" true (still_fails shrunk);
  Alcotest.(check int) "minimal size" 2 (List.length shrunk)

let test_shrink_budget_zero_is_identity () =
  let schedule = [ slow 0; crash 1 ] in
  let shrunk, probes =
    Shrink.shrink ~budget:0 ~still_fails:contains_crash schedule
  in
  Alcotest.check schedule_testable "unchanged" schedule shrunk;
  Alcotest.(check int) "no probes" 0 probes

(* ------------------------------------------------------------------ *)
(* End-to-end: a protocol with no recovery machinery must fail and     *)
(* shrink when stressed beyond its profile                             *)
(* ------------------------------------------------------------------ *)

(* Regression: with two replicas per zone (n = 6) every zone's
   phase-1 majority is 2-of-2, so a steal needs the preempted owner's
   own vote. That owner could learn the stealing ballot from a nok
   P2b before the steal's P1a reached it, and then refuse to re-ack
   the equal ballot — wedging the steal (and eventually every key)
   forever, fault-free. The fixed run must sustain progress across
   the whole horizon, not just until the first migration. *)
let test_wpaxos_n6_no_wedge () =
  let v = Trial.run ~protocol:"wpaxos" ~n:6 ~seed:42 [] in
  Alcotest.(check bool)
    ("verdict ok: " ^ String.concat "; " v.Trial.reasons)
    true v.Trial.ok;
  Alcotest.(check int) "nothing abandoned" 0 v.Trial.gave_up;
  Alcotest.(check bool)
    (Printf.sprintf "sustained progress (completed=%d)" v.Trial.completed)
    true
    (v.Trial.completed > 2_000)

(* ------------------------------------------------------------------ *)
(* Clock-skew faults and read-path pins (PR 7)                         *)
(* ------------------------------------------------------------------ *)

(* Skew is opt-in: default profiles must keep generating the exact
   schedules every pre-PR7 fixed-seed pin was recorded against. *)
let test_skew_opt_in () =
  let has_skew s =
    List.exists (function Schedule.Skew _ -> true | _ -> false) s
  in
  for seed = 1 to 40 do
    let s = Trial.generate ~protocol:"paxos" ~seed ~max_faults:6 () in
    Alcotest.(check bool)
      (Printf.sprintf "no skew by default (seed %d)" seed)
      false (has_skew s)
  done;
  let some_skew = ref false in
  for seed = 1 to 40 do
    let s =
      Trial.generate ~protocol:"paxos" ~seed ~max_faults:6 ~skew:true ()
    in
    if has_skew s then some_skew := true;
    (* offsets stay inside the band the lease margin defends against *)
    List.iter
      (function
        | Schedule.Skew { offset_ms; _ } ->
            Alcotest.(check bool)
              (Printf.sprintf "offset %.1f within [20,120]" offset_ms)
              true
              (Float.abs offset_ms >= 20.0 && Float.abs offset_ms <= 120.0)
        | _ -> ())
      s
  done;
  Alcotest.(check bool) "skew=true generates skew faults" true !some_skew

let test_skew_schedule_roundtrip () =
  for seed = 1 to 30 do
    let s = Trial.generate ~protocol:"raft" ~seed ~max_faults:6 ~skew:true () in
    match Schedule.of_json (Schedule.to_json s) with
    | Ok s' -> Alcotest.check schedule_testable "skew roundtrip" s s'
    | Error e -> Alcotest.failf "skew roundtrip failed: %s" e
  done

(* Fixed-seed pins: lease reads survive a leader partition compounded
   by clock skew on the deposed leader — the shrunk shape of the
   campaign failures a broken lease produces. The skew slows the old
   leader's clock (the unsafe direction) by less than the 300ms
   margin; the trial oracle checks linearizability of the collected
   history, so a single stale lease read fails the pin. *)
let lease_pin_schedule =
  [
    Schedule.Skew
      { node = 0; from_ms = 500.0; duration_ms = 4_000.0; offset_ms = -110.0 };
    Schedule.Partition
      { minority = [ 0 ]; from_ms = 1_000.0; duration_ms = 3_000.0 };
  ]

(* The exact fixed-seed counters pin the read mix end to end: any
   change to how [?read_ratio] reaches the clients' op streams moves
   them. *)
let test_lease_reads_survive_partition_and_skew () =
  List.iter
    (fun (protocol, completed) ->
      let v =
        Trial.run ~protocol ~seed:42 ~read_ratio:0.95
          ~read_path:(Config.Lease { margin_ms = 300.0 })
          lease_pin_schedule
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s lease pin: %s" protocol
           (String.concat "; " v.Trial.reasons))
        true v.Trial.ok;
      Alcotest.(check int) (protocol ^ " completed") completed
        v.Trial.completed;
      Alcotest.(check int) (protocol ^ " gave up") 0 v.Trial.gave_up)
    [ ("paxos", 27_328); ("fpaxos", 27_383); ("raft", 27_327) ]

(* Chain tail reads under a slow then flaky tail link: reads keep
   answering (the tail itself is healthy) and writes heal through the
   reliable-delivery layer. *)
let test_tail_reads_survive_tail_link_faults () =
  let schedule =
    [
      Schedule.Slow
        {
          src = 3;
          dst = 4;
          from_ms = 500.0;
          duration_ms = 2_000.0;
          extra_ms = 15.0;
        };
      Schedule.Flaky
        { src = 3; dst = 4; from_ms = 3_000.0; duration_ms = 1_500.0; p_drop = 0.4 };
    ]
  in
  let v =
    Trial.run ~protocol:"chain" ~seed:42 ~read_ratio:0.95
      ~read_path:Config.Tail schedule
  in
  Alcotest.(check bool)
    ("chain tail pin: " ^ String.concat "; " v.Trial.reasons)
    true v.Trial.ok;
  Alcotest.(check int) "chain completed" 24_214 v.Trial.completed;
  Alcotest.(check int) "chain gave up" 0 v.Trial.gave_up

(* Quorum reads pinned under the same leader partition: ABD rounds
   need no lease, so they must ride out skew AND partition. *)
let test_quorum_reads_survive_partition_and_skew () =
  let v =
    Trial.run ~protocol:"paxos" ~seed:42 ~read_ratio:0.5
      ~read_path:Config.Quorum lease_pin_schedule
  in
  Alcotest.(check bool)
    ("quorum pin: " ^ String.concat "; " v.Trial.reasons)
    true v.Trial.ok;
  Alcotest.(check int) "quorum completed" 12_126 v.Trial.completed;
  Alcotest.(check int) "quorum gave up" 0 v.Trial.gave_up

(* Randomized lease campaign with the skew fault armed: the acceptance
   gate for the whole read path. *)
let test_lease_campaign_with_skew protocol () =
  let report =
    Campaign.run ~protocol ~trials:3 ~seed:42 ~read_ratio:0.95
      ~read_path:(Config.Lease { margin_ms = 300.0 })
      ~skew:true ()
  in
  List.iter
    (fun (o : Campaign.outcome) ->
      let shrunk =
        match o.Campaign.shrunk with
        | Some (s, _) -> s
        | None -> o.Campaign.schedule
      in
      Printf.printf "%s lease trial %d failed: %s\n  repro: %s\n" protocol
        o.Campaign.trial
        (String.concat "; " o.Campaign.verdict.Trial.reasons)
        (Campaign.repro_line report ~seed:o.Campaign.seed shrunk))
    report.Campaign.failures;
  Alcotest.(check int)
    (protocol ^ " lease campaign failures")
    0
    (List.length report.Campaign.failures)

let test_trial_detects_unsurvivable_fault () =
  (* mencius wedges when a replica is partitioned away mid-run (its
     slot range stops being skipped and no other path revokes it);
     the liveness oracle must say so. Chain no longer works here: its
     explicitly-acked hops now heal through any transient fault. *)
  let schedule =
    [
      Schedule.Partition
        { minority = [ 1 ]; from_ms = 400.0; duration_ms = 600.0 };
    ]
  in
  let v = Trial.run ~protocol:"mencius" ~seed:11 schedule in
  Alcotest.(check bool) "mencius fails under partition" false v.Trial.ok;
  Alcotest.(check bool) "made some progress first" true (v.Trial.completed > 0)

(* A repro line replays the failing trial only if it carries the
   deployment the campaign ran with: every flag, in the CLI's
   spelling, with rates and ratios that read back bit for bit. *)
let test_repro_carries_deployment () =
  let schedule =
    [ Schedule.Crash { node = 1; from_ms = 400.0; duration_ms = 600.0 } ]
  in
  let replay = Json.to_string (Schedule.to_json schedule) in
  let plain = Campaign.run ~protocol:"paxos" ~trials:0 ~seed:42 () in
  Alcotest.(check string) "defaults add no flags"
    ("bench/main.exe -- nemesis --protocol paxos --seed 7 --replay '"
   ^ replay ^ "'")
    (Campaign.repro_line plain ~seed:7 schedule);
  let rate = 0.1 +. 0.2 in
  let r =
    Campaign.run ~protocol:"raft" ~trials:0 ~seed:42 ~n:9 ~relay_groups:2
      ~shards:4 ~read_ratio:0.95
      ~read_path:(Config.Lease { margin_ms = 300.0 })
      ~arrival:(Paxi_benchmark.Runner.Open { rate_per_sec = rate })
      ()
  in
  Alcotest.(check string) "every deployment flag"
    ("bench/main.exe -- nemesis --protocol raft -n 9 --relay-groups 2 \
      --shards 4 --read-ratio 0.95 --read-path lease --arrival \
      poisson:0.30000000000000004 --seed 7 --replay '" ^ replay ^ "'")
    (Campaign.repro_line r ~seed:7 schedule);
  Alcotest.(check (float 0.0)) "rate reads back exactly" rate
    (float_of_string "0.30000000000000004")

let suite =
  ( "nemesis",
    List.map
      (fun p -> Alcotest.test_case ("campaign " ^ p) `Slow (test_campaign p))
      Paxi_protocols.Registry.names
    @ [
        Alcotest.test_case "campaign pool-deterministic" `Slow
          test_campaign_pool_deterministic;
        Alcotest.test_case "generate deterministic" `Quick
          test_generate_deterministic;
        Alcotest.test_case "generate respects kinds" `Quick
          test_generate_respects_kinds;
        Alcotest.test_case "generate bounds crashes" `Quick
          test_generate_crashes_bounded;
        Alcotest.test_case "crashed windows drain" `Quick
          test_generate_crashed_windows_drain;
        Alcotest.test_case "schedule json roundtrip" `Quick
          test_schedule_json_roundtrip;
        Alcotest.test_case "schedule text roundtrip" `Quick
          test_schedule_text_roundtrip_replays;
        Alcotest.test_case "shrink drops irrelevant faults" `Quick
          test_shrink_drops_irrelevant_faults;
        Alcotest.test_case "shrink halves windows" `Quick
          test_shrink_halves_windows;
        Alcotest.test_case "shrink result still fails" `Quick
          test_shrink_result_still_fails;
        Alcotest.test_case "shrink budget zero" `Quick
          test_shrink_budget_zero_is_identity;
        Alcotest.test_case "wpaxos n=6 steal wedge fixed" `Slow
          test_wpaxos_n6_no_wedge;
        Alcotest.test_case "trial detects unsurvivable fault" `Slow
          test_trial_detects_unsurvivable_fault;
        Alcotest.test_case "skew opt-in" `Quick test_skew_opt_in;
        Alcotest.test_case "repro carries deployment flags" `Quick
          test_repro_carries_deployment;
        Alcotest.test_case "skew schedule roundtrip" `Quick
          test_skew_schedule_roundtrip;
        Alcotest.test_case "lease reads survive partition+skew" `Slow
          test_lease_reads_survive_partition_and_skew;
        Alcotest.test_case "tail reads survive tail link faults" `Slow
          test_tail_reads_survive_tail_link_faults;
        Alcotest.test_case "quorum reads survive partition+skew" `Slow
          test_quorum_reads_survive_partition_and_skew;
      ]
    @ List.map
        (fun p ->
          Alcotest.test_case
            ("lease campaign with skew " ^ p)
            `Slow
            (test_lease_campaign_with_skew p))
        [ "paxos"; "fpaxos"; "raft" ] )
