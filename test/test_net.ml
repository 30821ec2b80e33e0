(* Address, Region, Topology, Faults, Procq *)

let test_address_roundtrip () =
  Alcotest.(check int) "replica id" 3 (Address.replica_id (Address.replica 3));
  Alcotest.(check bool) "is_replica" true (Address.is_replica (Address.replica 0));
  Alcotest.(check bool) "is_client" true (Address.is_client (Address.client 0));
  Alcotest.(check string) "pp replica" "n2" (Address.to_string (Address.replica 2));
  Alcotest.(check string) "pp client" "c7" (Address.to_string (Address.client 7))

let test_address_ordering () =
  Alcotest.(check bool) "replica < client" true
    (Address.compare (Address.replica 5) (Address.client 0) < 0);
  Alcotest.(check bool) "same equal" true
    (Address.equal (Address.client 1) (Address.client 1))

let test_address_replica_id_on_client () =
  Alcotest.check_raises "client" (Invalid_argument "Address.replica_id: client 1")
    (fun () -> ignore (Address.replica_id (Address.client 1)))

let test_lan_topology () =
  let t = Topology.lan ~n_replicas:5 () in
  Alcotest.(check int) "n" 5 (Topology.n_replicas t);
  Alcotest.(check int) "one region" 1 (List.length (Topology.regions t));
  Alcotest.(check bool) "all local" true
    (Region.equal (Topology.region_of_replica t 3) Region.local)

let test_wan_topology_layout () =
  let t = Topology.wan ~regions:Region.aws_five ~replicas_per_region:2 () in
  Alcotest.(check int) "n" 10 (Topology.n_replicas t);
  Alcotest.(check int) "regions" 5 (List.length (Topology.regions t));
  (* round-robin layout: replica r is in region r mod 5 *)
  Alcotest.(check bool) "replica 0 in VA" true
    (Region.equal (Topology.region_of_replica t 0) Region.virginia);
  Alcotest.(check bool) "replica 6 in OH" true
    (Region.equal (Topology.region_of_replica t 6) Region.ohio);
  Alcotest.(check (list int)) "replicas in VA" [ 0; 5 ]
    (Topology.replicas_in t Region.virginia)

let test_rtt_sampling () =
  let t = Topology.wan ~regions:Region.aws_five ~replicas_per_region:1 () in
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 100 do
    let rtt = Topology.sample_rtt t rng (Address.replica 0) (Address.replica 4) in
    (* VA <-> JP is ~162 ms with 5% jitter *)
    Alcotest.(check bool) "plausible VA-JP rtt" true (rtt > 130.0 && rtt < 200.0)
  done

let test_one_way_half_rtt () =
  let t = Topology.wan ~regions:Region.aws_five ~replicas_per_region:1 ~jitter:0.0 () in
  let rng = Rng.create ~seed:1 in
  let d = Topology.sample_delay t rng (Address.replica 0) (Address.replica 1) in
  Alcotest.(check (float 1e-6)) "half of 11ms" 5.5 d

let test_client_region_assignment () =
  let t = Topology.wan ~regions:Region.aws_five ~replicas_per_region:1 () in
  Topology.assign_client t ~id:3 ~region:Region.japan;
  Alcotest.(check bool) "assigned" true
    (Region.equal (Topology.region_of t (Address.client 3)) Region.japan);
  (* unassigned clients default to the first region *)
  Alcotest.(check bool) "default" true
    (Region.equal (Topology.region_of t (Address.client 99)) Region.virginia)

(* Zones are regions in first-appearance order, each listing its
   replicas; an address's zone is its region's index. *)
let test_zones () =
  let az s = Region.make ("az-" ^ s) in
  let t =
    Topology.custom
      ~replica_regions:[ az "b"; az "a"; az "b"; az "c"; az "a" ]
      ~rtt_ms:(fun _ _ -> 1.0)
      ()
  in
  Alcotest.(check (array (list int))) "zones" [| [ 0; 2 ]; [ 1; 4 ]; [ 3 ] |]
    (Topology.zones t);
  Alcotest.(check int) "replica" 1
    (Topology.zone_of t (Address.replica 4));
  Topology.assign_client t ~id:7 ~region:(az "c");
  Alcotest.(check int) "assigned client" 2
    (Topology.zone_of t (Address.client 7));
  (* unassigned clients live in the first replica's region *)
  Alcotest.(check int) "unassigned client" 0
    (Topology.zone_of t (Address.client 8));
  Topology.assign_client t ~id:9 ~region:(az "d");
  Alcotest.(check bool) "region without replicas" true
    (match Topology.zone_of t (Address.client 9) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_aws_matrix_symmetric () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check (float 1e-9))
            "symmetric"
            (Topology.aws_rtt_ms a b) (Topology.aws_rtt_ms b a))
        Region.aws_five)
    Region.aws_five

let test_faults_crash_window () =
  let f = Faults.create () in
  Faults.crash f ~node:(Address.replica 1) ~from_ms:100.0 ~duration_ms:50.0;
  Alcotest.(check bool) "before" false (Faults.is_crashed f ~now_ms:99.0 (Address.replica 1));
  Alcotest.(check bool) "during" true (Faults.is_crashed f ~now_ms:120.0 (Address.replica 1));
  Alcotest.(check bool) "after" false (Faults.is_crashed f ~now_ms:151.0 (Address.replica 1));
  Alcotest.(check bool) "other node" false (Faults.is_crashed f ~now_ms:120.0 (Address.replica 2))

let test_faults_drop_directional () =
  let f = Faults.create () in
  let rng = Rng.create ~seed:1 in
  let a = Address.replica 0 and b = Address.replica 1 in
  Faults.drop f ~src:a ~dst:b ~from_ms:0.0 ~duration_ms:100.0;
  Alcotest.(check bool) "a->b dropped" true (Faults.should_drop f rng ~now_ms:50.0 ~src:a ~dst:b);
  Alcotest.(check bool) "b->a fine" false (Faults.should_drop f rng ~now_ms:50.0 ~src:b ~dst:a)

let test_faults_flaky_probability () =
  let f = Faults.create () in
  let rng = Rng.create ~seed:5 in
  let a = Address.replica 0 and b = Address.replica 1 in
  Faults.flaky f ~src:a ~dst:b ~from_ms:0.0 ~duration_ms:1000.0 ~p_drop:0.5;
  let drops = ref 0 in
  for _ = 1 to 2000 do
    if Faults.should_drop f rng ~now_ms:10.0 ~src:a ~dst:b then incr drops
  done;
  let p = float_of_int !drops /. 2000.0 in
  Alcotest.(check bool) "p ~0.5" true (Float.abs (p -. 0.5) < 0.05)

let test_faults_slow () =
  let f = Faults.create () in
  let rng = Rng.create ~seed:5 in
  let a = Address.replica 0 and b = Address.replica 1 in
  Faults.slow f ~src:a ~dst:b ~from_ms:0.0 ~duration_ms:100.0 ~extra_ms:10.0;
  let d = Faults.extra_delay f rng ~now_ms:50.0 ~src:a ~dst:b in
  Alcotest.(check bool) "bounded delay" true (d >= 0.0 && d <= 10.0);
  Alcotest.(check (float 0.0)) "outside window" 0.0
    (Faults.extra_delay f rng ~now_ms:150.0 ~src:a ~dst:b)

let test_faults_partition () =
  let f = Faults.create () in
  let rng = Rng.create ~seed:5 in
  let r = Address.replica in
  Faults.partition f
    ~groups:[ [ r 0; r 1 ]; [ r 2; r 3; r 4 ] ]
    ~from_ms:0.0 ~duration_ms:100.0;
  Alcotest.(check bool) "cross-group severed" true
    (Faults.should_drop f rng ~now_ms:50.0 ~src:(r 0) ~dst:(r 2));
  Alcotest.(check bool) "within group fine" false
    (Faults.should_drop f rng ~now_ms:50.0 ~src:(r 2) ~dst:(r 4));
  Alcotest.(check bool) "healed after" false
    (Faults.should_drop f rng ~now_ms:150.0 ~src:(r 0) ~dst:(r 2))

let test_faults_clear () =
  let f = Faults.create () in
  Faults.crash f ~node:(Address.replica 0) ~from_ms:0.0 ~duration_ms:100.0;
  Faults.clear f;
  Alcotest.(check bool) "cleared" false (Faults.is_crashed f ~now_ms:50.0 (Address.replica 0))

(* Regression: overlapping crash + partition windows on the same node,
   probed past expiry (which caches an empty active set), then
   cleared and re-added. The re-added schedule must behave exactly
   like a fresh one — clear must not leak cache state that would
   resurrect or suppress expired windows. *)
let test_faults_clear_no_resurrection () =
  let r = Address.replica in
  let rng () = Rng.create ~seed:9 in
  let install f =
    Faults.crash f ~node:(r 1) ~from_ms:100.0 ~duration_ms:200.0;
    Faults.partition f
      ~groups:[ [ r 0; r 1 ]; [ r 2; r 3; r 4 ] ]
      ~from_ms:150.0 ~duration_ms:100.0;
    Faults.drop f ~src:(r 0) ~dst:(r 2) ~from_ms:400.0 ~duration_ms:50.0
  in
  let f = Faults.create () in
  install f;
  (* advance past every window so no rule is active *)
  Alcotest.(check bool) "all expired" false
    (Faults.should_drop f (rng ()) ~now_ms:1_000.0 ~src:(r 0) ~dst:(r 2));
  Faults.clear f;
  Alcotest.(check int) "cleared" 0 (Faults.rule_count f);
  install f;
  let fresh = Faults.create () in
  install fresh;
  (* the re-added schedule matches a fresh one at every probe time,
     including inside the windows that had already expired *)
  List.iter
    (fun now_ms ->
      Alcotest.(check bool)
        (Printf.sprintf "crash verdict at %.0f" now_ms)
        (Faults.is_crashed fresh ~now_ms (r 1))
        (Faults.is_crashed f ~now_ms (r 1));
      List.iter
        (fun (src, dst) ->
          Alcotest.(check bool)
            (Printf.sprintf "drop verdict %s->%s at %.0f"
               (Address.to_string src) (Address.to_string dst) now_ms)
            (Faults.should_drop fresh (rng ()) ~now_ms ~src ~dst)
            (Faults.should_drop f (rng ()) ~now_ms ~src ~dst))
        [ (r 0, r 2); (r 1, r 3); (r 2, r 4); (r 0, r 1) ])
    [ 50.0; 120.0; 160.0; 260.0; 320.0; 420.0; 500.0 ]

(* Forward-time caching must not change verdicts: drive one schedule
   strictly forward (crossing every window edge) and compare against a
   fresh copy probed only at that instant. *)
let test_faults_pruning_preserves_verdicts () =
  let r = Address.replica in
  let install f =
    Faults.crash f ~node:(r 0) ~from_ms:10.0 ~duration_ms:20.0;
    Faults.crash f ~node:(r 0) ~from_ms:50.0 ~duration_ms:20.0;
    Faults.drop f ~src:(r 1) ~dst:(r 0) ~from_ms:25.0 ~duration_ms:100.0
  in
  let pruned = Faults.create () in
  install pruned;
  List.iter
    (fun now_ms ->
      let fresh = Faults.create () in
      install fresh;
      Alcotest.(check bool)
        (Printf.sprintf "crash at %.0f" now_ms)
        (Faults.is_crashed fresh ~now_ms (r 0))
        (Faults.is_crashed pruned ~now_ms (r 0));
      Alcotest.(check bool)
        (Printf.sprintf "drop at %.0f" now_ms)
        (Faults.should_drop fresh (Rng.create ~seed:1) ~now_ms ~src:(r 1)
           ~dst:(r 0))
        (Faults.should_drop pruned (Rng.create ~seed:1) ~now_ms ~src:(r 1)
           ~dst:(r 0)))
    [ 0.0; 15.0; 31.0; 45.0; 60.0; 71.0; 124.0; 126.0; 500.0 ]

let install_gen_rules f rules =
  List.iter
    (function
      | `Crash (node, from_ms, duration_ms) ->
          Faults.crash f ~node ~from_ms ~duration_ms
      | `Drop (src, dst, from_ms, duration_ms) ->
          Faults.drop f ~src ~dst ~from_ms ~duration_ms
      | `Slow (src, dst, from_ms, duration_ms, extra_ms) ->
          Faults.slow f ~src ~dst ~from_ms ~duration_ms ~extra_ms
      | `Flaky (src, dst, from_ms, duration_ms, p_drop) ->
          Faults.flaky f ~src ~dst ~from_ms ~duration_ms ~p_drop
      | `Skew (node, from_ms, duration_ms, offset_ms) ->
          Faults.skew f ~node ~from_ms ~duration_ms ~offset_ms
      | `Partition (k, from_ms, duration_ms) ->
          let minority = List.init k Address.replica in
          let rest =
            List.filter_map
              (fun i -> if i >= k then Some (Address.replica i) else None)
              (List.init 5 Fun.id)
          in
          Faults.partition f ~groups:[ minority; rest ] ~from_ms ~duration_ms)
    rules

(* The edge-indexed active-set cache must answer every query exactly
   as a direct scan of the rule list would, RNG draw for RNG draw.
   [ref_*] below is that scan, over the generated rules newest-first
   (the order [Faults] keeps them in). Windows sit on a 50 ms grid, so
   schedules overlap, abut and include zero-length windows; queries
   walk a clock that mostly moves forward but also jumps back and lands
   exactly on edges; rules are added between queries and [clear]
   empties the schedule mid-sequence. *)
type plane_op =
  | Add of
      [ `Crash of Address.t * float * float
      | `Drop of Address.t * Address.t * float * float
      | `Slow of Address.t * Address.t * float * float * float
      | `Flaky of Address.t * Address.t * float * float * float
      | `Partition of int * float * float
      | `Skew of Address.t * float * float * float ]
  | Clear
  | Step of float  (** move the clock by this much (either sign) *)
  | Edge of int  (** set the clock to grid point [50 * k] *)
  | Query of Address.t * Address.t  (** all four queries for (src, dst) *)

let plane_ops_gen =
  QCheck.Gen.(
    let node = map Address.replica (int_range 0 4) in
    let win =
      pair (map (fun k -> 50.0 *. float_of_int k) (int_range 0 10))
        (oneof
           [
             map (fun k -> 50.0 *. float_of_int k) (int_range 0 6);
             float_range 0.0 300.0;
           ])
    in
    let rule =
      oneof
        [
          (let* n = node and* f, d = win in
           return (`Crash (n, f, d)));
          (let* s = node and* t = node and* f, d = win in
           return (`Drop (s, t, f, d)));
          (let* s = node and* t = node and* f, d = win
           and* e = float_range 0.1 10.0 in
           return (`Slow (s, t, f, d, e)));
          (let* s = node and* t = node and* f, d = win
           and* p = float_range 0.0 1.0 in
           return (`Flaky (s, t, f, d, p)));
          (let* k = int_range 1 4 and* f, d = win in
           return (`Partition (k, f, d)));
          (let* n = node and* f, d = win
           and* o = float_range (-50.0) 50.0 in
           return (`Skew (n, f, d, o)));
        ]
    in
    let op =
      frequency
        [
          (3, map (fun r -> Add r) rule);
          (1, return Clear);
          (6, map (fun d -> Step d) (float_range (-120.0) 80.0));
          (2, map (fun k -> Edge k) (int_range 0 16));
          ( 12,
            let* s = node and* t = node in
            return (Query (s, t)) );
        ]
    in
    list_size (int_range 0 80) op)

let ref_in_window f d now = now >= f && now < f +. d

let ref_crashed rules now a =
  List.exists
    (function
      | `Crash (n, f, d) -> Address.equal n a && ref_in_window f d now
      | _ -> false)
    rules

let ref_severed k src dst =
  let side a = Address.replica_id a < k in
  side src <> side dst

let ref_should_drop rules rng now src dst =
  ref_crashed rules now src || ref_crashed rules now dst
  || List.exists
       (function
         | `Drop (s, t, f, d) ->
             ref_in_window f d now && Address.equal s src
             && Address.equal t dst
         | `Flaky (s, t, f, d, p) ->
             ref_in_window f d now && Address.equal s src
             && Address.equal t dst && Rng.bernoulli rng ~p
         | `Partition (k, f, d) ->
             ref_in_window f d now && ref_severed k src dst
         | `Crash _ | `Slow _ | `Skew _ -> false)
       rules

let ref_extra_delay rules rng now src dst =
  List.fold_left
    (fun acc -> function
      | `Slow (s, t, f, d, e)
        when ref_in_window f d now && Address.equal s src
             && Address.equal t dst ->
          acc +. Rng.float rng e
      | _ -> acc)
    0.0 rules

let ref_clock_offset rules now a =
  List.fold_left
    (fun acc -> function
      | `Skew (n, f, d, o) when Address.equal n a && ref_in_window f d now
        ->
          acc +. o
      | _ -> acc)
    0.0 rules

let prop_faults_plane_matches_scan =
  QCheck.Test.make ~name:"fault plane answers equal a direct rule scan"
    ~count:300 (QCheck.make plane_ops_gen) (fun ops ->
      let f = Faults.create () in
      let rules = ref [] and now = ref 0.0 in
      let rng_a = Rng.create ~seed:3 and rng_b = Rng.create ~seed:3 in
      let agree ~what a b =
        if a <> b then
          QCheck.Test.fail_reportf "%s differs at %g ms" what !now
      in
      List.iter
        (function
          | Add r ->
              install_gen_rules f [ r ];
              rules := r :: !rules
          | Clear ->
              Faults.clear f;
              rules := []
          | Step d -> now := !now +. d
          | Edge k -> now := 50.0 *. float_of_int k
          | Query (src, dst) ->
              let now_ms = !now in
              agree ~what:"is_crashed"
                (Faults.is_crashed f ~now_ms src)
                (ref_crashed !rules now_ms src);
              agree ~what:"clock_offset"
                (Faults.clock_offset f ~now_ms src)
                (ref_clock_offset !rules now_ms src);
              agree ~what:"should_drop"
                (Faults.should_drop f rng_a ~now_ms ~src ~dst)
                (ref_should_drop !rules rng_b now_ms src dst);
              agree ~what:"extra_delay"
                (Faults.extra_delay f rng_a ~now_ms ~src ~dst)
                (ref_extra_delay !rules rng_b now_ms src dst))
        ops;
      (* same number of draws on both sides: the next values agree *)
      Rng.float rng_a 1.0 = Rng.float rng_b 1.0)

let test_procq_queueing () =
  let q = Procq.create ~t_in_ms:1.0 ~t_out_ms:0.5 ~bandwidth_mbps:1e9 () in
  (* two messages arriving together queue behind each other *)
  let f1 = Procq.occupy_incoming q ~now_ms:0.0 ~size_bytes:0 in
  let f2 = Procq.occupy_incoming q ~now_ms:0.0 ~size_bytes:0 in
  Alcotest.(check (float 1e-6)) "first" 1.0 f1;
  Alcotest.(check (float 1e-6)) "second queued" 2.0 f2;
  (* idle gap resets the queue *)
  let f3 = Procq.occupy_incoming q ~now_ms:10.0 ~size_bytes:0 in
  Alcotest.(check (float 1e-6)) "after idle" 11.0 f3

let test_procq_broadcast_serializes_once () =
  let q = Procq.create ~t_in_ms:1.0 ~t_out_ms:0.5 ~bandwidth_mbps:1.0 () in
  (* bandwidth 1 Mbit/s = 125 bytes/ms; 125-byte message = 1 ms NIC *)
  let f = Procq.occupy_outgoing q ~now_ms:0.0 ~copies:4 ~size_bytes:125 in
  Alcotest.(check (float 1e-6)) "0.5 CPU + 4 NIC" 4.5 f

let test_procq_zero_is_free () =
  let q = Procq.zero () in
  Alcotest.(check (float 0.0)) "no cost" 5.0
    (Procq.occupy_incoming q ~now_ms:5.0 ~size_bytes:1_000_000);
  Alcotest.(check (float 0.0)) "no busy" 0.0 (Procq.busy_time q)

let test_procq_busy_accounting () =
  let q = Procq.create ~t_in_ms:1.0 ~t_out_ms:1.0 ~bandwidth_mbps:1e9 () in
  ignore (Procq.occupy_incoming q ~now_ms:0.0 ~size_bytes:0);
  ignore (Procq.occupy_outgoing q ~now_ms:0.0 ~copies:1 ~size_bytes:0);
  Alcotest.(check bool) "busy ~2ms" true (Float.abs (Procq.busy_time q -. 2.0) < 1e-6);
  Alcotest.(check int) "2 messages" 2 (Procq.messages_processed q);
  Procq.reset q;
  Alcotest.(check (float 0.0)) "reset" 0.0 (Procq.busy_time q)

let suite =
  ( "net",
    [
      Alcotest.test_case "address roundtrip" `Quick test_address_roundtrip;
      Alcotest.test_case "address ordering" `Quick test_address_ordering;
      Alcotest.test_case "replica_id rejects client" `Quick test_address_replica_id_on_client;
      Alcotest.test_case "lan topology" `Quick test_lan_topology;
      Alcotest.test_case "wan topology layout" `Quick test_wan_topology_layout;
      Alcotest.test_case "rtt sampling plausible" `Quick test_rtt_sampling;
      Alcotest.test_case "one-way is half rtt" `Quick test_one_way_half_rtt;
      Alcotest.test_case "client region assignment" `Quick test_client_region_assignment;
      Alcotest.test_case "zones" `Quick test_zones;
      Alcotest.test_case "aws matrix symmetric" `Quick test_aws_matrix_symmetric;
      Alcotest.test_case "crash window" `Quick test_faults_crash_window;
      Alcotest.test_case "drop is directional" `Quick test_faults_drop_directional;
      Alcotest.test_case "flaky probability" `Quick test_faults_flaky_probability;
      Alcotest.test_case "slow adds bounded delay" `Quick test_faults_slow;
      Alcotest.test_case "partition" `Quick test_faults_partition;
      Alcotest.test_case "faults clear" `Quick test_faults_clear;
      Alcotest.test_case "clear does not resurrect expired windows" `Quick
        test_faults_clear_no_resurrection;
      Alcotest.test_case "pruning preserves verdicts" `Quick
        test_faults_pruning_preserves_verdicts;
      QCheck_alcotest.to_alcotest prop_faults_plane_matches_scan;
      Alcotest.test_case "procq queueing" `Quick test_procq_queueing;
      Alcotest.test_case "broadcast serializes once" `Quick test_procq_broadcast_serializes_once;
      Alcotest.test_case "zero queue is free" `Quick test_procq_zero_is_free;
      Alcotest.test_case "procq busy accounting" `Quick test_procq_busy_accounting;
    ] )
