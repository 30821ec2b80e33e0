open Paxi_model

let feq = Alcotest.(check (float 1e-9))

let test_mm1_closed_form () =
  (* Wq = rho^2 / (lambda (1 - rho)); rho=0.5, lambda=5, mu=10 -> 0.1,
     matching the textbook Wq = lambda / (mu (mu - lambda)) *)
  feq "mm1" 0.1 (Queueing.wait_time Queueing.Mm1 ~lambda:5.0 ~mu:10.0)

let test_md1_closed_form () =
  (* Wq = rho / (2 mu (1-rho)) = 0.5 / (2*10*0.5) = 0.05 *)
  feq "md1" 0.05 (Queueing.wait_time Queueing.Md1 ~lambda:5.0 ~mu:10.0)

let test_md1_half_of_mm1 () =
  (* with the same rho, deterministic service waits half as long *)
  let lambda = 7.0 and mu = 10.0 in
  feq "md1 = mm1/2"
    (Queueing.wait_time Queueing.Mm1 ~lambda ~mu /. 2.0)
    (Queueing.wait_time Queueing.Md1 ~lambda ~mu)

let test_mg1_reduces_to_md1_and_mm1 () =
  let lambda = 5.0 and mu = 8.0 in
  feq "cv2=0 is deterministic"
    (Queueing.wait_time Queueing.Md1 ~lambda ~mu)
    (Queueing.wait_time (Queueing.Mg1 { service_cv2 = 0.0 }) ~lambda ~mu);
  feq "cv2=1 is exponential"
    (Queueing.wait_time Queueing.Mm1 ~lambda ~mu)
    (Queueing.wait_time (Queueing.Mg1 { service_cv2 = 1.0 }) ~lambda ~mu)

let test_saturation () =
  Alcotest.(check bool) "at mu" true
    (Float.is_integer (Queueing.wait_time Queueing.Md1 ~lambda:10.0 ~mu:10.0)
     = Float.is_integer infinity
     && Queueing.wait_time Queueing.Md1 ~lambda:10.0 ~mu:10.0 = infinity);
  Alcotest.(check bool) "above mu" true
    (Queueing.wait_time Queueing.Mm1 ~lambda:20.0 ~mu:10.0 = infinity);
  feq "zero load" 0.0 (Queueing.wait_time Queueing.Mm1 ~lambda:0.0 ~mu:10.0)

let test_wait_monotone_in_lambda () =
  let kinds =
    [ Queueing.Mm1; Queueing.Md1; Queueing.Mg1 { service_cv2 = 0.5 };
      Queueing.Gg1 { arrival_cv2 = 1.0; service_cv2 = 0.5 } ]
  in
  List.iter
    (fun kind ->
      let w l = Queueing.wait_time kind ~lambda:l ~mu:10.0 in
      Alcotest.(check bool) "monotone" true (w 2.0 < w 5.0 && w 5.0 < w 9.0))
    kinds

let test_order_stats_min_max () =
  let rng = Rng.create ~seed:3 in
  let d = Dist.uniform ~lo:0.0 ~hi:1.0 in
  (* expected k-th of n uniforms is k/(n+1) *)
  let e1 = Order_stats.kth_of_n d rng ~k:1 ~n:4 ~trials:20_000 in
  let e4 = Order_stats.kth_of_n d rng ~k:4 ~n:4 ~trials:20_000 in
  Alcotest.(check bool) "min ~0.2" true (Float.abs (e1 -. 0.2) < 0.02);
  Alcotest.(check bool) "max ~0.8" true (Float.abs (e4 -. 0.8) < 0.02)

let test_kth_of_samples () =
  let rtts = [| 50.0; 11.0; 107.0; 61.0 |] in
  feq "1st" 11.0 (Order_stats.kth_of_samples rtts ~k:1);
  feq "2nd" 50.0 (Order_stats.kth_of_samples rtts ~k:2);
  feq "4th" 107.0 (Order_stats.kth_of_samples rtts ~k:4)

let test_quorum_rtt_monotone_in_quorum () =
  let rng = Rng.create ~seed:5 in
  let dq q = Order_stats.quorum_rtt_lan ~mu:1.0 ~sigma:0.1 ~quorum:q ~n:9 rng in
  Alcotest.(check bool) "bigger quorum waits longer" true (dq 3 < dq 5 && dq 5 < dq 8);
  feq "self-quorum free" 0.0 (dq 1)

let test_service_paxos () =
  (* ts = 2 t_out + N t_in + 2 N s/b *)
  let node =
    { Service.n = 9; t_in_ms = 0.012; t_out_ms = 0.008;
      msg_size_bytes = 125; bandwidth_mbps = 1000.0 }
  in
  let rc = Service.paxos node in
  (* nic: 125 bytes at 125 bytes/ms = 0.001 ms; 2*9*0.001 = 0.018 *)
  feq "lead" (0.016 +. 0.108 +. 0.018) rc.Service.lead_ms;
  feq "single leader" 1.0 rc.Service.lead_share;
  feq "no follow work" 0.0 rc.Service.follow_ms

let test_epaxos_conflict_increases_cost () =
  let node = Service.default_node ~n:9 in
  let c0 = Service.epaxos node ~penalty:2.0 ~conflict:0.0 in
  let c1 = Service.epaxos node ~penalty:2.0 ~conflict:1.0 in
  Alcotest.(check bool) "conflict costs more" true
    (Service.mean_service_ms c1 > Service.mean_service_ms c0);
  Alcotest.(check bool) "capacity drops" true
    (Service.max_throughput_rps c1 < Service.max_throughput_rps c0)

let test_epaxos_conflict_capacity_drop_band () =
  (* the paper reports roughly 40% capacity degradation from c=0 to
     c=1 (Fig. 12) *)
  let node = Service.default_node ~n:5 in
  let cap c = Service.max_throughput_rps (Service.epaxos node ~penalty:1.8 ~conflict:c) in
  let drop = 1.0 -. (cap 1.0 /. cap 0.0) in
  Alcotest.(check bool)
    (Printf.sprintf "drop %.2f in [0.25, 0.55]" drop)
    true
    (drop > 0.25 && drop < 0.55)

let test_protocol_capacity_ordering_lan () =
  (* paper Fig. 8a: single-leader lowest; multi-leader protocols higher *)
  let node = Service.default_node ~n:9 in
  let cap p = Latency_model.lan_max_throughput p ~node in
  let paxos = cap Latency_model.Paxos in
  let wpaxos = cap (Latency_model.Wpaxos { leaders = 3; locality = 1.0; fz = 0 }) in
  let epaxos = cap (Latency_model.Epaxos { conflict = 0.0 }) in
  Alcotest.(check bool) "wpaxos > paxos" true (wpaxos > paxos);
  Alcotest.(check bool) "epaxos(c=0) > paxos" true (epaxos > paxos);
  (* and the improvement is bounded, not linear in leaders (§5.2) *)
  Alcotest.(check bool) "wpaxos < 3x paxos" true (wpaxos < 3.0 *. paxos)

let test_lan_latency_curve_rises () =
  let node = Service.default_node ~n:9 in
  let rng = Rng.create ~seed:7 in
  let cap = Latency_model.lan_max_throughput Latency_model.Paxos ~node in
  let points =
    Latency_model.lan_curve Latency_model.Paxos ~node
      ~lan:Latency_model.default_lan ~rng
      ~lambdas:[ 0.2 *. cap; 0.6 *. cap; 0.95 *. cap ]
  in
  match points with
  | [ a; b; c ] ->
      Alcotest.(check bool) "latency rises with load" true
        (a.Latency_model.latency_ms < b.Latency_model.latency_ms
        && b.Latency_model.latency_ms < c.Latency_model.latency_ms)
  | _ -> Alcotest.fail "expected 3 points"

let test_lan_point_saturates () =
  let node = Service.default_node ~n:9 in
  let rng = Rng.create ~seed:7 in
  let cap = Latency_model.lan_max_throughput Latency_model.Paxos ~node in
  Alcotest.(check bool) "beyond capacity is None" true
    (Latency_model.lan_point Latency_model.Paxos ~node
       ~lan:Latency_model.default_lan ~rng ~lambda_rps:(1.1 *. cap)
    = None)

let test_wan_latency_ordering () =
  (* paper §5.3: >100 ms between slowest (Paxos) and fastest (WPaxos) *)
  let node = Service.default_node ~n:5 in
  let wan = Latency_model.default_wan in
  let lat p leader =
    match
      Latency_model.wan_point p ~node ~wan ~leader_region:leader ~lambda_rps:500.0
    with
    | Some pt -> pt.Latency_model.latency_ms
    | None -> infinity
  in
  let paxos = lat Latency_model.Paxos Region.california in
  let fpaxos = lat (Latency_model.Fpaxos { q2 = 2 }) Region.california in
  let wpaxos =
    lat (Latency_model.Wpaxos { leaders = 5; locality = 0.7; fz = 0 }) Region.virginia
  in
  Alcotest.(check bool) "fpaxos < paxos" true (fpaxos < paxos);
  Alcotest.(check bool) "wpaxos fastest" true (wpaxos < fpaxos);
  Alcotest.(check bool) ">100ms spread" true (paxos -. wpaxos > 100.0)

let test_formulas_eq_4_5_6 () =
  (* the worked instantiations of §6.1 at N = 9 *)
  feq "L(Paxos) = 4" 4.0 (Formulas.load_paxos ~n:9);
  feq "L(EPaxos) = 4/3 (1+c) at c=0" (4.0 /. 3.0) (Formulas.load_epaxos ~n:9 ~conflict:0.0);
  feq "L(EPaxos) doubles at c=1" (8.0 /. 3.0) (Formulas.load_epaxos ~n:9 ~conflict:1.0);
  feq "L(WPaxos) = 4/3" (4.0 /. 3.0) (Formulas.load_wpaxos ~n:9 ~leaders:3)

let test_formula_3_general () =
  (* L = (1+c)(Q + L - 2)/L *)
  feq "single leader majority" 4.0 (Formulas.load ~leaders:1 ~conflict:0.0 ~quorum:5);
  feq "capacity reciprocal" 0.25 (Formulas.capacity ~leaders:1 ~conflict:0.0 ~quorum:5);
  Alcotest.(check bool) "more leaders, less load" true
    (Formulas.load ~leaders:3 ~conflict:0.0 ~quorum:3
    < Formulas.load ~leaders:1 ~conflict:0.0 ~quorum:3)

let test_formula_7 () =
  (* Latency = (1+c)((1-l)(DL+DQ) + l DQ) *)
  feq "full locality" 5.0 (Formulas.latency ~conflict:0.0 ~locality:1.0 ~dl_ms:100.0 ~dq_ms:5.0);
  feq "no locality" 105.0 (Formulas.latency ~conflict:0.0 ~locality:0.0 ~dl_ms:100.0 ~dq_ms:5.0);
  feq "conflicts scale" 210.0 (Formulas.latency ~conflict:1.0 ~locality:0.0 ~dl_ms:100.0 ~dq_ms:5.0)

let test_epaxos_adaptive_monotone () =
  (* the adaptive-conflict series degrades with load (Fig. 10) *)
  let node = Service.default_node ~n:5 in
  let wan = Latency_model.default_wan in
  let lat lambda =
    match
      Latency_model.wan_point
        (Latency_model.Epaxos_adaptive { conflict_lo = 0.02; conflict_hi = 0.70 })
        ~node ~wan ~leader_region:Region.virginia ~lambda_rps:lambda
    with
    | Some p -> p.Latency_model.latency_ms
    | None -> infinity
  in
  Alcotest.(check bool) "latency grows with load" true
    (lat 1000.0 < lat 4000.0 && lat 4000.0 < lat 7000.0)

let test_wankeeper_locality_helps () =
  (* master executes the non-local share: capacity grows with l *)
  let node = Service.default_node ~n:9 in
  let cap l =
    Latency_model.lan_max_throughput
      (Latency_model.Wankeeper { leaders = 3; locality = l })
      ~node
  in
  Alcotest.(check bool) "more locality, more capacity" true
    (cap 0.2 < cap 0.6 && cap 0.6 < cap 1.0)

let test_wpaxos_fz_latency_cost () =
  (* fz=1 pays a cross-region quorum where fz=0 commits locally *)
  let node = Service.default_node ~n:5 in
  let wan = Latency_model.default_wan in
  let lat fz =
    match
      Latency_model.wan_point
        (Latency_model.Wpaxos { leaders = 5; locality = 0.9; fz })
        ~node ~wan ~leader_region:Region.virginia ~lambda_rps:1000.0
    with
    | Some p -> p.Latency_model.latency_ms
    | None -> infinity
  in
  Alcotest.(check bool) "fz=1 slower than fz=0" true (lat 0 < lat 1)

let test_advisor_paths () =
  let open Advisor in
  let base =
    {
      needs_consensus = true;
      wan = true;
      read_heavy = false;
      locality = No_locality;
      region_failure_concern = false;
    }
  in
  let proto_of d = (recommend d).protocols in
  Alcotest.(check bool) "no consensus" true
    (List.mem "chain-replication" (proto_of { base with needs_consensus = false }));
  Alcotest.(check bool) "lan single leader" true
    (List.mem "paxos" (proto_of { base with wan = false }));
  Alcotest.(check bool) "read heavy -> leaderless" true
    (List.mem "epaxos" (proto_of { base with read_heavy = true }));
  Alcotest.(check bool) "static locality -> sharding" true
    (List.mem "paxos-groups" (proto_of { base with locality = Static_locality }));
  Alcotest.(check bool) "dynamic + failures -> wpaxos" true
    (List.mem "wpaxos"
       (proto_of { base with locality = Dynamic_locality; region_failure_concern = true }));
  Alcotest.(check bool) "dynamic, no failure concern -> hierarchy" true
    (List.mem "wankeeper"
       (proto_of { base with locality = Dynamic_locality }));
  Alcotest.(check int) "seven distinct paths" 7 (List.length all_paths)

let prop_load_decreasing_in_leaders =
  QCheck.Test.make ~name:"load decreases with leaders at fixed quorum" ~count:100
    QCheck.(pair (int_range 2 20) (float_range 0.0 1.0))
    (fun (q, c) ->
      (* holds for quorums of at least two; a self-quorum (Q=1) has
         zero single-leader load by definition *)
      Formulas.load ~leaders:4 ~conflict:c ~quorum:q
      <= Formulas.load ~leaders:1 ~conflict:c ~quorum:q +. 1e-9)

(* Read-path terms (PR 7): a local (lease) or tail read is one client
   RTT plus the serving node's touch time — no queue, no quorum — and
   a quorum read adds two majority-RTT rounds plus two broadcast
   serializations. *)
let test_read_breakdown_local_and_tail () =
  let node = Service.default_node ~n:5 in
  let lan = Latency_model.default_lan in
  let rng = Rng.create ~seed:1 in
  List.iter
    (fun kind ->
      let b = Latency_model.read_breakdown kind ~node ~lan ~rng in
      feq "wq is zero by construction" 0.0 b.Latency_model.wq_ms;
      feq "no quorum term" 0.0 b.Latency_model.dq_ms;
      feq "dl is the client rtt" lan.Latency_model.rtt_mu_ms
        b.Latency_model.dl_ms;
      feq "service is the touch time"
        (node.Service.t_in_ms +. node.Service.t_out_ms
        +. (2.0 *. Service.nic_ms node))
        b.Latency_model.service_ms;
      feq "terms telescope"
        (b.Latency_model.service_ms +. b.Latency_model.dl_ms)
        b.Latency_model.total_ms;
      (* no Monte-Carlo term: deterministic regardless of rng *)
      let b' =
        Latency_model.read_breakdown kind ~node ~lan
          ~rng:(Rng.create ~seed:999)
      in
      feq "deterministic" b.Latency_model.total_ms b'.Latency_model.total_ms)
    [ Latency_model.Local_read; Latency_model.Tail_read ]

let test_read_breakdown_quorum () =
  let node = Service.default_node ~n:5 in
  let lan = Latency_model.default_lan in
  let b =
    Latency_model.read_breakdown Latency_model.Quorum_read ~node ~lan
      ~rng:(Rng.create ~seed:2)
  in
  let local =
    Latency_model.read_breakdown Latency_model.Local_read ~node ~lan
      ~rng:(Rng.create ~seed:2)
  in
  Alcotest.(check bool) "quorum term present" true (b.Latency_model.dq_ms > 0.0);
  (* two majority-RTT order-statistic rounds: the (Q-1)-th of n-1
     draws sits a touch under mu for a LAN's tight sigma, so 2x the
     round count brackets it from both sides *)
  Alcotest.(check bool)
    (Printf.sprintf "dq %.4f ~ two quorum rounds" b.Latency_model.dq_ms)
    true
    (b.Latency_model.dq_ms >= 1.6 *. lan.Latency_model.rtt_mu_ms
    && b.Latency_model.dq_ms <= 2.6 *. lan.Latency_model.rtt_mu_ms);
  Alcotest.(check bool) "quorum read dearer than local" true
    (b.Latency_model.total_ms > local.Latency_model.total_ms);
  feq "terms telescope"
    (b.Latency_model.service_ms +. b.Latency_model.dl_ms
    +. b.Latency_model.dq_ms)
    b.Latency_model.total_ms;
  (* the model prices the write path above the local read at any load:
     a lease read must always look cheaper than a commit round *)
  let rng = Rng.create ~seed:3 in
  match
    Latency_model.lan_breakdown Latency_model.Paxos ~node ~lan ~rng
      ~lambda_rps:100.0
  with
  | None -> Alcotest.fail "write path saturated at trivial load"
  | Some w ->
      Alcotest.(check bool) "local read under the write path" true
        (local.Latency_model.total_ms < w.Latency_model.total_ms)

(* The durability term: under sync=every each replica's device is an
   M/D/1 queue at rho = lambda * fsync_ms, so at 1,200 rps and 0.5 ms
   (rho = 0.6) a commit waits 0.5 + 0.6 * 0.5 / (2 * 0.4) = 0.875 ms. *)
let test_fsync_term () =
  let every =
    { Storage.default_config with Storage.sync_mode = Storage.Sync_every }
  in
  let term c lambda_rps = Latency_model.fsync_term_ms ~lambda_rps c in
  feq "storage off" 0.0 (term None 1200.0);
  feq "sync=none" 0.0
    (term (Some { every with Storage.sync_mode = Storage.Sync_none }) 1200.0);
  feq "sync=every, idle device" 0.5 (term (Some every) 0.0);
  feq "sync=every, rho 0.6" 0.875 (term (Some every) 1200.0);
  feq "sync=batched" 0.6
    (term (Some { every with Storage.sync_mode = Storage.Sync_batched }) 1200.0);
  Alcotest.(check bool) "saturated device" true
    (term (Some every) 2000.0 = infinity);
  (* a 2 ms disk saturates at 500 rps, far below the CPU's knee *)
  let breakdown durable =
    Latency_model.lan_breakdown ?durable Latency_model.Paxos
      ~node:(Service.default_node ~n:5) ~lan:Latency_model.default_lan
      ~rng:(Rng.create ~seed:3) ~lambda_rps:600.0
  in
  Alcotest.(check bool) "memory-only round stable at 600 rps" true
    (breakdown None <> None);
  Alcotest.(check bool) "breakdown saturates with the device" true
    (breakdown (Some { every with Storage.fsync_ms = 2.0 }) = None)

let prop_wait_nonnegative =
  QCheck.Test.make ~name:"queue wait is non-negative" ~count:200
    QCheck.(pair (float_range 0.1 9.9) (float_range 10.0 20.0))
    (fun (lambda, mu) ->
      List.for_all
        (fun kind -> Queueing.wait_time kind ~lambda ~mu >= 0.0)
        [ Queueing.Mm1; Queueing.Md1; Queueing.Mg1 { service_cv2 = 0.7 };
          Queueing.Gg1 { arrival_cv2 = 0.9; service_cv2 = 0.7 } ])

let suite =
  ( "model",
    [
      Alcotest.test_case "M/M/1 closed form" `Quick test_mm1_closed_form;
      Alcotest.test_case "M/D/1 closed form" `Quick test_md1_closed_form;
      Alcotest.test_case "M/D/1 half of M/M/1" `Quick test_md1_half_of_mm1;
      Alcotest.test_case "M/G/1 reduces to M/D/1 and M/M/1" `Quick test_mg1_reduces_to_md1_and_mm1;
      Alcotest.test_case "saturation" `Quick test_saturation;
      Alcotest.test_case "wait monotone in lambda" `Quick test_wait_monotone_in_lambda;
      Alcotest.test_case "order stats of uniforms" `Slow test_order_stats_min_max;
      Alcotest.test_case "kth of fixed samples" `Quick test_kth_of_samples;
      Alcotest.test_case "quorum rtt monotone" `Quick test_quorum_rtt_monotone_in_quorum;
      Alcotest.test_case "paxos service time formula" `Quick test_service_paxos;
      Alcotest.test_case "epaxos conflict cost" `Quick test_epaxos_conflict_increases_cost;
      Alcotest.test_case "epaxos capacity drop band" `Quick test_epaxos_conflict_capacity_drop_band;
      Alcotest.test_case "lan capacity ordering" `Quick test_protocol_capacity_ordering_lan;
      Alcotest.test_case "lan latency curve rises" `Quick test_lan_latency_curve_rises;
      Alcotest.test_case "lan point saturates" `Quick test_lan_point_saturates;
      Alcotest.test_case "wan latency ordering" `Quick test_wan_latency_ordering;
      Alcotest.test_case "formulas eq 4-6" `Quick test_formulas_eq_4_5_6;
      Alcotest.test_case "formula 3 general" `Quick test_formula_3_general;
      Alcotest.test_case "formula 7" `Quick test_formula_7;
      Alcotest.test_case "epaxos adaptive monotone" `Quick test_epaxos_adaptive_monotone;
      Alcotest.test_case "wankeeper locality helps" `Quick test_wankeeper_locality_helps;
      Alcotest.test_case "wpaxos fz latency cost" `Quick test_wpaxos_fz_latency_cost;
      Alcotest.test_case "advisor paths" `Quick test_advisor_paths;
      Alcotest.test_case "read breakdown local/tail" `Quick
        test_read_breakdown_local_and_tail;
      Alcotest.test_case "fsync term" `Quick test_fsync_term;
      Alcotest.test_case "read breakdown quorum" `Quick
        test_read_breakdown_quorum;
      QCheck_alcotest.to_alcotest prop_load_decreasing_in_leaders;
      QCheck_alcotest.to_alcotest prop_wait_nonnegative;
    ] )
