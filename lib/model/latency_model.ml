type protocol =
  | Paxos
  | Paxos_relay of { groups : int }
  | Fpaxos of { q2 : int }
  | Epaxos of { conflict : float }
  | Epaxos_adaptive of { conflict_lo : float; conflict_hi : float }
  | Wpaxos of { leaders : int; locality : float; fz : int }
  | Wankeeper of { leaders : int; locality : float }

let protocol_name = function
  | Paxos -> "paxos"
  | Paxos_relay _ -> "paxos"
  | Fpaxos _ -> "fpaxos"
  | Epaxos _ | Epaxos_adaptive _ -> "epaxos"
  | Wpaxos _ -> "wpaxos"
  | Wankeeper _ -> "wankeeper"

(* The relay's own fan-out/aggregation service on the quorum path
   (deserialize the wrapped round, serialize the fan, fold the acks,
   serialize the combined ack) — calibrated against measured
   [relay:aggregate] spans at n = 25 (bench/main dissect). *)
let relay_touch_ms = 0.075

type point = { throughput_rps : float; latency_ms : float }

type lan = { rtt_mu_ms : float; rtt_sigma_ms : float }

let default_lan = { rtt_mu_ms = 0.4271; rtt_sigma_ms = 0.0476 }

(* One relay aggregation hop: the relay's own fan/fold service plus
   the worst of its (s - 1) member RTTs — the term [bench/main dissect
   --relay-groups] compares against measured [relay:aggregate]
   spans. *)
let relay_hop_lan ~lan ~n ~groups ~rng =
  let s = (n - 2 + groups) / groups in
  let spread =
    if s <= 1 then 0.0
    else
      Order_stats.kth_of_n
        (Dist.normal_pos ~mu:lan.rtt_mu_ms ~sigma:lan.rtt_sigma_ms)
        rng ~k:(s - 1) ~n:(s - 1) ~trials:2000
  in
  spread +. relay_touch_ms

let epaxos_penalty = 1.8

let round_cost ~node = function
  | Paxos -> Service.paxos node
  | Paxos_relay { groups } -> Service.paxos_relay node ~groups
  | Fpaxos { q2 } -> Service.fpaxos node ~q2
  | Epaxos { conflict } -> Service.epaxos node ~penalty:epaxos_penalty ~conflict
  | Epaxos_adaptive { conflict_lo; _ } ->
      Service.epaxos node ~penalty:epaxos_penalty ~conflict:conflict_lo
  | Wpaxos { leaders; _ } -> Service.wpaxos node ~leaders
  | Wankeeper { leaders; locality } -> Service.wankeeper node ~leaders ~locality

(* For adaptive-conflict EPaxos the conflict probability (and with it
   the service cost) grows with utilization, so saturation is the
   fixed point of lambda * mean_service(c(lambda)) = 1; a few
   iterations converge. *)
let effective_conflict proto ~node ~lambda_rps =
  match proto with
  | Epaxos { conflict } -> conflict
  | Epaxos_adaptive { conflict_lo; conflict_hi } ->
      let rec fix c iter =
        let rc = Service.epaxos node ~penalty:epaxos_penalty ~conflict:c in
        let cap = Service.max_throughput_rps rc in
        let util = Float.min 1.0 (lambda_rps /. cap) in
        let c' = conflict_lo +. ((conflict_hi -. conflict_lo) *. util) in
        if iter = 0 || Float.abs (c' -. c) < 1e-4 then c' else fix c' (iter - 1)
      in
      fix conflict_lo 20
  | _ -> 0.0

let resolved_cost proto ~node ~lambda_rps =
  match proto with
  | Epaxos_adaptive _ ->
      let c = effective_conflict proto ~node ~lambda_rps in
      Service.epaxos node ~penalty:epaxos_penalty ~conflict:c
  | _ -> round_cost ~node proto

let lan_max_throughput proto ~node =
  match proto with
  | Epaxos_adaptive _ ->
      (* capacity at the high-conflict end *)
      let rc =
        resolved_cost proto ~node ~lambda_rps:1e12
      in
      Service.max_throughput_rps rc
  | _ -> Service.max_throughput_rps (round_cost ~node proto)

(* Sharded deployments run K independent groups on disjoint machines,
   so the analytic aggregate capacity is exactly K times one group's:
   the independence assumption the shard sweep validates (and that a
   skewed key distribution breaks — a hot shard saturates first while
   the others idle, capping the useful aggregate below K x). *)
let sharded_max_throughput proto ~node ~shards =
  assert (shards >= 1);
  float_of_int shards *. lan_max_throughput proto ~node

(* Queue wait at the busiest node for aggregate arrival rate lambda,
   using the role-mixed service distribution. *)
let queue_wait_ms ?(queue = Queueing.Md1) rc ~lambda_rps =
  let mean_ms = Service.mean_service_ms rc in
  if mean_ms <= 0.0 then Some 0.0
  else begin
    (* node-level arrival rate: rounds it leads plus rounds it
       follows *)
    let node_lambda = lambda_rps *. (rc.Service.lead_share +. rc.Service.follow_share) in
    let mu = 1000.0 /. mean_ms in
    if node_lambda >= mu then None
    else begin
      let kind =
        match queue with
        | Queueing.Mg1 _ -> Queueing.Mg1 { service_cv2 = Service.service_cv2 rc }
        | k -> k
      in
      Some (Queueing.wait_time kind ~lambda:node_lambda ~mu *. 1000.0)
    end
  end

(* ------------------------------- LAN ------------------------------ *)

let lan_network_delays proto ~node ~lan ~rng =
  let n = node.Service.n in
  let mu = lan.rtt_mu_ms and sigma = lan.rtt_sigma_ms in
  let quorum_rtt q = Order_stats.quorum_rtt_lan ~mu ~sigma ~quorum:q ~n rng in
  let majority = (n / 2) + 1 in
  match proto with
  | Paxos -> (mu, quorum_rtt majority, 0.0)
  | Paxos_relay { groups } ->
      ( mu,
        Order_stats.relay_quorum_rtt_lan ~mu ~sigma ~n ~groups
          ~touch_ms:relay_touch_ms rng,
        0.0 )
  | Fpaxos { q2 } -> (mu, quorum_rtt q2, 0.0)
  | Epaxos _ | Epaxos_adaptive _ ->
      (* client talks to its local (nearest) replica *)
      let fast = Paxi_quorum.Quorum.fast_threshold n in
      (mu, quorum_rtt fast, quorum_rtt majority)
  | Wpaxos { leaders; _ } | Wankeeper { leaders; _ } ->
      let zone = Stdlib.max 1 (n / leaders) in
      let zq = (zone / 2) + 1 in
      (* in-zone quorum out of the zone's members *)
      let dq =
        if zq <= 1 then 0.0
        else
          Order_stats.kth_of_n
            (Dist.normal_pos ~mu ~sigma)
            rng ~k:(zq - 1)
            ~n:(Stdlib.max 1 (zone - 1))
            ~trials:2000
      in
      (mu, dq, 0.0)

type breakdown = {
  wq_ms : float;
  service_ms : float;
  dl_ms : float;
  dq_ms : float;
  conflict_extra_ms : float;
  durability_ms : float;
  total_ms : float;
}

(* Expected fsync wait a commit pays when stable storage is armed.
   Acceptors fsync in parallel before acking, so the term enters the
   round once, not per quorum member. Under Sync_every each replica
   fsyncs once per op, so its device is an M/D/1 queue at
   rho = lambda * s (lambda in ops per ms, s = fsync_ms): one service
   time s plus the wait rho * s / (2 (1 - rho)), infinite once the
   device saturates. Under
   Sync_batched a record lands uniformly inside the open group-commit
   window, so waits [batch_window_ms / 2] on average before the single
   shared fsync starts. Sync_none keeps durability off the critical
   path entirely. *)
let fsync_term_ms ~lambda_rps = function
  | None -> 0.0
  | Some (c : Storage.config) -> (
      match c.Storage.sync_mode with
      | Storage.Sync_none -> 0.0
      | Storage.Sync_every ->
          let s = c.Storage.fsync_ms in
          s
          +. Queueing.wait_time Queueing.Md1 ~lambda:(lambda_rps /. 1000.0)
               ~mu:(1.0 /. s)
      | Storage.Sync_batched ->
          (c.Storage.batch_window_ms /. 2.0) +. c.Storage.fsync_ms)

let lan_breakdown ?queue ?durable proto ~node ~lan ~rng ~lambda_rps =
  let rc = resolved_cost proto ~node ~lambda_rps in
  let durability_ms = fsync_term_ms ~lambda_rps durable in
  match queue_wait_ms ?queue rc ~lambda_rps with
  | None -> None
  | Some _ when durability_ms = infinity -> None
  | Some wq ->
      let dl, dq, dq_extra = lan_network_delays proto ~node ~lan ~rng in
      let c = effective_conflict proto ~node ~lambda_rps in
      let conflict_extra_ms = c *. dq_extra in
      Some
        {
          wq_ms = wq;
          service_ms = rc.Service.lead_ms;
          dl_ms = dl;
          dq_ms = dq;
          conflict_extra_ms;
          durability_ms;
          total_ms =
            wq +. rc.Service.lead_ms +. dl +. dq +. conflict_extra_ms
            +. durability_ms;
        }

(* ----------------------------- Reads ------------------------------ *)

type read_kind = Local_read | Quorum_read | Tail_read

let read_kind_name = function
  | Local_read -> "local_read"
  | Quorum_read -> "quorum_read"
  | Tail_read -> "tail_read"

(* A fast-path read never enters the slot log, so its model drops the
   write path's quorum terms:

   - local (lease) and tail reads are one client RTT plus the serving
     node touching the request (deserialize, store peek, serialize),
     with no quorum wait at all;
   - an ABD quorum read pays two majority round-trips (query +
     write-back) on top of the client RTT, and the coordinator
     serializes two broadcasts and absorbs two reply waves.

   Wq is left 0: the read sweeps run far from saturation, and the
   measured counterpart lands in the same band without a queue term —
   queue effects on reads are a write-arrival story the write-path
   model already prices. *)
let read_breakdown kind ~node ~lan ~rng =
  let mu = lan.rtt_mu_ms and sigma = lan.rtt_sigma_ms in
  let nic = Service.nic_ms node in
  let touch = node.Service.t_in_ms +. node.Service.t_out_ms +. (2.0 *. nic) in
  match kind with
  | Local_read | Tail_read ->
      {
        wq_ms = 0.0;
        service_ms = touch;
        dl_ms = mu;
        dq_ms = 0.0;
        conflict_extra_ms = 0.0;
        durability_ms = 0.0;
        total_ms = touch +. mu;
      }
  | Quorum_read ->
      let n = node.Service.n in
      let majority = (n / 2) + 1 in
      let dq =
        2.0 *. Order_stats.quorum_rtt_lan ~mu ~sigma ~quorum:majority ~n rng
      in
      let round =
        node.Service.t_out_ms
        +. (float_of_int (n - 1) *. node.Service.t_in_ms)
        +. (float_of_int n *. nic)
      in
      let service = touch +. (2.0 *. round) in
      {
        wq_ms = 0.0;
        service_ms = service;
        dl_ms = mu;
        dq_ms = dq;
        conflict_extra_ms = 0.0;
        durability_ms = 0.0;
        total_ms = service +. mu +. dq;
      }

let lan_point ?queue proto ~node ~lan ~rng ~lambda_rps =
  match lan_breakdown ?queue proto ~node ~lan ~rng ~lambda_rps with
  | None -> None
  | Some b -> Some { throughput_rps = lambda_rps; latency_ms = b.total_ms }

let lan_curve ?queue proto ~node ~lan ~rng ~lambdas =
  List.filter_map
    (fun lambda_rps -> lan_point ?queue proto ~node ~lan ~rng ~lambda_rps)
    lambdas

(* ------------------------------- WAN ------------------------------ *)

type wan = {
  regions : Region.t list;
  client_mix : (Region.t * float) list;
  rtt_ms : Region.t -> Region.t -> float;
}

let default_wan =
  {
    regions = Region.aws_five;
    client_mix = List.map (fun r -> (r, 0.2)) Region.aws_five;
    rtt_ms = Topology.aws_rtt_ms;
  }

let avg_over_mix wan f =
  List.fold_left (fun acc (r, w) -> acc +. (w *. f r)) 0.0 wan.client_mix

(* RTTs from [region] to every other replica region. *)
let rtts_from wan region =
  wan.regions
  |> List.filter (fun r -> not (Region.equal r region))
  |> List.map (fun r -> wan.rtt_ms region r)
  |> Array.of_list

let wan_quorum_rtt wan region ~quorum =
  Order_stats.quorum_rtt_wan ~rtts:(rtts_from wan region) ~quorum

let wan_network_delays proto ~wan ~leader_region =
  let n = List.length wan.regions in
  let majority = (n / 2) + 1 in
  match proto with
  | Paxos | Paxos_relay _ ->
      (* relay trees are a LAN big-n story; over a handful of regions
         the direct quorum term is the right WAN approximation *)
      let dl = avg_over_mix wan (fun r -> wan.rtt_ms r leader_region) in
      (dl, wan_quorum_rtt wan leader_region ~quorum:majority, 0.0)
  | Fpaxos { q2 } ->
      let dl = avg_over_mix wan (fun r -> wan.rtt_ms r leader_region) in
      (dl, wan_quorum_rtt wan leader_region ~quorum:q2, 0.0)
  | Epaxos _ | Epaxos_adaptive _ ->
      let fast = Paxi_quorum.Quorum.fast_threshold n in
      let dq = avg_over_mix wan (fun r -> wan_quorum_rtt wan r ~quorum:fast) in
      let dq_extra =
        avg_over_mix wan (fun r -> wan_quorum_rtt wan r ~quorum:majority)
      in
      (* the client's local replica leads; DL is intra-region *)
      (Topology.aws_rtt_ms leader_region leader_region, dq, dq_extra)
  | Wpaxos { locality; fz; _ } ->
      (* fz = 0 commits in-region; fz >= 1 needs the nearest zone(s) *)
      let local = Topology.aws_rtt_ms leader_region leader_region in
      let dq =
        if fz = 0 then local
        else
          avg_over_mix wan (fun r ->
              Order_stats.quorum_rtt_wan ~rtts:(rtts_from wan r) ~quorum:(fz + 1))
      in
      let dl_remote =
        avg_over_mix wan (fun r ->
            (* average distance to the other regions' leaders *)
            let others = rtts_from wan r in
            if Array.length others = 0 then 0.0
            else
              Array.fold_left ( +. ) 0.0 others
              /. float_of_int (Array.length others))
      in
      (* Formula 7 folds locality into the DL term *)
      let dl = (1.0 -. locality) *. dl_remote in
      (dl +. ((1.0 -. locality) *. local), dq *. 1.0, 0.0)
  | Wankeeper { locality; _ } ->
      let local = Topology.aws_rtt_ms leader_region leader_region in
      let dl_master =
        avg_over_mix wan (fun r ->
            let others = rtts_from wan r in
            if Array.length others = 0 then 0.0
            else
              Array.fold_left ( +. ) 0.0 others
              /. float_of_int (Array.length others))
      in
      ((1.0 -. locality) *. dl_master, local, 0.0)

let wan_point ?queue proto ~node ~wan ~leader_region ~lambda_rps =
  let rc = resolved_cost proto ~node ~lambda_rps in
  match queue_wait_ms ?queue rc ~lambda_rps with
  | None -> None
  | Some wq ->
      let dl, dq, dq_extra = wan_network_delays proto ~wan ~leader_region in
      let c = effective_conflict proto ~node ~lambda_rps in
      let latency = wq +. rc.Service.lead_ms +. dl +. dq +. (c *. dq_extra) in
      Some { throughput_rps = lambda_rps; latency_ms = latency }

let wan_curve ?queue proto ~node ~wan ~leader_region ~lambdas =
  List.filter_map
    (fun lambda_rps ->
      wan_point ?queue proto ~node ~wan ~leader_region ~lambda_rps)
    lambdas
