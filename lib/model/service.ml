type node_params = {
  n : int;
  t_in_ms : float;
  t_out_ms : float;
  msg_size_bytes : int;
  bandwidth_mbps : float;
}

let default_node ~n =
  {
    n;
    t_in_ms = 0.012;
    t_out_ms = 0.008;
    msg_size_bytes = 128;
    bandwidth_mbps = 10_000.0;
  }

let nic_ms p = float_of_int p.msg_size_bytes /. (p.bandwidth_mbps *. 125.0)

type round_cost = {
  lead_ms : float;
  follow_ms : float;
  lead_share : float;
  follow_share : float;
}

let fi = float_of_int

(* Leader of a classic Paxos round: client request in, one broadcast
   serialization, N-1 accepted replies in, client reply out; NIC moves
   2N messages (§3.3). *)
let paxos p =
  let lead_cpu = (2.0 *. p.t_out_ms) +. (fi p.n *. p.t_in_ms) in
  let lead_nic = 2.0 *. fi p.n *. nic_ms p in
  { lead_ms = lead_cpu +. lead_nic; follow_ms = 0.0; lead_share = 1.0; follow_share = 0.0 }

let fpaxos p ~q2:_ = paxos p

(* Relay-tree round (Config.relay_groups = r; DESIGN.md §12): the
   leader serializes one multicast to the r relays and absorbs r
   aggregated acks, so its demand is ∝ r, not N. Each relay fans the
   round to its group of s = ceil((N-1)/r) members (itself included)
   and absorbs s-1 member acks. The system saturates at whichever of
   the two hot roles is busier — at the r the scale sweeps pick they
   stay close, which is the point of the rotation. *)
let paxos_relay p ~groups =
  let r = fi groups in
  let lead =
    (2.0 *. p.t_out_ms) +. ((r +. 1.0) *. p.t_in_ms)
    +. (2.0 *. (r +. 1.0) *. nic_ms p)
  in
  let s = fi ((p.n - 2 + groups) / groups) in
  let relay =
    (2.0 *. p.t_out_ms) +. (s *. p.t_in_ms) +. (2.0 *. s *. nic_ms p)
  in
  {
    lead_ms = Float.max lead relay;
    follow_ms = relay;
    lead_share = 1.0;
    follow_share = 0.0;
  }

let epaxos p ~penalty ~conflict =
  let ti = p.t_in_ms *. penalty and to_ = p.t_out_ms *. penalty in
  let n = fi p.n in
  let fastq = fi (Paxi_quorum.Quorum.fast_threshold p.n) in
  let maj = fi ((p.n / 2) + 1) in
  (* fast path: client in, pre-accept broadcast, fastq-1 replies,
     commit broadcast, client reply; conflicts add an accept broadcast
     and maj-1 replies *)
  let lead_cpu =
    (3.0 *. to_) +. ((1.0 +. (fastq -. 1.0)) *. ti)
    +. (conflict *. (to_ +. ((maj -. 1.0) *. ti)))
  in
  let lead_nic = (2.0 +. conflict) *. n *. nic_ms p in
  (* follower: pre-accept in, reply out, commit in; conflicts add
     accept in / reply out *)
  let follow_cpu = (2.0 *. ti) +. to_ +. (conflict *. (ti +. to_)) in
  let follow_nic = (3.0 +. (2.0 *. conflict)) *. nic_ms p in
  {
    lead_ms = lead_cpu +. lead_nic;
    follow_ms = follow_cpu +. follow_nic;
    lead_share = 1.0 /. n;
    follow_share = (n -. 1.0) /. n;
  }

let wpaxos p ~leaders =
  let l = fi leaders in
  let n = fi p.n in
  (* leader: client in, accept broadcast (full replication, §5), acks
     from every follower (only the in-zone ones count for the quorum,
     but all must clear the queue), commit broadcast, client reply —
     this residual message load is why WPaxos does not scale linearly
     with L (§5.2) *)
  (* the +1 incoming message is the forwarded request: clients reach
     the object's leader through their nearest replica *)
  let lead_cpu = (3.0 *. p.t_out_ms) +. ((n +. 1.0) *. p.t_in_ms) in
  let lead_nic = 3.0 *. n *. nic_ms p in
  (* another leader's round: accept in, ack out, commit in *)
  let follow_cpu = (2.0 *. p.t_in_ms) +. p.t_out_ms in
  let follow_nic = 3.0 *. nic_ms p in
  {
    lead_ms = lead_cpu +. lead_nic;
    follow_ms = follow_cpu +. follow_nic;
    lead_share = 1.0 /. l;
    follow_share = (l -. 1.0) /. l;
  }

let wankeeper p ~leaders ~locality =
  let l = fi leaders in
  let zone = fi (Stdlib.max 1 (p.n / leaders)) in
  (* Replication is confined to the zone group, so leaders do not see
     other zones' rounds at all — the hierarchy's whole point (§5.2).
     The busiest node is the master: it executes the share of requests
     whose tokens it retains (non-local accesses) on top of its own
     zone's local traffic. *)
  let local_cost =
    (3.0 *. p.t_out_ms) +. (zone *. p.t_in_ms) +. (3.0 *. zone *. nic_ms p)
  in
  let master_exec_cost = local_cost +. p.t_in_ms +. nic_ms p (* forwarded request *) in
  let master_per_request =
    ((1.0 -. locality) *. master_exec_cost) +. (locality /. l *. local_cost)
  in
  { lead_ms = master_per_request; follow_ms = 0.0; lead_share = 1.0; follow_share = 0.0 }

let mean_service_ms rc =
  (rc.lead_share *. rc.lead_ms) +. (rc.follow_share *. rc.follow_ms)

let service_cv2 rc =
  let mean = mean_service_ms rc in
  if mean <= 0.0 then 0.0
  else begin
    let second =
      (rc.lead_share *. rc.lead_ms *. rc.lead_ms)
      +. (rc.follow_share *. rc.follow_ms *. rc.follow_ms)
    in
    Float.max 0.0 ((second /. (mean *. mean)) -. 1.0)
  end

let max_throughput_rps rc =
  let mean = mean_service_ms rc in
  if mean <= 0.0 then infinity else 1000.0 /. mean
