(** Per-round service-time accounting (§3.3).

    A round's service time at a node is CPU plus NIC work:
    [ts = t_cpu + t_nic] where for a Paxos leader
    [t_cpu = 2*t_out + N*t_in] (client request in, one broadcast
    serialization, N-1 follower replies in, one client reply out) and
    [t_nic = 2*N*s_m/b]. Maximum throughput is [1/ts] (§3.3).

    The multi-leader and leaderless variants split a node's work into
    the rounds it leads and the rounds it follows; both appear here so
    the latency model can mix them by arrival share. All times in
    milliseconds. *)

type node_params = {
  n : int;  (** cluster size *)
  t_in_ms : float;
  t_out_ms : float;
  msg_size_bytes : int;
  bandwidth_mbps : float;
}

val default_node : n:int -> node_params
(** Calibrated to the same m5.large-class defaults as {!Config}. *)

val nic_ms : node_params -> float
(** NIC transmission time of one message. *)

(** Work split of one protocol round at a node, by role. *)
type round_cost = {
  lead_ms : float;  (** service when this node leads the round *)
  follow_ms : float;  (** service when it only follows *)
  lead_share : float;  (** fraction of rounds this node leads *)
  follow_share : float;  (** fraction of rounds it follows *)
}

val paxos : node_params -> round_cost
(** Single stable leader; the busiest node leads every round
    (N+2 messages — the bottleneck of §5.2). *)

val fpaxos : node_params -> q2:int -> round_cost
(** Same as Paxos — quorum size changes latency, not leader message
    count (the leader still broadcasts to all). With [thrifty] the
    leader processes [q2+2] messages instead. *)

val paxos_relay : node_params -> groups:int -> round_cost
(** Relay trees with [groups] = r rotation groups (DESIGN.md §12):
    the leader touches r+2 messages per round instead of N+1, each
    relay ceil((N-1)/r)+1. [lead_ms] is the busiest of the two roles
    (that node gates saturation); [follow_ms] reports the relay's own
    cost. Reduces to roughly {!paxos} at r = N-1. *)

val epaxos : node_params -> penalty:float -> conflict:float -> round_cost
(** Every node leads 1/N of rounds; [penalty] multiplies CPU costs for
    dependency bookkeeping; conflicting rounds add an accept phase. *)

val wpaxos : node_params -> leaders:int -> round_cost
(** One leader per zone, phase-2 in-zone, full replication of accepts
    plus an explicit commit. *)

val wankeeper : node_params -> leaders:int -> locality:float -> round_cost
(** Hierarchical: zone groups replicate only within the zone, so
    leaders never process other zones' rounds; the master executes the
    non-local share [(1 - locality)] of requests itself. *)

val mean_service_ms : round_cost -> float
(** Average service time per round at the busiest node, weighting by
    role shares — the reciprocal of the protocol's capacity. *)

val service_cv2 : round_cost -> float
(** Squared coefficient of variation of the two-point service mix,
    for the M/G/1 wait-time formula. *)

val max_throughput_rps : round_cost -> float
(** Saturation throughput (rounds/second) of the whole system: the
    busiest node saturates when [lambda * mean_service = 1]. *)
