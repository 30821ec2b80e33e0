(** Cluster topology: which region each node lives in, and the
    round-trip latency distribution between every pair of regions.

    LAN topologies draw every pair from one Normal distribution, which
    is what the paper measures inside an AWS region (Fig. 3,
    N(0.4271 ms, 0.0476 ms)). WAN topologies use a per-pair matrix
    calibrated to the five AWS regions of the paper's evaluation. *)

type t

val lan : n_replicas:int -> ?mu:float -> ?sigma:float -> unit -> t
(** Single-region topology; defaults to the paper's measured
    N(0.4271, 0.0476) RTT in milliseconds. *)

val wan :
  regions:Region.t list -> replicas_per_region:int -> ?jitter:float -> unit -> t
(** Replica [i] lives in region [i mod |regions|]... more precisely,
    replicas are laid out round-robin so that region [r] hosts replicas
    [r, r+|regions|, ...]. Pairwise RTTs come from {!aws_rtt_ms} with
    multiplicative Gaussian jitter (default 5%). Unknown regions fall
    back to a 100 ms RTT. *)

val custom :
  replica_regions:Region.t list ->
  rtt_ms:(Region.t -> Region.t -> float) ->
  ?jitter:float ->
  unit ->
  t

val n_replicas : t -> int
val regions : t -> Region.t list
(** Distinct regions, in first-appearance order. *)

val region_of_replica : t -> int -> Region.t
val replicas_in : t -> Region.t -> int list

val assign_client : t -> id:int -> region:Region.t -> unit
(** Declare where a client lives; clients default to the first
    region. *)

val region_of : t -> Address.t -> Region.t

val zones : t -> int list array
(** The replicas of each region, in {!regions} order: zone [z] is
    [replicas_in t (List.nth (regions t) z)]. The multi-leader
    protocols treat each region as one zone led by its first
    replica. *)

val zone_of : t -> Address.t -> int
(** Index into {!zones} of the region an address lives in. Raises
    [Invalid_argument] when no replica lives in that region. *)

val sample_rtt : t -> Rng.t -> Address.t -> Address.t -> float
(** Draw a round-trip latency (ms) between two addresses. *)

val sample_delay : t -> Rng.t -> Address.t -> Address.t -> float
(** One-way delay: half of a sampled RTT. Same-node delivery is a
    small constant loopback cost. *)

val rtt_mean : t -> Region.t -> Region.t -> float
(** Mean RTT between two regions (no jitter), for analytic use. *)

val aws_rtt_ms : Region.t -> Region.t -> float
(** Calibrated mean inter-region RTTs for the paper's five AWS
    regions (ms). Intra-region is the LAN mean of Fig. 3. *)
