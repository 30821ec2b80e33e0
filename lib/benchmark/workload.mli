(** Tunable workload generation — the benchmark parameters of
    Table 3: key count K, write ratio W, key distribution (uniform /
    zipfian / normal / exponential, Fig. 6), conflict ratio against a
    designated hot key, and moving locality (Move/Speed). *)

type key_dist =
  | Uniform
  | Zipfian of { s : float; v : float }
  | Normal of { mu : float; sigma : float; speed_ms : float; drift : float }
      (** [speed_ms > 0] makes the mean advance by [drift] keys every
          [speed_ms] — Table 3's moving average *)
  | Exponential of { mean : float }
  | Hotspot of { hot_fraction : float; hot_mass : float }
      (** [hot_mass] of the draws land uniformly on the first
          [hot_fraction] of the key space (the production-traffic
          "80% of ops on 20% of keys" shape); the rest are uniform
          over the remainder. Composes with range partitioning to
          concentrate load on the shards owning the hot prefix. *)

type t = {
  keys : int;  (** K: size of the key space *)
  min_key : int;  (** Min: first key number *)
  write_ratio : float;
      (** W: each op is a [Put] with this probability, else a [Get] —
          one Bernoulli draw per op. A read-ratio sweep sets
          [1 - r] here. *)
  dist : key_dist;
  conflict_ratio : float;
      (** fraction of requests redirected to the hot key — the §5.3
          conflict experiments drive this from 0% to 100% *)
  hot_key : int;
}

val default : t
(** 1000 uniform keys, 50% writes, no designated conflicts — the
    paper's LAN setup (§5.2). *)

val with_locality : t -> region_index:int -> regions:int -> t
(** Give each region its own Normal key distribution whose mean is
    region-specific, producing the locality workload of §5.3: region
    [i] of [regions] centres on key [(i + 1/2) * K / regions] with
    [sigma = K / (3 * regions)]. *)

val ycsb : [ `A | `B | `C | `D | `F ] -> keys:int -> t
(** YCSB core-workload presets, as the paper's benchmarker is meant to
    stand in for YCSB (§4.2): A = 50/50 update/read zipfian, B = 95/5
    read-heavy zipfian, C = read-only zipfian, D = read-latest (95/5
    with an exponential recency distribution), F = read-modify-write
    approximated as 50/50 zipfian. Workload E (scans) has no
    equivalent in a key-value interface and is omitted. *)

val hotspot : keys:int -> t
(** The 80/20 hotspot preset: [Hotspot { hot_fraction = 0.2;
    hot_mass = 0.8 }] over [keys] uniform keys, 50% writes. *)

val validate : t -> (unit, string) result

type gen
(** A stateful per-client command generator. *)

val generator : t -> rng:Rng.t -> client:int -> gen

val next_op : gen -> now_ms:float -> Command.op
(** Values written are unique per client (an incrementing counter), so
    offline checkers can identify each write. *)

val op_count : gen -> int
