type kind = [ `Hash | `Range ]

type t = {
  kind : kind;
  shards : int;
  min_key : int;  (* range only: first key of the partitioned space *)
  keys : int;  (* range only: size of the partitioned space *)
}

let hash ~shards =
  if shards < 1 then invalid_arg "Partitioner.hash: shards must be >= 1";
  { kind = `Hash; shards; min_key = 0; keys = 0 }

let range ~shards ~min_key ~keys =
  if shards < 1 then invalid_arg "Partitioner.range: shards must be >= 1";
  if keys < shards then
    invalid_arg "Partitioner.range: need at least one key per shard";
  { kind = `Range; shards; min_key; keys }

let make kind ~shards ~min_key ~keys =
  match kind with
  | `Hash -> hash ~shards
  | `Range -> range ~shards ~min_key ~keys

let shards t = t.shards
let kind t = t.kind

(* Murmur3-style finalizer (the same mix as [Runner.derive_seed]):
   consecutive keys scatter uniformly across shards, so hash
   partitioning balances any key distribution — including hotspots —
   at the price of destroying range locality. Pure arithmetic, no RNG:
   routing never perturbs the simulator's draw sequence. *)
let mix h =
  let h = h lxor (h lsr 16) in
  let h = h * 0x85EBCA6B land max_int in
  let h = h lxor (h lsr 13) in
  let h = h * 0xC2B2AE35 land max_int in
  h lxor (h lsr 16)

let route t key =
  if t.shards = 1 then 0
  else
    match t.kind with
    | `Hash -> mix (key land max_int) mod t.shards
    | `Range ->
        (* contiguous slices of ~keys/shards; out-of-range keys clamp
           to the edge shards so every key routes somewhere, and a key
           always routes to the same shard (boundary consistency is
           just floor-division determinism) *)
        let off = key - t.min_key in
        if off < 0 then 0
        else if off >= t.keys then t.shards - 1
        else off * t.shards / t.keys
