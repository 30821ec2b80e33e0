type key_dist =
  | Uniform
  | Zipfian of { s : float; v : float }
  | Normal of { mu : float; sigma : float; speed_ms : float; drift : float }
  | Exponential of { mean : float }
  | Hotspot of { hot_fraction : float; hot_mass : float }

type t = {
  keys : int;
  min_key : int;
  write_ratio : float;
  dist : key_dist;
  conflict_ratio : float;
  hot_key : int;
}

let default =
  {
    keys = 1000;
    min_key = 0;
    write_ratio = 0.5;
    dist = Uniform;
    conflict_ratio = 0.0;
    hot_key = 0;
  }

let with_locality t ~region_index ~regions =
  assert (regions > 0 && region_index >= 0 && region_index < regions);
  let k = float_of_int t.keys in
  let mu = (float_of_int region_index +. 0.5) *. k /. float_of_int regions in
  let sigma = k /. (3.0 *. float_of_int regions) in
  { t with dist = Normal { mu; sigma; speed_ms = 0.0; drift = 0.0 } }

let ycsb kind ~keys =
  let zipf = Zipfian { s = 1.2; v = 1.0 } in
  let base = { default with keys; dist = zipf } in
  match kind with
  | `A -> { base with write_ratio = 0.5 }
  | `B -> { base with write_ratio = 0.05 }
  | `C -> { base with write_ratio = 0.0 }
  | `D ->
      {
        base with
        write_ratio = 0.05;
        dist = Exponential { mean = float_of_int keys /. 10.0 };
      }
  | `F -> { base with write_ratio = 0.5 }

let hotspot ~keys = { default with keys; dist = Hotspot { hot_fraction = 0.2; hot_mass = 0.8 } }

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.keys < 1 then err "keys must be >= 1"
  else if t.write_ratio < 0.0 || t.write_ratio > 1.0 then
    err "write_ratio must be in [0,1]"
  else if t.conflict_ratio < 0.0 || t.conflict_ratio > 1.0 then
    err "conflict_ratio must be in [0,1]"
  else
    match t.dist with
    | Zipfian { s; v } when s <= 0.0 || v <= 0.0 -> err "zipfian s,v must be > 0"
    | Normal { sigma; _ } when sigma <= 0.0 -> err "normal sigma must be > 0"
    | Exponential { mean } when mean <= 0.0 -> err "exponential mean must be > 0"
    | Hotspot { hot_fraction; hot_mass }
      when hot_fraction <= 0.0 || hot_fraction >= 1.0 || hot_mass < 0.0
           || hot_mass > 1.0 ->
        err "hotspot needs hot_fraction in (0,1) and hot_mass in [0,1]"
    | Hotspot _ when t.keys < 2 -> err "hotspot needs keys >= 2"
    | _ -> Ok ()

type gen = {
  spec : t;
  rng : Rng.t;
  sampler : Dist.Discrete.t;
  client : int;
  mutable counter : int;
}

let discrete_of spec =
  let k = spec.keys in
  match spec.dist with
  | Uniform -> Dist.Discrete.uniform ~k
  | Zipfian { s; v } -> Dist.Discrete.zipfian ~k ~s ~v
  | Normal { mu; sigma; speed_ms; drift } ->
      let d = Dist.Discrete.normal ~k ~mu ~sigma in
      if speed_ms > 0.0 then Dist.Discrete.with_moving_mean d ~speed_ms ~drift
      else d
  | Exponential { mean } -> Dist.Discrete.exponential ~k ~mean
  | Hotspot { hot_fraction; hot_mass } ->
      Dist.Discrete.hotspot ~k ~hot_fraction ~mass:hot_mass

let generator spec ~rng ~client =
  (match validate spec with
  | Ok () -> ()
  | Error e -> invalid_arg ("Workload.generator: " ^ e));
  { spec; rng; sampler = discrete_of spec; client; counter = 0 }

let next_op g ~now_ms =
  let spec = g.spec in
  let key =
    if spec.conflict_ratio > 0.0 && Rng.bernoulli g.rng ~p:spec.conflict_ratio
    then spec.hot_key
    else spec.min_key + Dist.Discrete.sample g.sampler g.rng ~now_ms
  in
  g.counter <- g.counter + 1;
  if Rng.bernoulli g.rng ~p:spec.write_ratio then
    (* unique value per (client, counter) so checkers can identify
       every write *)
    Command.Put (key, (g.client * 10_000_000) + g.counter)
  else Command.Get key

let op_count g = g.counter
