type t = {
  replica_regions : Region.t array;
  regions : Region.t list; (* distinct, in first-appearance order *)
  rtt_ms : Region.t -> Region.t -> float;
  jitter : float; (* relative stddev of RTT samples *)
  clients : (int, Region.t) Hashtbl.t;
  default_client_region : Region.t;
  lan_sigma : float option; (* absolute sigma for single-region LAN *)
}

let lan_mu_default = 0.4271
let lan_sigma_default = 0.0476

(* Mean RTTs between the paper's five AWS regions, in ms, calibrated to
   public inter-region measurements circa 2019. *)
let aws_pairs =
  [
    (Region.virginia, Region.ohio, 11.0);
    (Region.virginia, Region.california, 61.0);
    (Region.virginia, Region.ireland, 75.0);
    (Region.virginia, Region.japan, 162.0);
    (Region.ohio, Region.california, 50.0);
    (Region.ohio, Region.ireland, 86.0);
    (Region.ohio, Region.japan, 145.0);
    (Region.california, Region.ireland, 138.0);
    (Region.california, Region.japan, 107.0);
    (Region.ireland, Region.japan, 220.0);
  ]

let aws_rtt_ms a b =
  if Region.equal a b then lan_mu_default
  else
    let found =
      List.find_opt
        (fun (x, y, _) ->
          (Region.equal a x && Region.equal b y)
          || (Region.equal a y && Region.equal b x))
        aws_pairs
    in
    match found with Some (_, _, rtt) -> rtt | None -> 100.0

let make ~replica_regions ~rtt_ms ~jitter ~lan_sigma =
  let default_client_region =
    if Array.length replica_regions > 0 then replica_regions.(0)
    else Region.local
  in
  let regions =
    Array.fold_left
      (fun acc r -> if List.exists (Region.equal r) acc then acc else r :: acc)
      [] replica_regions
    |> List.rev
  in
  {
    replica_regions;
    regions;
    rtt_ms;
    jitter;
    clients = Hashtbl.create 16;
    default_client_region;
    lan_sigma;
  }

let lan ~n_replicas ?(mu = lan_mu_default) ?(sigma = lan_sigma_default) () =
  assert (n_replicas > 0);
  make
    ~replica_regions:(Array.make n_replicas Region.local)
    ~rtt_ms:(fun _ _ -> mu)
    ~jitter:0.0 ~lan_sigma:(Some sigma)

let wan ~regions ~replicas_per_region ?(jitter = 0.05) () =
  assert (regions <> [] && replicas_per_region > 0);
  let regions_arr = Array.of_list regions in
  let nr = Array.length regions_arr in
  let n = nr * replicas_per_region in
  let replica_regions = Array.init n (fun i -> regions_arr.(i mod nr)) in
  make ~replica_regions ~rtt_ms:aws_rtt_ms ~jitter ~lan_sigma:None

let custom ~replica_regions ~rtt_ms ?(jitter = 0.05) () =
  assert (replica_regions <> []);
  make ~replica_regions:(Array.of_list replica_regions) ~rtt_ms ~jitter
    ~lan_sigma:None

let n_replicas t = Array.length t.replica_regions

let regions t = t.regions

let region_of_replica t i =
  if i < 0 || i >= Array.length t.replica_regions then
    invalid_arg (Printf.sprintf "Topology.region_of_replica: %d" i);
  t.replica_regions.(i)

let replicas_in t region =
  let acc = ref [] in
  for i = Array.length t.replica_regions - 1 downto 0 do
    if Region.equal t.replica_regions.(i) region then acc := i :: !acc
  done;
  !acc

let assign_client t ~id ~region = Hashtbl.replace t.clients id region

let region_of t = function
  | Address.Replica i -> region_of_replica t i
  | Address.Client i -> (
      match Hashtbl.find_opt t.clients i with
      | Some r -> r
      | None -> t.default_client_region)

let zones t = Array.of_list (List.map (replicas_in t) t.regions)

let zone_of t addr =
  let region = region_of t addr in
  let rec find i = function
    | r :: rest -> if Region.equal r region then i else find (i + 1) rest
    | [] ->
        invalid_arg
          (Printf.sprintf "Topology.zone_of: no replica in region %s"
             (Region.name region))
  in
  find 0 t.regions

let rtt_mean t a b = t.rtt_ms a b

let[@inline] sample_rtt t rng a b =
  let ra = region_of t a and rb = region_of t b in
  let mu = t.rtt_ms ra rb in
  match t.lan_sigma with
  | Some sigma when Region.equal ra rb ->
      Float.max 0.01 (Rng.normal rng ~mu ~sigma)
  | _ ->
      if t.jitter <= 0.0 then mu
      else Float.max 0.01 (Rng.normal rng ~mu ~sigma:(mu *. t.jitter))

let[@inline] sample_delay t rng a b =
  if Address.equal a b then 0.005 (* loopback *)
  else sample_rtt t rng a b /. 2.0

(* Out-parameter form of [sample_delay] for the transport hot path:
   same RNG draws and IEEE operation order, but the result is written
   to [dst.(0)] and the [Float.max 0.01] clamp is expressed as a plain
   comparison (identical for the non-nan values a Gaussian over a
   finite mean produces), so no intermediate float is boxed. *)
let sample_delay_into t rng a b dst =
  if Address.equal a b then dst.(0) <- 0.005 (* loopback *)
  else begin
    let ra = region_of t a and rb = region_of t b in
    let mu = t.rtt_ms ra rb in
    let sampled =
      match t.lan_sigma with
      | Some sigma when Region.equal ra rb ->
          Rng.normal_into rng ~mu ~sigma dst;
          true
      | _ ->
          if t.jitter <= 0.0 then false
          else begin
            Rng.normal_into rng ~mu ~sigma:(mu *. t.jitter) dst;
            true
          end
    in
    if sampled then begin
      let x = dst.(0) in
      let rtt = if x > 0.01 then x else 0.01 in
      dst.(0) <- rtt /. 2.0
    end
    else dst.(0) <- mu /. 2.0
  end
