(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation section. Run the default set with

     dune exec bench/main.exe

   or one experiment by name:

     dune exec bench/main.exe -- fig9

   Absolute numbers come from the calibrated simulator (DESIGN.md);
   the reproduction targets are the shapes — who wins, by what
   factor, where crossovers fall. EXPERIMENTS.md records the
   side-by-side against the paper. Every experiment takes --quick for
   a shortened smoke run; `--help` lists them. *)

open Paxi_benchmark
open Paxi_model
module Parmap = Paxi_exec.Parmap
module Nemesis = Paxi_nemesis

(* Every measurement point below is an independent simulation, so
   whole grids fan out across the domain pool (Parmap.map, sized by
   PAXI_JOBS / the core count) and only the printing is sequential.
   Each point's seed is derived from the point's identity — never from
   execution order — so pooled output is byte-identical to
   PAXI_JOBS=1. *)
let root_seed = 42
let point_seed key = Runner.derive_seed ~root:root_seed (Hashtbl.hash key)

let num x = Json.Number x
let int_num i = Json.Number (float_of_int i)

(* a sweep's result file, BENCH_pr<pr>.json: one JSON document and a
   newline *)
let write_result ~pr ~quick ~suite fields =
  let path = Printf.sprintf "BENCH_pr%d.json" pr in
  let json =
    Json.Obj
      (("pr", int_num pr) :: ("quick", Json.Bool quick)
      :: ("suite", Json.String suite) :: fields)
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n');
  print_endline ("wrote " ^ path)

(* [total] per event, 0 when there were none *)
let per total count = if count = 0 then 0.0 else total /. float_of_int count

(* ------------------------------------------------------------------ *)
(* Shared experiment plumbing                                          *)
(* ------------------------------------------------------------------ *)

(* One simulated measurement point: protocol [name] on [n] replicas
   with the default configuration, seeded by [seed] (a {!point_seed}
   of the point's identity; the configuration's own seed when
   omitted) and then adjusted by [configure]; an [n]-replica LAN
   unless a [topology] is given. The measured window is the mode's:
   1 s after a 0.3 s warmup under --quick, 2 s after 1 s otherwise. *)
let point ~quick ?(warmup_ms = if quick then 300.0 else 1_000.0)
    ?(duration_ms = if quick then 1_000.0 else 2_000.0) ?seed
    ?(configure = Fun.id) ?topology ?sharding ?faults ?collect_history ~n
    name client_specs =
  let (module P) = Paxi_protocols.Registry.find_exn name in
  let config = Config.default ~n_replicas:n in
  let config =
    configure
      (match seed with Some seed -> { config with Config.seed } | None -> config)
  in
  let topology =
    Option.value topology ~default:(Topology.lan ~n_replicas:n ())
  in
  Runner.run
    (module P)
    (Runner.spec ~warmup_ms ~duration_ms ?collect_history ?faults ?sharding
       ~config ~topology ~client_specs ())

let round_robin count workload =
  [ Runner.clients ~target:Runner.Round_robin ~count workload ]

let tput (r : Runner.result) = Report.frate r.Runner.throughput_rps
let mean_lat (r : Runner.result) = Report.fms (Stats.mean r.Runner.latency)

(* [l] cut into consecutive runs of [k]: a point grid back into its
   series *)
let rec chunks k = function
  | [] -> []
  | l ->
      List.filteri (fun i _ -> i < k) l
      :: chunks k (List.filteri (fun i _ -> i >= k) l)

(* the model's mean latency at [lambda_rps], "-" past saturation *)
let model_lat ?queue proto ~node ~rng lambda_rps =
  match
    Latency_model.lan_point ?queue proto ~node ~lan:Latency_model.default_lan
      ~rng ~lambda_rps
  with
  | Some p -> Report.fms p.Latency_model.latency_ms
  | None -> "-"

let region_stats (r : Runner.result) region =
  Option.map snd
    (List.find_opt (fun (rg, _) -> Region.equal rg region) r.Runner.per_region)

(* Multi-leader protocols need zones: their LAN deployments use three
   co-located zones (a single AZ), see {!Runner.lan_topology}. *)
let zoned name = List.mem name [ "wpaxos"; "wankeeper"; "vpaxos" ]

(* A 9-node LAN point with [count] round-robin clients, zoned for the
   multi-leader protocols *)
let lan_point ~quick ~seed name ~count workload =
  let zoned = zoned name in
  point ~quick ~n:9 ~seed ~topology:(Runner.lan_topology ~zoned 9) name
    (Runner.lan_clients ~zoned ~count workload)

(* Sweep several protocols' whole concurrency grids as one pool batch
   (figures that plot multiple protocols side by side would otherwise
   only parallelize within one curve at a time), on the paper's
   uniform 1000-key 50%-write workload (§5.2). *)
let lan_series_many ~quick names =
  let grid = if quick then [ 2; 16; 48 ] else [ 1; 8; 32; 64 ] in
  let rows =
    Parmap.map
      (fun (name, c) ->
        let r =
          lan_point ~quick ~seed:(point_seed ("lan", name, c)) name ~count:c
            Workload.default
        in
        (c, r.Runner.throughput_rps, Stats.mean r.Runner.latency))
      (List.concat_map (fun name -> List.map (fun c -> (name, c)) grid) names)
  in
  List.combine names (chunks (List.length grid) rows)

let max_throughput series =
  List.fold_left (fun acc (_, thr, _) -> Float.max acc thr) 0.0 series

(* ------------------------------------------------------------------ *)
(* Table 1 — queueing models                                           *)
(* ------------------------------------------------------------------ *)

let table1 () =
  Report.section "Table 1: queue waiting-time models (mu = 5000/s, waits in ms)";
  let mu = 5000.0 in
  let kinds =
    [
      ("M/M/1", Queueing.Mm1);
      ("M/D/1", Queueing.Md1);
      ("M/G/1 cs2=0.5", Queueing.Mg1 { service_cv2 = 0.5 });
      ("G/G/1 ca2=1 cs2=0.5", Queueing.Gg1 { arrival_cv2 = 1.0; service_cv2 = 0.5 });
    ]
  in
  Report.print_table
    ~header:("rho" :: List.map fst kinds)
    ~rows:
      (List.map
         (fun rho ->
           let lambda = rho *. mu in
           Printf.sprintf "%.2f" rho
           :: List.map
                (fun (_, k) ->
                  Report.fms (Queueing.wait_time k ~lambda ~mu *. 1000.0))
                kinds)
         [ 0.1; 0.3; 0.5; 0.7; 0.9; 0.95 ]);
  print_endline "(M/D/1 is half of M/M/1 at equal rho, as the formulas require)"

(* ------------------------------------------------------------------ *)
(* Fig. 3 — LAN RTT histogram                                          *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  Report.section "Fig 3: intra-region RTT distribution, N(0.4271, 0.0476)";
  let rng = Rng.create ~seed:3 in
  let s = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add s (Dist.sample (Dist.normal_pos ~mu:0.4271 ~sigma:0.0476) rng)
  done;
  Printf.printf "sampled: mu=%.4f sigma=%.4f (paper: mu=0.4271 sigma=0.0476)\n"
    (Stats.mean s) (Stats.stddev s);
  List.iter
    (fun (lo, _hi, count) ->
      Printf.printf "  %.3f ms  %s\n" lo (String.make (count / 150) '#'))
    (Stats.histogram s ~bins:24)

(* ------------------------------------------------------------------ *)
(* Fig. 4 — queueing models vs the Paxi reference implementation       *)
(* ------------------------------------------------------------------ *)

let fig4 quick =
  Report.section "Fig 4: queueing models vs Paxi/Paxos (9-node LAN)";
  let node = Service.default_node ~n:9 in
  let rng = Rng.create ~seed:4 in
  let measured = List.assoc "paxos" (lan_series_many ~quick [ "paxos" ]) in
  let model queue thr = model_lat ~queue Latency_model.Paxos ~node ~rng thr in
  Report.print_table
    ~header:[ "throughput"; "M/M/1"; "M/D/1"; "M/G/1"; "G/G/1"; "Paxi (measured)" ]
    ~rows:
      (List.map
         (fun (_, thr, lat) ->
           [
             Report.frate thr;
             model Queueing.Mm1 thr;
             model Queueing.Md1 thr;
             model (Queueing.Mg1 { service_cv2 = 0.0 }) thr;
             model (Queueing.Gg1 { arrival_cv2 = 1.0; service_cv2 = 0.0 }) thr;
             Report.fms lat;
           ])
         measured);
  print_endline
    "(M/D/1 and M/G/1 track the measured curve most closely; the paper\n\
     selects M/D/1 for the rest of the analysis, and so do we)"

(* ------------------------------------------------------------------ *)
(* Fig. 7 — Paxi/Paxos vs an independent Raft                          *)
(* ------------------------------------------------------------------ *)

let fig7 quick =
  Report.section "Fig 7: Paxi/Paxos vs independent Raft (9 replicas, LAN)";
  let all = lan_series_many ~quick [ "paxos"; "raft" ] in
  let paxos = List.assoc "paxos" all in
  let raft = List.assoc "raft" all in
  Report.print_table
    ~header:[ "clients"; "paxos ops/s"; "paxos lat"; "raft ops/s"; "raft lat" ]
    ~rows:
      (List.map2
         (fun (c, pt, pl) (_, rt, rl) ->
           [ string_of_int c; Report.frate pt; Report.fms pl;
             Report.frate rt; Report.fms rl ])
         paxos raft);
  let pmax = max_throughput paxos and rmax = max_throughput raft in
  Printf.printf
    "max throughput: paxos %.0f, raft %.0f (ratio %.2f — the same\n\
     single-leader ceiling, as the paper finds for Paxi/Paxos vs etcd)\n"
    pmax rmax (rmax /. pmax)

(* ------------------------------------------------------------------ *)
(* Fig. 8 — modeled LAN performance                                    *)
(* ------------------------------------------------------------------ *)

let fig8_protocols =
  [
    ("multipaxos", Latency_model.Paxos);
    ("fpaxos |q2|=3", Latency_model.Fpaxos { q2 = 3 });
    ("epaxos", Latency_model.Epaxos { conflict = 0.05 });
    ("wpaxos", Latency_model.Wpaxos { leaders = 3; locality = 1.0; fz = 0 });
  ]

let fig8 () =
  Report.section "Fig 8a: modeled LAN latency vs throughput (9 nodes)";
  let node = Service.default_node ~n:9 in
  let rng = Rng.create ~seed:8 in
  List.iter
    (fun (name, proto) ->
      let cap = Latency_model.lan_max_throughput proto ~node in
      Printf.printf "\n%s (max %.0f rounds/s)\n" name cap;
      let lambdas = List.map (fun f -> f *. cap) [ 0.2; 0.4; 0.6; 0.8; 0.95 ] in
      List.iter
        (fun (p : Latency_model.point) ->
          Printf.printf "  %8.0f rps  %7.3f ms\n" p.Latency_model.throughput_rps
            p.Latency_model.latency_ms)
        (Latency_model.lan_curve proto ~node ~lan:Latency_model.default_lan ~rng
           ~lambdas))
    fig8_protocols;
  Report.section "Fig 8b: latency at low throughput (2000 rounds/s)";
  Report.print_table ~header:[ "protocol"; "latency (ms)" ]
    ~rows:
      (List.map
         (fun (name, proto) -> [ name; model_lat proto ~node ~rng 2000.0 ])
         fig8_protocols)

(* ------------------------------------------------------------------ *)
(* Fig. 9 — experimental LAN performance                               *)
(* ------------------------------------------------------------------ *)

let fig9 quick =
  Report.section
    "Fig 9: experimental LAN latency vs throughput (9 nodes, 1000 keys, 50% writes)";
  let names = [ "paxos"; "fpaxos"; "epaxos"; "wpaxos"; "wankeeper" ] in
  let all = lan_series_many ~quick names in
  List.iter
    (fun (name, series) ->
      Printf.printf "\n%s\n" name;
      Report.print_table ~header:[ "clients"; "ops/s"; "mean latency (ms)" ]
        ~rows:
          (List.map
             (fun (c, thr, lat) ->
               [ string_of_int c; Report.frate thr; Report.fms lat ])
             series))
    all;
  let cap name = max_throughput (List.assoc name all) in
  Report.section "Fig 9 summary (the paper's qualitative findings)";
  Printf.printf "single-leader ceiling: paxos %.0f, fpaxos %.0f ops/s (same bottleneck)\n"
    (cap "paxos") (cap "fpaxos");
  Printf.printf "wpaxos vs paxos:       %.0f vs %.0f = +%.0f%% (paper: ~+55%%)\n"
    (cap "wpaxos") (cap "paxos")
    (((cap "wpaxos" /. cap "paxos") -. 1.0) *. 100.0);
  Printf.printf "wankeeper vs wpaxos:   %.0f vs %.0f (hierarchy trims leader load)\n"
    (cap "wankeeper") (cap "wpaxos");
  Printf.printf "epaxos:                %.0f ops/s (dependency-bookkeeping penalty)\n"
    (cap "epaxos")

(* ------------------------------------------------------------------ *)
(* Fig. 10 — modeled WAN performance                                   *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  Report.section "Fig 10: modeled WAN latency vs aggregate throughput (5 regions)";
  let node = Service.default_node ~n:5 in
  let wan = Latency_model.default_wan in
  let entries =
    [
      ("multipaxos (CA leader)", Latency_model.Paxos, Region.california);
      ("fpaxos |q2|=2 (CA leader)", Latency_model.Fpaxos { q2 = 2 }, Region.california);
      ("epaxos (conflict=0.3)", Latency_model.Epaxos { conflict = 0.3 }, Region.virginia);
      ( "epaxos (conflict=[0.02,0.70])",
        Latency_model.Epaxos_adaptive { conflict_lo = 0.02; conflict_hi = 0.70 },
        Region.virginia );
      ( "wpaxos (locality=0.7)",
        Latency_model.Wpaxos { leaders = 5; locality = 0.7; fz = 0 },
        Region.virginia );
    ]
  in
  List.iter
    (fun (name, proto, leader_region) ->
      let cap = Latency_model.lan_max_throughput proto ~node in
      Printf.printf "\n%s\n" name;
      let lambdas = List.map (fun f -> f *. cap) [ 0.2; 0.5; 0.8; 0.95 ] in
      List.iter
        (fun (p : Latency_model.point) ->
          Printf.printf "  %8.0f rps  %8.3f ms\n" p.Latency_model.throughput_rps
            p.Latency_model.latency_ms)
        (Latency_model.wan_curve proto ~node ~wan ~leader_region ~lambdas))
    entries;
  print_endline
    "\n(>100 ms separates Paxos from WPaxos; flexible quorums cut FPaxos'\n\
     quorum wait; adaptive-conflict EPaxos degrades as load grows)"

(* ------------------------------------------------------------------ *)
(* Fig. 11 — conflict experiments across regions                       *)
(* ------------------------------------------------------------------ *)

let fig11_regions = [ Region.virginia; Region.ohio; Region.california ]

(* The WAN figures' master region is Ohio (index 1), which is also the
   objects' first home when [owned] *)
let ohio_master ~fz ~owned c =
  {
    c with
    Config.fz;
    master_region_index = 1;
    initial_object_owner = (if owned then Some 1 else None);
  }

let fig11_run ~quick name ~fz ~conflict =
  (* Paxos's stable leader is replica 0, i.e. the first region: home
     it with the hot object in Ohio, like the other protocols *)
  let topo_regions =
    if name = "paxos" then Region.[ ohio; virginia; california ]
    else fig11_regions
  in
  let r =
    point ~quick ~n:9
      ~seed:(point_seed ("fig11", name, fz, conflict))
      ~configure:(ohio_master ~fz ~owned:(name <> "epaxos" && name <> "paxos"))
      ~topology:(Topology.wan ~regions:topo_regions ~replicas_per_region:3 ())
      name
      (List.mapi
         (fun i region ->
           Runner.clients ~region ~count:2
             {
               Workload.default with
               Workload.keys = 900;
               min_key = 100;
               hot_key = 0 (* the designated conflict object, homed in Ohio *);
               conflict_ratio = conflict;
               dist =
                 (let k = 900.0 in
                  Workload.Normal
                    {
                      mu = (float_of_int i +. 0.5) *. k /. 3.0;
                      sigma = k /. 9.0;
                      speed_ms = 0.0;
                      drift = 0.0;
                    });
             })
         fig11_regions)
  in
  List.map
    (fun region -> Option.fold (region_stats r region) ~none:nan ~some:Stats.mean)
    fig11_regions

let fig11 quick =
  Report.section
    "Fig 11: per-region latency under a conflict workload (hot object in Ohio)";
  let configs =
    [
      ("wpaxos fz=0", "wpaxos", 0);
      ("wpaxos fz=1", "wpaxos", 1);
      ("wankeeper", "wankeeper", 0);
      ("epaxos", "epaxos", 0);
      ("vpaxos", "vpaxos", 0);
      ("paxos", "paxos", 0);
    ]
  in
  let conflicts =
    if quick then [ 0.0; 0.5; 1.0 ] else [ 0.0; 0.2; 0.4; 0.6; 0.8; 1.0 ]
  in
  let series =
    chunks (List.length conflicts)
      (Parmap.map
         (fun (name, fz, c) -> fig11_run ~quick name ~fz ~conflict:c)
         (List.concat_map
            (fun (_, name, fz) -> List.map (fun c -> (name, fz, c)) conflicts)
            configs))
  in
  List.iteri
    (fun ri region ->
      Printf.printf "\n(%c) %s — mean latency (ms)\n"
        (Char.chr (Char.code 'a' + ri))
        (Region.name region);
      Report.print_table
        ~header:("conflict" :: List.map (fun (label, _, _) -> label) configs)
        ~rows:
          (List.mapi
             (fun ci c ->
               Printf.sprintf "%.0f%%" (c *. 100.0)
               :: List.map
                    (fun s -> Report.fms (List.nth (List.nth s ci) ri))
                    series)
             conflicts))
    fig11_regions;
  print_endline
    "\n(fz=0 protocols keep flat latency for non-conflicting commands;\n\
     Ohio, the hot object's home, stays near local latency except\n\
     under leaderless EPaxos; EPaxos degrades non-linearly in the\n\
     remote regions as the conflict ratio grows)"

(* ------------------------------------------------------------------ *)
(* Fig. 12 — modeled EPaxos capacity vs conflict ratio                 *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  Report.section "Fig 12: modeled max throughput vs conflict ratio (5 nodes)";
  let node = Service.default_node ~n:5 in
  let paxos_cap = Latency_model.lan_max_throughput Latency_model.Paxos ~node in
  let cap c =
    Latency_model.lan_max_throughput (Latency_model.Epaxos { conflict = c }) ~node
  in
  Report.print_table
    ~header:[ "conflict %"; "epaxos max (rps)"; "paxos max (rps)" ]
    ~rows:
      (List.map
         (fun c ->
           [
             Printf.sprintf "%.0f" (c *. 100.0);
             Report.frate (cap c);
             Report.frate paxos_cap;
           ])
         [ 0.0; 0.2; 0.4; 0.6; 0.8; 1.0 ]);
  Printf.printf "degradation c=0 -> c=1: %.0f%% (paper: as much as ~40%%)\n"
    ((1.0 -. (cap 1.0 /. cap 0.0)) *. 100.0)

(* ------------------------------------------------------------------ *)
(* Fig. 13 — locality workload across 5 regions                        *)
(* ------------------------------------------------------------------ *)

let fig13_regions = Region.aws_five

let fig13_run ~quick label name ~fz =
  (* the paper runs this workload for 60 s so object placement can
     settle; give adaptation a long warmup in full mode *)
  ( label,
    point ~quick
      ~warmup_ms:(if quick then 2_000.0 else 8_000.0)
      ~duration_ms:(if quick then 3_000.0 else 20_000.0)
      ~n:(List.length fig13_regions)
      ~seed:(point_seed ("fig13", name, fz))
      ~configure:(ohio_master ~fz ~owned:(zoned name))
      ~topology:
        (Topology.wan ~regions:fig13_regions ~replicas_per_region:1 ())
      name
      (List.mapi
         (fun i region ->
           Runner.clients ~region ~count:2
             (Workload.with_locality
                { Workload.default with Workload.keys = 1000 }
                ~region_index:i
                ~regions:(List.length fig13_regions)))
         fig13_regions) )

let fig13 quick =
  let results =
    Parmap.map
      (fun (label, name, fz) -> fig13_run ~quick label name ~fz)
      [
        ("wpaxos fz=0", "wpaxos", 0);
        ("wankeeper", "wankeeper", 0);
        ("vpaxos", "vpaxos", 0);
        ("wpaxos fz=1", "wpaxos", 1);
        ("paxos", "paxos", 0);
        ("epaxos", "epaxos", 0);
      ]
  in
  Report.section
    "Fig 13a: average latency per region, locality workload (objects start in Ohio)";
  Report.print_table
    ~header:("protocol" :: List.map Region.name fig13_regions)
    ~rows:
      (List.map
         (fun (label, r) ->
           label
           :: List.map
                (fun region ->
                  Option.fold (region_stats r region) ~none:"-" ~some:(fun s ->
                      Report.fms (Stats.mean s)))
                fig13_regions)
         results);
  Report.section "Fig 13b: latency CDF (ms at quantile)";
  let quantiles = [ 25.0; 50.0; 75.0; 90.0; 99.0 ] in
  Report.print_table
    ~header:
      ("protocol" :: List.map (fun q -> Printf.sprintf "p%.0f" q) quantiles)
    ~rows:
      (List.map
         (fun (label, (r : Runner.result)) ->
           label
           :: List.map
                (fun q -> Report.fms (Stats.percentile r.Runner.latency q))
                quantiles)
         results);
  print_endline
    "\n(WanKeeper favours the master region at the other regions' cost;\n\
     WPaxos and VPaxos balance objects and show near-identical CDFs)"

(* ------------------------------------------------------------------ *)
(* Fig. 14 / Table 4 / Section-6 formulas                              *)
(* ------------------------------------------------------------------ *)

let fig14 () =
  Report.section "Table 4: parameters explored by each protocol";
  Report.print_table ~header:[ "parameter"; "protocols" ]
    ~rows:(List.map (fun (p, ps) -> [ p; String.concat ", " ps ]) Formulas.table4);
  Report.section "Fig 14: protocol selection flowchart (all decision paths)";
  List.iter
    (fun ((_ : Advisor.deployment), r) -> Format.printf "  %a@." Advisor.pp r)
    Advisor.all_paths

let formulas () =
  Report.section "Section 6 formulas (load, capacity, latency)";
  let n = 9 in
  Printf.printf "Formula 3: L(S) = (1+c)(Q+L-2)/L\n";
  Printf.printf "Eq 4: L(Paxos,N=9)      = %.3f (paper: 4)\n" (Formulas.load_paxos ~n);
  Printf.printf "Eq 5: L(EPaxos,N=9,c=0) = %.3f (paper: 4/3)\n"
    (Formulas.load_epaxos ~n ~conflict:0.0);
  Printf.printf "Eq 5: L(EPaxos,N=9,c=1) = %.3f (paper: 8/3)\n"
    (Formulas.load_epaxos ~n ~conflict:1.0);
  Printf.printf "Eq 6: L(WPaxos,N=9,L=3) = %.3f (paper: 4/3)\n"
    (Formulas.load_wpaxos ~n ~leaders:3);
  Printf.printf "Formula 7: latency(c=0, l=0.7, DL=75ms, DQ=11ms) = %.1f ms\n"
    (Formulas.latency ~conflict:0.0 ~locality:0.7 ~dl_ms:75.0 ~dq_ms:11.0)

(* ------------------------------------------------------------------ *)
(* Ablations (design decisions called out in DESIGN.md)                *)
(* ------------------------------------------------------------------ *)

(* One 9-node LAN point per variant (label, value): [set value]
   applied to the default configuration, seeded by the experiment's
   name and the value, round-robin clients; one row each. *)
let ablation ~quick ~name ~title ~protocol ~concurrency ~set ~label ~columns
    variants =
  Report.section title;
  let results =
    Parmap.map
      (fun (_, v) ->
        point ~quick ~n:9 ~seed:(point_seed (name, v)) ~configure:(set v)
          protocol
          (round_robin concurrency Workload.default))
      variants
  in
  Report.print_table
    ~header:(label :: List.map fst columns)
    ~rows:
      (List.map2
         (fun (l, _) r -> l :: List.map (fun (_, f) -> f r) columns)
         variants results)

let msgs = ("msgs", fun (r : Runner.result) -> string_of_int r.Runner.messages_sent)

let ablate_thrifty quick =
  ablation ~quick ~name:"ablate-thrifty"
    ~title:"Ablation: thrifty quorums (paxos, 9-node LAN, 32 clients)"
    ~protocol:"paxos" ~concurrency:32
    ~set:(fun thrifty c -> { c with Config.thrifty })
    ~label:"thrifty"
    ~columns:
      [
        ("ops/s", tput);
        ("mean lat (ms)", mean_lat);
        ( "leader busy (ms)",
          fun r -> Report.frate r.Runner.busiest_node_busy_ms );
        msgs;
      ]
    [ ("off", false); ("on", true) ];
  print_endline
    "(thrifty cuts the leader's copies from N-1 to Q-1 per round —\n\
     the assumption behind Formula 3)"

let ablate_commit quick =
  ablation ~quick ~name:"ablate-commit"
    ~title:"Ablation: piggybacked vs explicit commit (paxos, 9-node LAN)"
    ~protocol:"paxos" ~concurrency:32
    ~set:(fun piggyback_commit c -> { c with Config.piggyback_commit })
    ~label:"commit" ~columns:[ ("ops/s", tput); ("mean lat (ms)", mean_lat); msgs ]
    [ ("piggybacked", true); ("explicit", false) ]

let ablate_penalty quick =
  ablation ~quick ~name:"ablate-penalty"
    ~title:"Ablation: EPaxos dependency-bookkeeping penalty (9-node LAN)"
    ~protocol:"epaxos" ~concurrency:48
    ~set:(fun p c -> { c with Config.epaxos_penalty = p })
    ~label:"penalty" ~columns:[ ("ops/s", tput); ("mean lat (ms)", mean_lat) ]
    (List.map (fun p -> (Printf.sprintf "%.1fx" p, p)) [ 1.0; 2.0; 3.0; 4.0 ]);
  print_endline
    "(without the processing penalty EPaxos out-throughputs Paxos — the\n\
     penalty drives its poor LAN showing, exactly as the paper argues)"

(* ------------------------------------------------------------------ *)
(* §4.2 benchmark tiers: scalability, availability, YCSB            *)
(* ------------------------------------------------------------------ *)

let scalability quick =
  Report.section
    "Scalability tier (§4.2): throughput vs cluster size and key-space size";
  let sizes = [ 3; 5; 7; 9 ] in
  let key_sizes = [ 100; 1000; 10_000 ] in
  let points =
    List.sort_uniq compare
      (List.concat_map
         (fun n -> [ ("paxos", n, 1000); ("epaxos", n, 1000) ])
         sizes
      @ List.map (fun k -> ("paxos", 9, k)) key_sizes)
  in
  let results =
    List.combine points
      (Parmap.map
         (fun (name, n, keys) ->
           point ~quick ~n
             ~seed:(point_seed ("scalability", name, n, keys))
             name
             (round_robin 32 { Workload.default with Workload.keys }))
         points)
  in
  let get name n keys = tput (List.assoc (name, n, keys) results) in
  Printf.printf "\ncluster-size sweep (paxos vs epaxos, 1000 keys):\n";
  Report.print_table
    ~header:[ "nodes"; "paxos ops/s"; "epaxos ops/s" ]
    ~rows:
      (List.map
         (fun n -> [ string_of_int n; get "paxos" n 1000; get "epaxos" n 1000 ])
         sizes);
  Printf.printf
    "\n(single-leader throughput shrinks with N — the leader handles N+2\n\
     messages per round — while leaderless protocols hold up)\n";
  Printf.printf "\nkey-space sweep (paxos, 9 nodes):\n";
  Report.print_table
    ~header:[ "keys"; "ops/s" ]
    ~rows:(List.map (fun k -> [ string_of_int k; get "paxos" 9 k ]) key_sizes)

let availability quick =
  Report.section
    "Availability tier (§4.2): throughput timeline across a leader crash";
  let crash_at = 6_000.0 and crash_for = 8_000.0 in
  let result =
    point ~quick ~warmup_ms:500.0 ~duration_ms:20_000.0 ~collect_history:true
      ~faults:(fun f ->
        Faults.crash f ~node:(Address.replica 0) ~from_ms:crash_at
          ~duration_ms:crash_for)
      ~n:5 "paxos"
      (round_robin 8 { Workload.default with Workload.keys = 100 })
  in
  (* completions per second of the run *)
  let counts = Array.make 21 0 in
  List.iter
    (fun (op : Linearizability.op) ->
      let b = int_of_float (op.Linearizability.responded_ms /. 1_000.0) in
      if b <= 20 then counts.(b) <- counts.(b) + 1)
    result.Runner.history;
  Array.iteri
    (fun b count ->
      let t = float_of_int b *. 1_000.0 in
      Printf.printf "  t=%2d s  %6d ops%s\n" b count
        (if t >= crash_at && t < crash_at +. crash_for then "  <- leader down"
         else ""))
    counts;
  Printf.printf
    "(single-leader Paxos loses availability until failover elects a new\n\
     leader; multi-leader protocols only lose the crashed leader's share)\n"

let ycsb quick =
  Report.section "YCSB core workloads (paxos vs epaxos vs wpaxos, 9-node LAN)";
  let kinds = [ ("A (50/50)", `A); ("B (95/5)", `B); ("C (reads)", `C);
                ("D (latest)", `D); ("F (rmw)", `F) ] in
  let protos = [ "paxos"; "epaxos"; "wpaxos" ] in
  let results =
    Parmap.map
      (fun (name, kind) ->
        lan_point ~quick ~seed:(point_seed ("ycsb", name, kind)) name ~count:32
          (Workload.ycsb kind ~keys:1000))
      (List.concat_map
         (fun (_, kind) -> List.map (fun name -> (name, kind)) protos)
         kinds)
  in
  Report.print_table
    ~header:[ "workload"; "paxos ops/s"; "epaxos ops/s"; "wpaxos ops/s" ]
    ~rows:
      (List.map2
         (fun (label, _) row -> label :: List.map tput row)
         kinds
         (chunks (List.length protos) results));
  print_endline
    "(read-heavy workloads favour the leaderless fast path — the Fig. 14\n\
     guidance; zipfian skew concentrates WPaxos ownership churn)"

let openloop quick =
  Report.section
    "Open-loop cross-validation: Poisson arrivals vs the M/D/1 model (paxos)";
  let node = Service.default_node ~n:9 in
  let rng = Rng.create ~seed:44 in
  let cap = Latency_model.lan_max_throughput Latency_model.Paxos ~node in
  (* measure in parallel; evaluate the model sequentially afterwards
     so its shared RNG draws in a fixed order *)
  let measured =
    Parmap.map
      (fun frac ->
        let rate = frac *. cap in
        ( rate,
          point ~quick ~n:9
            ~seed:(point_seed ("openloop", frac))
            "paxos"
            [ (* straight to the leader, as the model's DL assumes *)
              Runner.clients ~target:(Runner.Fixed 0)
                ~arrival:(Runner.Open { rate_per_sec = rate /. 4.0 })
                ~count:4 Workload.default ] ))
      [ 0.2; 0.4; 0.6; 0.8 ]
  in
  Report.print_table
    ~header:[ "offered load (rps)"; "measured lat (ms)"; "M/D/1 model (ms)" ]
    ~rows:
      (List.map
         (fun (rate, r) ->
           [
             Report.frate rate;
             mean_lat r;
             model_lat Latency_model.Paxos ~node ~rng rate;
           ])
         measured);
  print_endline
    "(Poisson arrivals match the model's M/D/1 assumption directly, so\n\
     measured and modeled latencies should track closely until the knee)"

(* ------------------------------------------------------------------ *)
(* Read-path sweep                                                     *)
(* ------------------------------------------------------------------ *)

(* The lease expiry margin used everywhere the CLI says "lease": 300 ms
   against the nemesis clock-skew fault's <=120 ms offsets, i.e. margin
   >= 2x the worst skew the fault matrix injects (DESIGN.md section 11). *)
let default_lease = Config.Lease { margin_ms = 300.0 }

let read_path_tag = function
  | None -> "write-path"
  | Some (Config.Lease _) -> "lease"
  | Some Config.Quorum -> "quorum"
  | Some Config.Tail -> "tail"

(* One read-path point: n=5 LAN, closed-loop clients writing with
   probability [1 - read_ratio]. Tracing is on so the fast-read
   counter distinguishes lease/quorum/tail serves from reads that fell
   through to the slot log. Lease and quorum reads are served by the
   leader, so clients pin there; chain clients pin to the tail, which
   serves reads directly and forwards the writes to the head. *)
let read_point ~quick ~protocol ~read_path ~read_ratio ~concurrency =
  let n = 5 in
  let tag = read_path_tag read_path in
  let target =
    if protocol = "chain" then Runner.Fixed (n - 1) else Runner.Fixed 0
  in
  point ~quick ~n
    ~seed:(point_seed ("reads", protocol, tag, read_ratio, concurrency))
    ~configure:(fun c -> { c with Config.read_path; tracing = true })
    protocol
    [
      Runner.clients ~target ~count:concurrency
        { Workload.default with Workload.write_ratio = 1.0 -. read_ratio };
    ]

(* Read-ratio sweep (r = 0.5 / 0.95 / 0.99): the write path priced
   against lease reads (paxos/fpaxos/raft), ABD quorum reads (paxos)
   and chain tail reads. The headline figure is the read p50 — a local
   lease read skips the slot log and its quorum round, so at r = 0.95
   it should sit well under the write-path read p50. *)
let reads quick =
  Report.section
    "Read paths: lease / quorum / tail reads vs the write path";
  let concurrency = 16 in
  let rows =
    [
      ("paxos", None);
      ("paxos", Some default_lease);
      ("paxos", Some Config.Quorum);
      ("fpaxos", Some default_lease);
      ("raft", Some default_lease);
      ("chain", Some Config.Tail);
    ]
  in
  let ratios = [ 0.5; 0.95; 0.99 ] in
  let points =
    List.concat_map
      (fun read_ratio ->
        List.map (fun (p, rp) -> (p, rp, read_ratio)) rows)
      ratios
  in
  let results =
    Parmap.map
      (fun (protocol, read_path, read_ratio) ->
        read_point ~quick ~protocol ~read_path ~read_ratio ~concurrency)
      points
  in
  let p50_or_dash s =
    if Stats.count s = 0 then "-" else Report.fms (Stats.percentile s 50.0)
  in
  Report.print_table
    ~header:
      [ "protocol/path"; "read ratio"; "ops/s"; "read p50 (ms)";
        "write p50 (ms)"; "fast reads" ]
    ~rows:
      (List.map2
         (fun (protocol, read_path, read_ratio) (r : Runner.result) ->
           [
             Printf.sprintf "%s/%s" protocol (read_path_tag read_path);
             Printf.sprintf "%.2f" read_ratio;
             tput r;
             p50_or_dash r.Runner.read_latency;
             p50_or_dash r.Runner.write_latency;
             string_of_int (Paxi_obs.Trace.fast_reads r.Runner.trace);
           ])
         points results);
  print_endline
    "(fast reads = served off the lease / quorum / tail path; 0 on the \n\
     write-path rows because those reads ride the slot log)"

(* ------------------------------------------------------------------ *)
(* Scale sweep: BENCH_pr8.json                                         *)
(* ------------------------------------------------------------------ *)

(* Rotation-relay fan-out for the sweep: r = ceil((n - 1) / 8) keeps
   relay group size near eight members at every cluster size, so the
   leader's per-slot message cost stays ~2r while each relay's stays
   ~2*8 — both flat as n grows. *)
let scale_relay_groups n = Stdlib.max 1 ((n + 6) / 8)

(* [~durable] puts an fsync per accept ([Storage.default_config],
   [Sync_every]) on every replica, relays and fanned members included,
   under a seed of its own. *)
let scale_point ?(durable = false) ~quick ~protocol ~n ~relay_groups () =
  point ~quick ~n
    ~seed:
      (if durable then point_seed ("scale", protocol, n, relay_groups, "every")
       else point_seed ("scale", protocol, n, relay_groups))
    ~configure:(fun c ->
      {
        c with
        Config.relay_groups;
        storage = (if durable then Some Storage.default_config else None);
      })
    protocol
    (round_robin 64 Workload.default)

(* Identical throughput, latency samples and event count: two runs
   that must be the same stream. *)
let same_stream (a : Runner.result) (b : Runner.result) =
  a.Runner.throughput_rps = b.Runner.throughput_rps
  && Stats.samples a.Runner.latency = Stats.samples b.Runner.latency
  && a.Runner.sim_events = b.Runner.sim_events

(* Throughput vs cluster size, direct vs relay trees (DESIGN.md §12):
   64 closed-loop clients saturate the leader, so the direct series
   degrades as the leader's 2(n-1) per-slot messages eat its cycles
   while the relay series holds near-flat at 2r. Writes
   BENCH_pr8.json; CI's scale-smoke job gates the relay-vs-direct gain
   at n = 49 and the monotone direct decline on it. *)
let scale quick =
  Report.section
    "Scale: saturation throughput vs cluster size, direct vs relay trees";
  let sizes = [ 9; 25; 49; 81 ] in
  let protocols = [ "paxos"; "raft" ] in
  (* the memory-only sweep, then one durable n = 49 pair per protocol *)
  let durable_n = 49 in
  let pair protocol n durable =
    [ (protocol, n, 0, durable); (protocol, n, scale_relay_groups n, durable) ]
  in
  let points =
    List.concat_map
      (fun protocol -> List.concat_map (fun n -> pair protocol n false) sizes)
      protocols
    @ List.concat_map (fun protocol -> pair protocol durable_n true) protocols
  in
  let results =
    Parmap.map
      (fun ((protocol, n, r, durable) as key) ->
        (key, scale_point ~durable ~quick ~protocol ~n ~relay_groups:r ()))
      points
  in
  let find ?(durable = false) protocol n r =
    List.assoc (protocol, n, r, durable) results
  in
  let gain_row ~durable protocol n =
    let r = scale_relay_groups n in
    let d = find ~durable protocol n 0 and v = find ~durable protocol n r in
    [
      string_of_int n;
      tput d;
      tput v;
      string_of_int r;
      Printf.sprintf "%.2fx" (v.Runner.throughput_rps /. d.Runner.throughput_rps);
    ]
  in
  let header = [ "n"; "direct (ops/s)"; "relay (ops/s)"; "relay groups"; "gain" ] in
  List.iter
    (fun protocol ->
      Printf.printf "%s (64 closed-loop clients):\n" protocol;
      Report.print_table ~header
        ~rows:(List.map (gain_row ~durable:false protocol) sizes))
    protocols;
  List.iter
    (fun protocol ->
      Printf.printf "%s, fsync per accept (Sync_every):\n" protocol;
      Report.print_table ~header
        ~rows:[ gain_row ~durable:true protocol durable_n ])
    protocols;
  (* relay_groups = 0 must leave the direct path untouched: re-run the
     paxos n=25 direct point sequentially and demand it is
     byte-identical to the pooled sweep's. (The cross-build guarantee —
     a binary carrying relay code matches one that never had it — is
     held by the committed fig9 baseline diff and the fixed-seed pins
     in test/test_relay.ml.) *)
  let relay_zero_identical =
    same_stream (find "paxos" 25 0)
      (scale_point ~quick ~protocol:"paxos" ~n:25 ~relay_groups:0 ())
  in
  Printf.printf "relay_groups=0 byte-identical across re-run: %b\n"
    relay_zero_identical;
  (* durable points carry a [storage] field; the memory-only ones keep
     their (protocol, n, relay_groups) key alone *)
  let point_json ((protocol, n, r, durable), (res : Runner.result)) =
    Json.Obj
      ([
         ("protocol", Json.String protocol);
         ("n", int_num n);
         ("relay_groups", int_num r);
       ]
      @ (if durable then [ ("storage", Json.String "every") ] else [])
      @ [
          ("throughput_rps", num res.Runner.throughput_rps);
          ("mean_latency_ms", num (Stats.mean res.Runner.latency));
          ("completed", int_num res.Runner.completed);
          ("sim_events", int_num res.Runner.sim_events);
        ])
  in
  write_result ~pr:8 ~quick
    ~suite:"scale: throughput vs cluster size, direct vs relay trees"
    [
      ("clients", num 64.0);
      ("sizes", Json.List (List.map int_num sizes));
      ("points", Json.List (List.map point_json results));
      ("relay_zero_identical", Json.Bool relay_zero_identical);
    ]

(* ------------------------------------------------------------------ *)
(* Shard sweep: BENCH_pr9.json                                         *)
(* ------------------------------------------------------------------ *)

(* Small groups — three replicas each — so a K-shard deployment costs
   3K replicas and each group's leader is the bottleneck the open-loop
   ramp saturates. *)
let shard_n = 3

let shard_dist_name = function `Uniform -> "uniform" | `Hotspot -> "hotspot"
let shard_partition_name = function `Hash -> "hash" | `Range -> "range"

(* max/mean of the per-shard throughput series: 1.0 is perfect
   balance; K means one shard carries everything *)
let shard_imbalance (res : Runner.result) =
  let ss = res.Runner.shard_stats in
  let total =
    Array.fold_left (fun a s -> a +. s.Runner.shard_throughput_rps) 0.0 ss
  in
  let mean = total /. float_of_int (Array.length ss) in
  if mean <= 0.0 then 1.0
  else
    Array.fold_left
      (fun a s -> Float.max a (s.Runner.shard_throughput_rps /. mean))
      0.0 ss

(* One open-loop point: K groups of [shard_n] behind the partitioner,
   [rate] rps offered across 4K independent arrival processes aimed at
   each group's initial leader. The client timeout exceeds the run
   horizon so over-the-knee points measure the saturated service rate,
   not a retry storm compounding the overload. *)
let shard_point ~quick ?(arrival = `Poisson) ~shards ~partition ~dist ~rate () =
  let clients = 4 * shards in
  let per_client = rate /. float_of_int clients in
  let arrival_spec, arrival_tag =
    match arrival with
    | `Poisson -> (Runner.Open { rate_per_sec = per_client }, "poisson")
    | `Bursty ->
        ( Runner.Bursty
            { rate_per_sec = per_client; on_ms = 50.0; off_ms = 150.0 },
          "bursty" )
  in
  point ~quick ~n:shard_n
    ~seed:
      (point_seed
         ( "shard",
           shards,
           shard_partition_name partition,
           shard_dist_name dist,
           arrival_tag,
           int_of_float rate ))
    ~configure:(fun c -> { c with Config.client_timeout_ms = 6_000.0 })
    ~sharding:{ Runner.shards; partition }
    "paxos"
    [
      Runner.clients ~target:(Runner.Fixed 0) ~arrival:arrival_spec
        ~count:clients
        (match dist with
        | `Uniform -> Workload.default
        | `Hotspot -> Workload.hotspot ~keys:1000);
    ]

(* Sharded saturation: K = 1/2/4/8 groups over one simulator, Poisson
   arrival ramp past the modeled knee, uniform vs 80/20 hotspot keys
   under hash vs range partitioning. Writes BENCH_pr9.json; CI's
   shard-smoke job gates the K=4-vs-K=1 saturation gain and the
   shards=1 identity bool on it. *)
let shard quick =
  Report.section
    "Shard: open-loop saturation vs group count K (paxos, 3 replicas/group)";
  let node = Service.default_node ~n:shard_n in
  let cap shards =
    Latency_model.sharded_max_throughput Latency_model.Paxos ~node ~shards
  in
  let ks = if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let fracs = if quick then [ 0.6; 1.2 ] else [ 0.5; 0.9; 1.3 ] in
  let top_frac = List.fold_left Float.max 0.0 fracs in
  let combos = [ (`Uniform, `Hash); (`Hotspot, `Hash); (`Hotspot, `Range) ] in
  let points =
    List.concat_map
      (fun (dist, partition) ->
        List.concat_map
          (fun shards ->
            List.map
              (fun frac -> (dist, partition, shards, frac, frac *. cap shards))
              fracs)
          ks)
      combos
  in
  let results =
    Parmap.map
      (fun ((dist, partition, shards, _, rate) as p) ->
        (p, shard_point ~quick ~shards ~partition ~dist ~rate ()))
      points
  in
  let find dist partition shards frac =
    List.assoc (dist, partition, shards, frac, frac *. cap shards) results
  in
  let saturation dist partition shards =
    List.fold_left
      (fun acc frac ->
        Float.max acc (find dist partition shards frac).Runner.throughput_rps)
      0.0 fracs
  in
  List.iter
    (fun (dist, partition) ->
      Printf.printf "%s keys, %s partitioning (Poisson arrivals):\n"
        (shard_dist_name dist)
        (shard_partition_name partition);
      let sat1 = saturation dist partition 1 in
      Report.print_table
        ~header:
          [ "K"; "saturation (ops/s)"; "vs K=1"; "imbalance (max/mean)";
            "p99 at 1.2-1.3x (ms)" ]
        ~rows:
          (List.map
             (fun shards ->
               let sat = saturation dist partition shards in
               let top = find dist partition shards top_frac in
               [
                 string_of_int shards;
                 Report.frate sat;
                 Printf.sprintf "%.2fx" (sat /. sat1);
                 Printf.sprintf "%.2f" (shard_imbalance top);
                 Report.fms (Stats.percentile top.Runner.latency 99.0);
               ])
             ks))
    combos;
  print_endline
    "(hash partitioning spreads the hot prefix across groups, so hotspot\n\
     saturation tracks uniform; range partitioning hands 80% of the mass\n\
     to the shards owning the first fifth of the key space — the\n\
     imbalance column is that concentration)";
  (* open- vs bursty-loop tails at the same mean load: the on/off
     stream (50ms on / 150ms off, so 4x the rate while on) pushes the
     same requests/sec through the K=4 deployment but pays in p99 *)
  let b_shards = 4 in
  let b_rate = 0.7 *. cap b_shards in
  let b_runs =
    Parmap.map
      (fun arrival ->
        shard_point ~quick ~arrival ~shards:b_shards ~partition:`Hash
          ~dist:`Uniform ~rate:b_rate ())
      [ `Poisson; `Bursty ]
  in
  let poisson_r = List.nth b_runs 0 and bursty_r = List.nth b_runs 1 in
  let p99 (r : Runner.result) = Stats.percentile r.Runner.latency 99.0 in
  Printf.printf
    "K=4 at %.0f rps mean: poisson p99 %s ms, bursty (50/150ms on/off) p99 \
     %s ms\n"
    b_rate
    (Report.fms (p99 poisson_r))
    (Report.fms (p99 bursty_r));
  (* an unsharded spec and an explicit shards=1 spec must run the same
     stream: same throughput, same latency samples, same event count.
     (That this stream is still the single-cluster engine's is held by
     the committed fig9 and shard baseline diffs and the fixed-seed
     pins in test/test_shard.ml.) *)
  let identity_run sharding =
    point ~quick ~n:5
      ~seed:(point_seed ("shard", "identity"))
      ?sharding "paxos"
      (round_robin 8 Workload.default)
  in
  let legacy = identity_run None in
  let k1_identity =
    same_stream legacy
      (identity_run (Some { Runner.shards = 1; partition = `Hash }))
  in
  Printf.printf "shards=1 closed-loop byte-identical to the unsharded runner: %b\n"
    k1_identity;
  let per_shard f (res : Runner.result) =
    Json.List (Array.to_list (Array.map (fun s -> num (f s)) res.Runner.shard_stats))
  in
  let point_json ((dist, partition, shards, frac, rate), (res : Runner.result))
      =
    Json.Obj
      [
        ("dist", Json.String (shard_dist_name dist));
        ("partition", Json.String (shard_partition_name partition));
        ("shards", int_num shards);
        ("frac", num frac);
        ("offered_rps", num rate);
        ("throughput_rps", num res.Runner.throughput_rps);
        ("mean_latency_ms", num (Stats.mean res.Runner.latency));
        ("p99_latency_ms", num (Stats.percentile res.Runner.latency 99.0));
        ("gave_up", int_num res.Runner.gave_up);
        ("imbalance", num (shard_imbalance res));
        ( "shard_throughput_rps",
          per_shard (fun s -> s.Runner.shard_throughput_rps) res );
        ( "shard_leader_busy_ms",
          per_shard (fun s -> s.Runner.shard_leader_busy_ms) res );
        ("sim_events", int_num res.Runner.sim_events);
      ]
  in
  let sat_json =
    List.concat_map
      (fun (dist, partition) ->
        List.map
          (fun shards ->
            Json.Obj
              [
                ("dist", Json.String (shard_dist_name dist));
                ("partition", Json.String (shard_partition_name partition));
                ("shards", int_num shards);
                ("saturation_rps", num (saturation dist partition shards));
                ( "imbalance",
                  num (shard_imbalance (find dist partition shards top_frac))
                );
              ])
          ks)
      combos
  in
  write_result ~pr:9 ~quick
    ~suite:"shard: open-loop saturation vs group count, hotspot vs uniform"
    [
      ("group_n", int_num shard_n);
      ("ks", Json.List (List.map int_num ks));
      ("points", Json.List (List.map point_json results));
      ("saturation", Json.List sat_json);
      ( "bursty",
        Json.Obj
          [
            ("shards", int_num b_shards);
            ("rate_rps", num b_rate);
            ("poisson_p99_ms", num (p99 poisson_r));
            ("bursty_p99_ms", num (p99 bursty_r));
          ] );
      ("k1_identity", Json.Bool k1_identity);
    ]

(* ------------------------------------------------------------------ *)
(* Recovery sweep: BENCH_pr10.json                                     *)
(* ------------------------------------------------------------------ *)

(* Durable-mode measurements (DESIGN.md §14), three parts:

   1. the durability tax — one fault-free closed-loop paxos point
      under storage off / sync=none / batched / every: throughput,
      latency and the measured per-fsync device time. sync=none must
      replay the memory-only stream exactly (same events, same
      samples); CI gates that identity bool.
   2. crash-and-recover — paxos and raft under crash-only nemesis
      schedules with sync=every storage: crashes now destroy volatile
      state, so the verdict proves a replica can be rebuilt from its
      durable log (safety + liveness), and the recovery time is the
      measured log-replay cost.
   3. snapshots — raft replay cost with threshold snapshotting off vs
      on: compaction caps the durable log, so replay per recovery
      stops growing with history length. *)
let durable_cfg ?(threshold = 0) mode =
  {
    Storage.default_config with
    Storage.sync_mode = mode;
    snapshot_threshold = threshold;
  }

let recovery_mode_tag = function
  | None -> "off"
  | Some (c : Storage.config) -> Storage.mode_to_string c.Storage.sync_mode

let recovery_tax_point ~quick ~storage =
  point ~quick ~n:5
    (* one seed across all four modes: sync=none must reproduce the
       storage-off stream bit for bit, and the other modes then
       isolate the durability tax from seed noise *)
    ~seed:(point_seed ("recovery", "tax"))
    ~configure:(fun c -> { c with Config.storage })
    "paxos"
    [ Runner.clients ~target:(Runner.Fixed 0) ~count:16 Workload.default ]

let recovery quick =
  Report.section "Recovery: durability tax (paxos, 5-replica LAN, 16 clients)";
  let modes =
    [
      None;
      Some (durable_cfg Storage.Sync_none);
      Some (durable_cfg Storage.Sync_batched);
      Some (durable_cfg Storage.Sync_every);
    ]
  in
  let tax =
    Parmap.map (fun m -> (m, recovery_tax_point ~quick ~storage:m)) modes
  in
  let mean_fsync_ms (r : Runner.result) =
    per r.Runner.storage_busy_ms r.Runner.storage_fsyncs
  in
  Report.print_table
    ~header:
      [ "sync mode"; "tput (rps)"; "mean lat (ms)"; "fsyncs"; "fsync (ms)" ]
    ~rows:
      (List.map
         (fun (m, (r : Runner.result)) ->
           [
             recovery_mode_tag m;
             Printf.sprintf "%.0f" r.Runner.throughput_rps;
             mean_lat r;
             string_of_int r.Runner.storage_fsyncs;
             Report.fms (mean_fsync_ms r);
           ])
         tax);
  let find_tax m =
    snd (List.find (fun (m', _) -> recovery_mode_tag m' = m) tax)
  in
  let off = find_tax "off" and none = find_tax "none" in
  (* sync=none arms the whole storage layer but never touches the
     event heap or an RNG stream, so the run must be indistinguishable
     from a memory-only one *)
  let sync_none_identity =
    same_stream off none && off.Runner.messages_sent = none.Runner.messages_sent
  in
  Printf.printf "sync=none byte-identical to storage off: %b\n"
    sync_none_identity;
  Report.section "Recovery: crash-and-recover (sync=every, crash-only nemesis)";
  let seeds = if quick then [ 7; 8 ] else [ 7; 8; 9; 10; 11; 12 ] in
  (* raft additionally snapshots every 40 applied commands in the
     threshold-on arm, so its recoveries replay a bounded suffix *)
  let arms = [ ("paxos", 0); ("raft", 0); ("raft", 40) ] in
  let points =
    List.concat_map
      (fun (protocol, threshold) ->
        List.map (fun seed -> (protocol, threshold, seed)) seeds)
      arms
  in
  let crash =
    Parmap.map
      (fun (protocol, threshold, seed) ->
        (* a crash-only schedule on the trial's five replicas *)
        let schedule =
          Nemesis.Schedule.generate ~rng:(Rng.create ~seed) ~n:5
            ~kinds:{ Nemesis.Schedule.no_kinds with Nemesis.Schedule.crash = true }
            ~max_faults:3 ~horizon_ms:Nemesis.Trial.horizon_ms
        in
        ( protocol,
          threshold,
          seed,
          Nemesis.Trial.run
            ~durable:(durable_cfg ~threshold Storage.Sync_every)
            ~protocol ~seed schedule ))
      points
  in
  let replay_per_recovery (v : Nemesis.Trial.verdict) =
    per v.Nemesis.Trial.replay_ms_total v.Nemesis.Trial.recoveries
  in
  Report.print_table
    ~header:
      [
        "protocol"; "snap thr"; "seed"; "verdict"; "recoveries";
        "replay/rec (ms)"; "timers cancelled";
      ]
    ~rows:
      (List.map
         (fun (protocol, threshold, seed, (v : Nemesis.Trial.verdict)) ->
           [
             protocol;
             (if threshold = 0 then "-" else string_of_int threshold);
             string_of_int seed;
             (if v.Nemesis.Trial.ok then "ok" else "FAIL");
             string_of_int v.Nemesis.Trial.recoveries;
             Report.fms (replay_per_recovery v);
             string_of_int v.Nemesis.Trial.timers_cancelled;
           ])
         crash);
  List.iter
    (fun (protocol, threshold, seed, (v : Nemesis.Trial.verdict)) ->
      if not v.Nemesis.Trial.ok then
        Printf.printf "FAIL %s thr=%d seed %d: %s\n" protocol threshold seed
          (String.concat "; " v.Nemesis.Trial.reasons))
    crash;
  let arm_replay want_proto want_thr =
    let vs =
      List.filter_map
        (fun (p, t, _, v) ->
          if p = want_proto && t = want_thr then Some v else None)
        crash
    in
    per
      (List.fold_left (fun a v -> a +. v.Nemesis.Trial.replay_ms_total) 0.0 vs)
      (List.fold_left (fun a v -> a + v.Nemesis.Trial.recoveries) 0 vs)
  in
  let raft_plain_replay = arm_replay "raft" 0 in
  let raft_snap_replay = arm_replay "raft" 40 in
  Printf.printf
    "raft replay per recovery: %.3f ms unbounded log, %.3f ms with \
     threshold-40 snapshots\n"
    raft_plain_replay raft_snap_replay;
  let all_ok = List.for_all (fun (_, _, _, v) -> v.Nemesis.Trial.ok) crash in
  write_result ~pr:10 ~quick
    ~suite:"recovery: durability tax, crash-and-recover, snapshot replay"
    [
      ( "tax",
        Json.List
          (List.map
             (fun (m, (r : Runner.result)) ->
               Json.Obj
                 [
                   ("mode", Json.String (recovery_mode_tag m));
                   ("throughput_rps", num r.Runner.throughput_rps);
                   ("mean_latency_ms", num (Stats.mean r.Runner.latency));
                   ("fsyncs", int_num r.Runner.storage_fsyncs);
                   ("storage_writes", int_num r.Runner.storage_writes);
                   ("mean_fsync_ms", num (mean_fsync_ms r));
                 ])
             tax) );
      ("sync_none_identity", Json.Bool sync_none_identity);
      ( "crash",
        Json.List
          (List.map
             (fun (protocol, threshold, seed, (v : Nemesis.Trial.verdict)) ->
               Json.Obj
                 [
                   ("protocol", Json.String protocol);
                   ("snapshot_threshold", int_num threshold);
                   ("seed", int_num seed);
                   ("ok", Json.Bool v.Nemesis.Trial.ok);
                   ("recoveries", int_num v.Nemesis.Trial.recoveries);
                   ("replay_ms_total", num v.Nemesis.Trial.replay_ms_total);
                   ("replay_ms_per_recovery", num (replay_per_recovery v));
                   ("timers_cancelled", int_num v.Nemesis.Trial.timers_cancelled);
                   ("completed", int_num v.Nemesis.Trial.completed);
                 ])
             crash) );
      ("crash_all_ok", Json.Bool all_ok);
      ( "raft_replay_ms_per_recovery",
        Json.Obj
          [
            ("unbounded", num raft_plain_replay);
            ("threshold_40", num raft_snap_replay);
          ] );
    ];
  if not sync_none_identity then begin
    prerr_endline "recovery: sync=none diverged from the memory-only stream";
    exit 1
  end;
  if not all_ok then begin
    prerr_endline "recovery: a crash-and-recover trial failed its oracle";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Flag values shared by the nemesis and dissect subcommands           *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let checked ~expects parse print =
  Arg.conv'
    ( (fun v ->
        Option.to_result (parse v)
          ~none:(Printf.sprintf "expected %s, got %S" expects v)),
      print )

let int_from lo =
  checked
    ~expects:(Printf.sprintf "an integer >= %d" lo)
    (fun v ->
      match int_of_string_opt v with Some i when i >= lo -> Some i | _ -> None)
    Format.pp_print_int

let float_where ~expects ok =
  checked ~expects
    (fun v ->
      match float_of_string_opt v with Some f when ok f -> Some f | _ -> None)
    Format.pp_print_float

let read_ratio_arg =
  let ratio = float_where ~expects:"a fraction in [0,1]" (fun f -> f >= 0.0 && f <= 1.0) in
  Arg.(
    value & opt (some ratio) None
    & info [ "read-ratio" ] ~docv:"F" ~doc:"Fraction of requests that are reads.")

let read_path_arg =
  let paths = [ ("lease", default_lease); ("quorum", Config.Quorum); ("tail", Config.Tail) ] in
  Arg.(
    value & opt (some (enum paths)) None
    & info [ "read-path" ] ~docv:"lease|quorum|tail"
        ~doc:"Serve reads off the slot log by this path.")

(* --arrival closed | poisson:RATE | bursty:RATE:ON_MS:OFF_MS — RATE
   is the aggregate offered rps, split evenly across the subcommand's
   clients *)
let arrival_arg =
  let parse v =
    let pos f =
      match float_of_string_opt f with Some x when x > 0.0 -> Some x | _ -> None
    in
    match String.split_on_char ':' v with
    | [ "closed" ] -> Some Runner.Closed
    | [ ("poisson" | "open"); r ] ->
        Option.map (fun rate_per_sec -> Runner.Open { rate_per_sec }) (pos r)
    | [ "bursty"; r; on; off ] -> (
        match (pos r, pos on, pos off) with
        | Some rate_per_sec, Some on_ms, Some off_ms ->
            Some (Runner.Bursty { rate_per_sec; on_ms; off_ms })
        | _ -> None)
    | _ -> None
  in
  let print ppf = function
    | Runner.Closed -> Format.fprintf ppf "closed"
    | Runner.Open { rate_per_sec } -> Format.fprintf ppf "poisson:%g" rate_per_sec
    | Runner.Bursty { rate_per_sec; on_ms; off_ms } ->
        Format.fprintf ppf "bursty:%g:%g:%g" rate_per_sec on_ms off_ms
  in
  let expects = "closed | poisson:RATE | bursty:RATE:ON_MS:OFF_MS" in
  Arg.(
    value
    & opt (some (checked ~expects parse print)) None
    & info [ "arrival" ] ~docv:"ARRIVAL" ~doc:expects)

(* --durable none|batched|every: stable storage on the default device
   with this sync mode *)
let durable_arg =
  let mode =
    Arg.conv'
      ( Storage.mode_of_string,
        fun ppf m -> Format.pp_print_string ppf (Storage.mode_to_string m) )
  in
  Arg.(
    value
    & opt (some mode) None
    & info [ "durable" ] ~docv:"none|batched|every"
        ~doc:"Durable storage sync mode.")

let int_opt ?(from = 1) names ~doc =
  Arg.(value & opt (some (int_from from)) None & info names ~docv:"N" ~doc)

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"Shortened smoke run: fewer points and shorter measured windows.")

(* exit 1 with [Config.validate]'s one-line message on a deployment it
   rejects, before anything is built from it *)
let check_config cmd config =
  match Config.validate config with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "%s: %s\n" cmd e;
      exit 1

(* exit 2 on a protocol the registry does not know *)
let check_protocol cmd p =
  if Paxi_protocols.Registry.find p = None then begin
    Printf.eprintf "%s: unknown protocol %S (known: %s)\n" cmd p
      (String.concat ", " Paxi_protocols.Registry.names);
    exit 2
  end

(* ------------------------------------------------------------------ *)
(* nemesis subcommand                                                  *)
(* ------------------------------------------------------------------ *)

(* Randomized fault-schedule campaigns (or a single replayed repro)
   against the named protocols; exits non-zero when any trial fails,
   printing a shrunk one-line repro for each failure. *)
let nemesis_main protocols trials seed max_faults n relay_groups shards arrival
    read_ratio read_path durable skew json replay =
  let durable = Option.map durable_cfg durable in
  let protocols =
    match List.concat protocols with
    | [] -> Paxi_protocols.Registry.names
    | ps ->
        List.iter (check_protocol "nemesis") ps;
        ps
  in
  List.iter
    (fun protocol ->
      check_config "nemesis"
        (Nemesis.Trial.config ?n ?read_path ?relay_groups ?durable ~protocol
           ~seed ()))
    protocols;
  (* lease campaigns always face the clock-skew fault: skew is what a
     lease's expiry margin defends against, so a lease run that never
     sees it would be vacuous *)
  let skew =
    skew || (match read_path with Some (Config.Lease _) -> true | _ -> false)
  in
  match replay with
  | Some schedule ->
      let failed = ref false in
      List.iter
        (fun protocol ->
          let v =
            Nemesis.Trial.run ?n ?read_ratio ?read_path ?relay_groups ?shards
              ?arrival ?durable ~protocol ~seed schedule
          in
          if not v.Nemesis.Trial.ok then failed := true;
          Printf.printf "nemesis %s seed %d: %s (%d completed, %d gave up)\n"
            protocol seed
            (if v.Nemesis.Trial.ok then "ok"
             else String.concat "; " v.Nemesis.Trial.reasons)
            v.Nemesis.Trial.completed v.Nemesis.Trial.gave_up)
        protocols;
      if !failed then exit 1
  | None ->
      let reports =
        List.map
          (fun protocol ->
            Nemesis.Campaign.run ~protocol ~trials ~seed ~max_faults ?n
              ?read_ratio ?read_path ?relay_groups ?shards ?arrival ?durable
              ~skew ())
          protocols
      in
      if json then
        print_endline
          (Json.to_string
             (Json.List (List.map Nemesis.Campaign.to_json reports)))
      else
        List.iter (fun r -> Format.printf "%a" Nemesis.Campaign.pp r) reports;
      if List.exists (fun r -> r.Nemesis.Campaign.failures <> []) reports then
        exit 1

let nemesis_term =
  let replay =
    Arg.conv'
      ( Nemesis.Schedule.of_string,
        fun ppf s -> Format.pp_print_string ppf (Nemesis.Schedule.to_string s)
      )
  in
  Term.(
    const nemesis_main
    $ Arg.(
        value
        & opt_all (list string) []
        & info [ "protocol" ] ~docv:"NAME[,NAME..]"
            ~doc:"Protocols to test (default: all).")
    $ Arg.(value & opt (int_from 1) 8 & info [ "trials" ] ~docv:"N")
    $ Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N")
    $ Arg.(value & opt (int_from 1) 4 & info [ "max-faults" ] ~docv:"N")
    $ int_opt [ "n"; "nodes" ] ~doc:"Cluster size."
    $ int_opt [ "relay-groups" ] ~doc:"Relay groups per broadcast."
    $ int_opt [ "shards" ] ~doc:"Independent consensus groups."
    $ arrival_arg $ read_ratio_arg $ read_path_arg $ durable_arg
    $ Arg.(value & flag & info [ "skew" ] ~doc:"Add the clock-skew fault.")
    $ Arg.(value & flag & info [ "json" ] ~doc:"Print the reports as JSON.")
    $ Arg.(
        value
        & opt (some replay) None
        & info [ "replay" ] ~docv:"SCHEDULE_JSON"
            ~doc:"Replay one schedule instead of a campaign."))

(* ------------------------------------------------------------------ *)
(* dissect subcommand                                                  *)
(* ------------------------------------------------------------------ *)

(* A measured-vs-model table row, with the relative error *)
let model_row name meas model =
  [
    name;
    Report.fms meas;
    Report.fms model;
    (if model > 0.0 then
       Printf.sprintf "%+.1f%%" (100.0 *. (meas -. model) /. model)
     else "-");
  ]

let model_header = [ "term"; "measured (ms)"; "model (ms)"; "rel err" ]

(* Latency dissection: run one traced open-loop point and print the
   measured wait/service/network breakdown next to the analytic
   model's Wq + ts + DL + DQ decomposition (§3.3). *)
let dissect_main protocol load n_flag relay_groups shards arrival read_ratio
    read_path durable trace_file quick =
  let durable = Option.map durable_cfg durable in
  check_protocol "dissect" protocol;
  let n = Option.value n_flag ~default:5 in
  let configure c =
    { c with Config.tracing = true; relay_groups; read_path; storage = durable }
  in
  check_config "dissect" (configure (Config.default ~n_replicas:n));
  let node = Service.default_node ~n in
  let model_proto =
    match protocol with
    | ("paxos" | "raft") when relay_groups > 0 ->
        Some (Latency_model.Paxos_relay { groups = relay_groups })
    | "paxos" | "raft" -> Some Latency_model.Paxos
    | "fpaxos" ->
        Some (Latency_model.Fpaxos { q2 = Paxi_protocols.Fpaxos.default_q2 ~n })
    | "epaxos" -> Some (Latency_model.Epaxos { conflict = 0.0 })
    | _ -> None
  in
  (* Offered load as a fraction of the modeled saturation point; when
     the protocol has no analytic model, scale off plain Paxos. *)
  let cap =
    Latency_model.lan_max_throughput
      (Option.value model_proto ~default:Latency_model.Paxos)
      ~node
  in
  let rate =
    match read_path with
    | Some Config.Quorum ->
        (* a quorum read costs two broadcast rounds at the leader, and
           quorum-mode writes defer their acks behind CommitAcks — the
           write-path capacity estimate is ~4x too optimistic here, so
           derate the offered load to keep the zero-queue read model
           comparable *)
        load *. cap /. 4.0
    | _ -> load *. cap
  in
  (* each group brings its own leader, so the offered load scales with
     the shard count; per-group load stays at --load of capacity *)
  let rate = rate *. float_of_int shards in
  (* a real fsync puts the storage device on the commit path: its
     service rate (one fsync per commit under sync=every, one per
     group-commit window under batched — bounded the same way) caps
     the deployment well below the CPU model's knee, so scale the
     offered load off the disk ceiling instead *)
  let rate =
    match durable with
    | Some { Storage.sync_mode = Storage.Sync_none; _ } | None -> rate
    | Some c ->
        Float.min rate (load *. 1000.0 /. Float.max 1e-9 c.Storage.fsync_ms)
  in
  (* --read-path implies a read-heavy mix unless --read-ratio says
     otherwise; no read flags leaves the write-path point (and its
     seed) exactly as before *)
  let read_ratio =
    if read_ratio = None && read_path <> None then Some 0.95 else read_ratio
  in
  let seed =
    (* big-n / relay / sharded / custom-arrival / durable points get
       their own seed families; the default n=5 direct seeds stay
       exactly as before *)
    if durable <> None then
      point_seed
        ("dissect", protocol, load, "durable", recovery_mode_tag durable)
    else if shards > 1 || arrival <> None then
      point_seed ("dissect", protocol, load, "shards", shards)
    else
      match (n_flag, relay_groups) with
      | None, 0 -> (
          match (read_ratio, read_path) with
          | None, None -> point_seed ("dissect", protocol, load)
          | r, p -> point_seed ("dissect", protocol, load, r, read_path_tag p))
      | _, g -> point_seed ("dissect", protocol, load, n, g)
  in
  let workload =
    match read_ratio with
    | Some r -> { Workload.default with Workload.write_ratio = 1.0 -. r }
    | None -> Workload.default
  in
  Report.section
    (Printf.sprintf "Latency dissection: %s at %.0f%% of modeled capacity \
                     (%.0f rps offered)"
       protocol (100.0 *. load) rate);
  let result =
    point ~quick ~n ~seed ~configure
      ~sharding:{ Runner.shards; partition = `Hash }
      protocol
      [ (* straight to the serving node, as the model's DL assumes:
           the leader, or the tail for chain tail reads. Leaderless
           protocols have no serving node: the EPaxos model prices a
           round led by each replica, and one replica leading every
           round saturates well below the load scaled off the model. *)
        Runner.clients
          ~target:
            (match read_path with
            | Some Config.Tail -> Runner.Fixed (n - 1)
            | _ when protocol = "epaxos" || protocol = "abd" ->
                Runner.Round_robin
            | _ -> Runner.Fixed 0)
          ~arrival:
            (Arrival.split ~count:4
               (Option.value arrival
                  ~default:(Runner.Open { rate_per_sec = rate })))
          ~count:4 workload ]
  in
  if shards > 1 then
    Printf.printf
      "(%d hash-partitioned groups; the trace, breakdown and model terms \
       below cover shard 0's group at its per-group load)\n"
      shards;
  let tr = result.Runner.trace in
  let e2e = Paxi_obs.Trace.e2e tr in
  let requests = Stats.count e2e in
  if requests = 0 then begin
    prerr_endline "dissect: no requests completed inside the measured window";
    exit 1
  end;
  let e2e_mean = Stats.mean e2e in
  (* client RTT, measured on every request's first and last hop *)
  let dl_meas =
    Stats.mean (Paxi_obs.Trace.net_in tr) +. Stats.mean (Paxi_obs.Trace.net_out tr)
  in
  let components = Paxi_obs.Trace.components tr in
  let sum_means =
    List.fold_left (fun acc (_, s) -> acc +. Stats.mean s) 0.0 components
  in
  Report.print_table
    ~header:[ "component"; "mean (ms)"; "p99 (ms)"; "share" ]
    ~rows:
      (List.map
         (fun (name, s) ->
           [
             name;
             Report.fms (Stats.mean s);
             Report.fms (Stats.percentile s 99.0);
             Printf.sprintf "%5.1f%%" (100.0 *. Stats.mean s /. e2e_mean);
           ])
         components
      @ [
          [ "sum of components"; Report.fms sum_means; ""; "" ];
          [ "end-to-end"; Report.fms e2e_mean; Report.fms (Stats.percentile e2e 99.0); "" ];
        ]);
  let read_mode = read_ratio <> None || read_path <> None in
  let sum_err = Float.abs (sum_means -. e2e_mean) /. e2e_mean in
  Printf.printf "components sum to %s of the measured mean (%d requests)\n"
    (Printf.sprintf "%.3f%%" (100.0 *. (1.0 -. sum_err)))
    requests;
  if sum_err > 0.01 then begin
    if read_mode then
      (* fast-path reads skip the propose/quorum stages, so the staged
         component means no longer telescope against the blended e2e *)
      print_endline
        "(component means mix fast-path reads with staged writes; telescope \
         check skipped)"
    else begin
      prerr_endline "dissect: breakdown does not telescope to end-to-end (>1%)";
      exit 1
    end
  end;
  (* model comparison *)
  (match model_proto with
  | _ when read_mode ->
      (* the write-path table below assumes every request rode the slot
         log; the read-path comparison happens in its own section *)
      ()
  | None ->
      Printf.printf "(no analytic model for %s; measured breakdown only)\n"
        protocol
  | Some proto -> (
      let rng = Rng.create ~seed:44 in
      match
        Latency_model.lan_breakdown ?durable proto ~node
          ~lan:Latency_model.default_lan ~rng
          ~lambda_rps:(rate /. float_of_int shards)
      with
      | None -> print_endline "(model saturated at this load)"
      | Some b ->
          (* every run dissects shard 0's group (the only one when
             unsharded): its trace, its busiest replica, per-group
             offered load for the model *)
          let leader = result.Runner.shard_stats.(0).Runner.shard_leader in
          let wq_meas = per (Paxi_obs.Trace.node_wait_ms tr leader) requests in
          let ts_meas = per (Paxi_obs.Trace.node_busy_ms tr leader) requests in
          let dq_meas =
            let c = Paxi_obs.Trace.quorum_wait tr in
            if Stats.count c > 0 then Stats.mean c
            else Stats.mean (Paxi_obs.Trace.server_residency tr)
          in
          let who = if relay_groups > 0 then "busiest" else "leader" in
          (* the mean wait from a sync to its continuation (device
             queue and group-commit window included) against the
             model's durability term; 0 when storage is off or never
             on the measured path *)
          let fsync_meas =
            per result.Runner.storage_sync_wait_ms result.Runner.storage_syncs
          in
          Report.print_table ~header:model_header
            ~rows:
              ([
                 model_row
                   (Printf.sprintf "queue wait Wq (%s)" who)
                   wq_meas b.Latency_model.wq_ms;
                 model_row
                   (Printf.sprintf "service ts (%s)" who)
                   ts_meas b.Latency_model.service_ms;
                 model_row "client net DL" dl_meas b.Latency_model.dl_ms;
                 model_row "quorum DQ" dq_meas b.Latency_model.dq_ms;
               ]
              @ (if durable <> None then
                   [ model_row "fsync Dfsync" fsync_meas b.Latency_model.durability_ms ]
                 else [])
              @ [ model_row "total" e2e_mean b.Latency_model.total_ms ]);
          print_endline
            "(measured leader wait/occupancy include every message at the \n\
             busiest node — heartbeats and quorum replies, not only the \n\
             request itself — so small positive errors are expected)";
          (match durable with
          | Some { Storage.sync_mode = Storage.Sync_none; _ } | None -> ()
          | Some { Storage.sync_mode; _ } ->
              (* CI's storage-smoke gate: paxos under per-sync fsyncs
                 must land on the M/D/1 device term. Other protocols
                 and group commit print ungated (ROADMAP model item). *)
              let gated =
                protocol = "paxos" && sync_mode = Storage.Sync_every
              in
              let err =
                Float.abs (fsync_meas -. b.Latency_model.durability_ms)
                /. Float.max 1e-9 b.Latency_model.durability_ms
              in
              Printf.printf "fsync term rel err: %.2f%% (%d syncs%s)\n"
                (100.0 *. err) result.Runner.storage_syncs
                (if gated then "" else ", ungated");
              if gated && err > 0.05 then begin
                prerr_endline
                  "dissect: fsync term off the model by more than 5%";
                exit 1
              end);
          if relay_groups > 0 then begin
            (* the relay tree's internal latency: first member delivery
               at the relay to combined-ack departure, against the
               model's worst-member-RTT + touch term (DESIGN.md §12) *)
            let hops = Paxi_obs.Trace.relay_hops tr in
            let hop_meas = Stats.mean (Paxi_obs.Trace.relay_hop_ms tr) in
            let hop_model =
              Latency_model.relay_hop_lan ~lan:Latency_model.default_lan ~n
                ~groups:relay_groups ~rng:(Rng.create ~seed:46)
            in
            Printf.printf
              "relay hop (aggregate span over %d hops): measured %s ms, \
               model %s ms (%+.1f%%)\n"
              hops
              (Report.fms hop_meas)
              (Report.fms hop_model)
              (100.0 *. (hop_meas -. hop_model) /. hop_model)
          end));
  (* read-path dissection: measured read/write split, fast-read count,
     and the read terms against Latency_model.read_breakdown *)
  (if read_mode then begin
     let reads = Paxi_obs.Trace.read_e2e tr in
     let writes = Paxi_obs.Trace.write_e2e tr in
     let fast = Paxi_obs.Trace.fast_reads tr in
     Printf.printf
       "reads: %d (%d served off the fast path), writes: %d, read_ratio %s\n"
       (Stats.count reads) fast (Stats.count writes)
       (match read_ratio with Some r -> Printf.sprintf "%.2f" r | None -> "-");
     let read_kind =
       match read_path with
       | Some (Config.Lease _) -> Some Latency_model.Local_read
       | Some Config.Quorum -> Some Latency_model.Quorum_read
       | Some Config.Tail -> Some Latency_model.Tail_read
       | None -> None
     in
     match read_kind with
     | None ->
         print_endline
           "(no --read-path: reads ride the slot log, so the write-path \
            model above is the read model too)"
     | Some _ when Stats.count reads = 0 ->
         prerr_endline
           "dissect: no reads completed inside the measured window";
         exit 1
     | Some kind ->
         let rng = Rng.create ~seed:45 in
         let rb =
           Latency_model.read_breakdown kind ~node
             ~lan:Latency_model.default_lan ~rng
         in
         let read_mean = Stats.mean reads in
         Report.section
           (Printf.sprintf "Read path: %s measured vs model"
              (Latency_model.read_kind_name kind));
         (* the remainder of a fast read past the client RTT is serve
            time (plus the quorum rounds for ABD reads), which the
            model prices as service + DQ *)
         Report.print_table ~header:model_header
           ~rows:
             [
               model_row "client net DL" dl_meas rb.Latency_model.dl_ms;
               model_row "serve + quorum (residual)" (read_mean -. dl_meas)
                 (rb.Latency_model.service_ms +. rb.Latency_model.dq_ms);
               model_row "read end-to-end" read_mean rb.Latency_model.total_ms;
             ];
         if Stats.count writes > 0 then
           Printf.printf
             "write e2e mean %s ms — a fast read saves %.1f%% of the write \
              path\n"
             (Report.fms (Stats.mean writes))
             (100.0 *. (1.0 -. (read_mean /. Stats.mean writes)))
   end);
  (* warmup-aware time series *)
  let series = Paxi_obs.Trace.series tr in
  let from_ms, _ = Paxi_obs.Trace.window tr in
  Report.print_table
    ~header:[ "bucket (ms)"; "completions"; "mean lat (ms)"; "" ]
    ~rows:
      (List.map
         (fun (start, count, mean) ->
           [
             Printf.sprintf "%.0f" start;
             string_of_int count;
             Report.fms mean;
             (if start < from_ms then "warmup" else "");
           ])
         series);
  Report.print_table
    ~header:[ "message type"; "sent" ]
    ~rows:
      (List.map
         (fun (label, count) -> [ label; string_of_int count ])
         (Paxi_obs.Trace.message_counts tr));
  match trace_file with
  | None -> ()
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            (Json.to_string (Paxi_obs.Trace.to_chrome_json tr)));
      Printf.printf "wrote %d spans to %s (open in chrome://tracing)\n"
        (Paxi_obs.Trace.span_count tr)
        path

let dissect_term =
  Term.(
    const dissect_main
    $ Arg.(value & opt string "paxos" & info [ "protocol" ] ~docv:"NAME")
    $ Arg.(
        value
        & opt (float_where ~expects:"a fraction in (0,1)" (fun f ->
                   f > 0.0 && f < 1.0))
            0.6
        & info [ "load" ] ~docv:"FRAC"
            ~doc:"Offered load as a fraction of modeled capacity.")
    $ int_opt ~from:3 [ "n"; "nodes" ] ~doc:"Cluster size (default 5)."
    $ Arg.(value & opt (int_from 0) 0 & info [ "relay-groups" ] ~docv:"N")
    $ Arg.(value & opt (int_from 1) 1 & info [ "shards" ] ~docv:"N")
    $ arrival_arg $ read_ratio_arg $ read_path_arg $ durable_arg
    $ Arg.(
        value
        & opt (some string) None
        & info [ "trace" ] ~docv:"FILE" ~doc:"Write a Chrome trace to FILE.")
    $ quick_arg)

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

(* the analytic experiments have no shortened mode *)
let model f (_ : bool) = f ()

(* (name, summary, run, in the run-everything default); the rest are
   runnable by name only *)
let experiments =
  [
    ("table1", "Queue waiting-time models.", model table1, true);
    ("fig3", "Intra-region RTT distribution.", model fig3, true);
    ("fig4", "Queueing models vs measured Paxos.", fig4, true);
    ("fig7", "Paxos vs Raft on a 9-replica LAN.", fig7, true);
    ("fig8", "Modeled LAN latency vs throughput.", model fig8, true);
    ("fig9", "Measured LAN latency vs throughput.", fig9, true);
    ("fig10", "Modeled WAN latency vs throughput.", model fig10, true);
    ("fig11", "Per-region latency vs conflict ratio.", fig11, true);
    ("fig12", "Modeled EPaxos capacity vs conflict ratio.", model fig12, true);
    ("fig13", "Locality workload across five regions.", fig13, true);
    ("fig14", "Table 4 and the protocol selection flowchart.", model fig14, true);
    ("formulas", "Section 6 load, capacity and latency formulas.", model formulas, true);
    ("scalability", "Throughput vs cluster and key-space size.", scalability, true);
    ("availability", "Throughput timeline across a leader crash.", availability, true);
    ("ycsb", "YCSB core workloads.", ycsb, true);
    ("openloop", "Poisson arrivals vs the M/D/1 model.", openloop, true);
    ("reads", "Read paths vs the write path.", reads, true);
    ("ablate-thrifty", "Thrifty quorums on and off.", ablate_thrifty, true);
    ("ablate-commit", "Piggybacked vs explicit commit.", ablate_commit, true);
    ("ablate-penalty", "EPaxos dependency-bookkeeping penalty.", ablate_penalty, true);
    ("scale", "Relay trees vs cluster size; writes BENCH_pr8.json.", scale, false);
    ("shard", "Sharded saturation; writes BENCH_pr9.json.", shard, false);
    ("recovery", "Durability tax and crash recovery; writes BENCH_pr10.json.", recovery, false);
  ]

let () =
  let experiment (name, doc, run, _) =
    Cmd.v (Cmd.info name ~doc) Term.(const run $ quick_arg)
  in
  let default_set quick =
    List.iter (fun (_, _, run, in_default) -> if in_default then run quick)
      experiments
  in
  let cmds =
    List.map experiment experiments
    @ [
        Cmd.v
          (Cmd.info "nemesis" ~doc:"Randomized fault-schedule campaigns.")
          nemesis_term;
        Cmd.v
          (Cmd.info "dissect" ~doc:"Measured latency breakdown vs the model.")
          dissect_term;
      ]
  in
  exit
    (Cmd.eval ~catch:false
       (Cmd.group
          ~default:Term.(const default_set $ quick_arg)
          (Cmd.info "main.exe"
             ~doc:"Regenerate the paper's tables and figures. With no \
                   command, runs every experiment except scale, shard and \
                   recovery.")
          cmds))
