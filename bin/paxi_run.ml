(* paxi_run — run one protocol under a configurable workload and
   deployment, printing latency/throughput and optional checker
   verdicts. The CLI mirrors the knobs of the paper's Table 3. *)

open Cmdliner
open Paxi_benchmark

let protocol_arg =
  let doc =
    Printf.sprintf "Protocol to run. One of: %s."
      (String.concat ", " Paxi_protocols.Registry.names)
  in
  Arg.(value & opt string "paxos" & info [ "p"; "protocol" ] ~docv:"NAME" ~doc)

let nodes_arg =
  Arg.(value & opt int 9 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Cluster size.")

let wan_arg =
  Arg.(
    value & flag
    & info [ "wan" ]
        ~doc:
          "Deploy across the paper's five AWS regions (VA, OH, CA, IR, JP) \
           instead of one LAN; node count is rounded to a multiple of the \
           region count.")

let duration_arg =
  Arg.(
    value & opt float 10.0
    & info [ "t"; "seconds" ] ~docv:"T" ~doc:"Measured duration (virtual seconds).")

let concurrency_arg =
  Arg.(
    value & opt int 16
    & info [ "c"; "concurrency" ] ~docv:"C" ~doc:"Closed-loop clients.")

let keys_arg =
  Arg.(value & opt int 1000 & info [ "k"; "keys" ] ~docv:"K" ~doc:"Key-space size.")

let writes_arg =
  Arg.(
    value & opt float 0.5
    & info [ "w"; "writes" ] ~docv:"W" ~doc:"Write ratio in [0,1].")

let conflict_arg =
  Arg.(
    value & opt float 0.0
    & info [ "conflict" ] ~docv:"P"
        ~doc:"Fraction of requests aimed at one hot key (conflict workload).")

let locality_arg =
  Arg.(
    value & flag
    & info [ "locality" ]
        ~doc:
          "Give each region its own Normal key distribution (locality \
           workload, WAN only).")

let dist_arg =
  Arg.(
    value & opt string "uniform"
    & info [ "d"; "distribution" ] ~docv:"DIST"
        ~doc:"Key distribution: uniform, zipfian, normal or exponential.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Collect the full history and run the linearizability and \
           consensus checkers at the end.")

let config_arg =
  Arg.(
    value & opt (some file) None
    & info [ "config" ] ~docv:"FILE"
        ~doc:"JSON configuration file (\u{00a7}4.1); its fields override the \
              defaults, and --nodes is ignored when it sets n_replicas.")

let crash_leader_arg =
  Arg.(
    value & opt (some float) None
    & info [ "crash-leader-at" ] ~docv:"MS"
        ~doc:"Crash replica 0 at this virtual time for 10 s (availability test).")

let dist_of_name name ~keys =
  match name with
  | "uniform" -> Ok Workload.Uniform
  | "zipfian" -> Ok (Workload.Zipfian { s = 2.0; v = 1.0 })
  | "normal" ->
      Ok
        (Workload.Normal
           {
             mu = float_of_int keys /. 2.0;
             sigma = float_of_int keys /. 6.0;
             speed_ms = 0.0;
             drift = 0.0;
           })
  | "exponential" -> Ok (Workload.Exponential { mean = float_of_int keys /. 5.0 })
  | other -> Error (Printf.sprintf "unknown distribution %S" other)

let run protocol nodes wan seconds concurrency keys writes conflict locality
    dist seed check config_file crash_at =
  match Paxi_protocols.Registry.find protocol with
  | None ->
      Printf.eprintf "unknown protocol %S (known: %s)\n" protocol
        (String.concat ", " Paxi_protocols.Registry.names);
      1
  | Some (module P) -> (
      match dist_of_name dist ~keys with
      | Error e ->
          Printf.eprintf "%s\n" e;
          1
      | Ok key_dist -> (
          let file_config =
            match config_file with
            | None -> Ok None
            | Some path -> Result.map Option.some (Config.load_file path)
          in
          match file_config with
          | Error e ->
              Printf.eprintf "config: %s\n" e;
              1
          | Ok file_config ->
          let nodes =
            match file_config with Some c -> c.Config.n_replicas | None -> nodes
          in
          let regions = Region.aws_five in
          let per_region = Stdlib.max 1 (nodes / List.length regions) in
          let nodes = if wan then per_region * List.length regions else nodes in
          let config =
            match file_config with
            | Some c -> { c with Config.n_replicas = nodes }
            | None ->
                {
                  (Config.default ~n_replicas:nodes) with
                  Config.seed;
                  master_region_index = 0;
                }
          in
          let base_workload =
            {
              Workload.default with
              Workload.keys;
              write_ratio = writes;
              dist = key_dist;
              conflict_ratio = conflict;
            }
          in
          (* reject bad flag values before anything is built from them *)
          match Result.bind (Workload.validate base_workload) (fun () ->
                    Config.validate config) with
          | Error e ->
              Printf.eprintf "%s\n" e;
              1
          | Ok () ->
          let topology =
            if wan then Topology.wan ~regions ~replicas_per_region:per_region ()
            else Topology.lan ~n_replicas:nodes ()
          in
          let client_specs =
            if wan then
              List.mapi
                (fun i region ->
                  let workload =
                    if locality then
                      Workload.with_locality base_workload ~region_index:i
                        ~regions:(List.length regions)
                    else base_workload
                  in
                  Runner.clients ~region
                    ~count:(Stdlib.max 1 (concurrency / List.length regions))
                    workload)
                regions
            else [ Runner.clients ~target:Runner.Round_robin ~count:concurrency base_workload ]
          in
          let faults =
            Option.map
              (fun at faults ->
                Faults.crash faults ~node:(Address.replica 0) ~from_ms:at
                  ~duration_ms:10_000.0)
              crash_at
          in
          let spec =
            Runner.spec ~duration_ms:(seconds *. 1000.0)
              ~collect_history:check ~check_consensus:check ?faults ~config
              ~topology ~client_specs ()
          in
          let result = Runner.run (module P) spec in
          Printf.printf "protocol   : %s\n" P.name;
          Printf.printf "deployment : %s, %d nodes\n"
            (if wan then "WAN (5 AWS regions)" else "LAN")
            nodes;
          Printf.printf "throughput : %.0f ops/s\n" result.Runner.throughput_rps;
          Format.printf "latency    : %a@." Stats.pp_summary result.Runner.latency;
          List.iter
            (fun (region, stats) ->
              Format.printf "  %-12s %a@." (Region.name region) Stats.pp_summary
                stats)
            result.Runner.per_region;
          Printf.printf "completed  : %d (gave up %d)\n" result.Runner.completed
            result.Runner.gave_up;
          Printf.printf "busiest    : replica %d (%.0f ms busy)\n"
            result.Runner.busiest_node result.Runner.busiest_node_busy_ms;
          if check then begin
            let anomalies = Linearizability.check result.Runner.history in
            Printf.printf "linearizable : %s\n"
              (if anomalies = [] then "yes"
               else Printf.sprintf "NO (%d anomalous reads)" (List.length anomalies));
            Printf.printf "consensus    : %s\n"
              (if result.Runner.consensus_violations = [] then "consistent"
               else
                 Printf.sprintf "VIOLATED (%d)"
                   (List.length result.Runner.consensus_violations))
          end;
          0))

let cmd =
  let doc = "run a replication protocol on the simulated Paxi cluster" in
  Cmd.v
    (Cmd.info "paxi_run" ~doc)
    Term.(
      const run $ protocol_arg $ nodes_arg $ wan_arg $ duration_arg
      $ concurrency_arg $ keys_arg $ writes_arg $ conflict_arg $ locality_arg
      $ dist_arg $ seed_arg $ check_arg $ config_arg $ crash_leader_arg)

let () = exit (Cmd.eval' cmd)
