(* The benchmark's workloads. Each is one paxos deployment on the LAN
   topology's default delay (normal RTT, mean 0.4271 ms, sigma
   0.0476 ms, half per hop); the seed sets [Config.seed] and nothing
   else, so fault schedules are the same for every seed. *)

open Paxi_benchmark

type t = {
  name : string;
  spec : ?duration_ms:float -> seed:int -> unit -> Runner.spec;
      (** the deployment and its clients; [duration_ms] overrides the
          measured window (tests use short windows) *)
}

let paxos = Paxi_protocols.Registry.find_exn "paxos"

(* The heaviest event-loop, transport and quorum load per op (about
   200 events per op), and the only workload on the relay layer. No
   storage, sharding, batching or lease reads. *)
let relay_n49 =
  {
    name = "relay-n49";
    spec =
      (fun ?(duration_ms = 600.0) ~seed () ->
        let n = 49 in
        Runner.spec ~warmup_ms:300.0 ~duration_ms ~cooldown_ms:50.0
          ~collect_history:true
          ~config:{ (Config.default ~n_replicas:n) with Config.seed; relay_groups = 6 }
          ~topology:(Topology.lan ~n_replicas:n ())
          ~client_specs:
            [ Runner.clients ~target:Runner.Round_robin ~count:64 Workload.default ]
          ());
  }

(* Shard routing, the arrival generator, batching, and lease reads that
   skip the log beside writes that use it. No relay or storage. 80k
   ops/s in total is about 0.6 of the rate where p99 starts to climb
   for K = 4 groups of 3. 60% of ops are reads: at 50% the median sits
   between the read and the write mode and jumps between them from
   seed to seed. *)
let shard4_lease_rate = 80_000.0

let shard4_lease =
  {
    name = "shard4-lease";
    spec =
      (fun ?(duration_ms = 1_000.0) ~seed () ->
        let n = 3 and clients = 16 in
        let config =
          {
            (Config.default ~n_replicas:n) with
            Config.seed;
            client_timeout_ms = 6_000.0;
            read_path = Some (Config.Lease { margin_ms = 300.0 });
            batching = Some { Config.max_batch = 8; max_wait_ms = 0.05 };
          }
        in
        Runner.spec ~warmup_ms:300.0 ~duration_ms ~cooldown_ms:50.0
          ~collect_history:true ~config
          ~topology:(Topology.lan ~n_replicas:n ())
          ~sharding:{ Runner.shards = 4; partition = `Hash }
          ~client_specs:
            [
              Runner.clients ~target:(Runner.Fixed 0)
                ~arrival:
                  (Runner.Open
                     { rate_per_sec = shard4_lease_rate /. float_of_int clients })
                ~count:clients
                { Workload.default with Workload.write_ratio = 0.4 };
            ]
          ());
  }

(* The only workload with storage, timer mass-cancel, recovery replay
   and failover. Leader (replica 0) down for 1 s at 20% of the window,
   follower 3 for 1 s at 60%; both recover from their durable image.
   Retransmission stays off: with it armed, the same crash tips into a
   retransmit storm (see README.md). *)
let crash_schedule ~warmup_ms ~duration_ms faults =
  let at share = warmup_ms +. (share *. duration_ms) in
  Faults.crash faults ~node:(Address.replica 0) ~from_ms:(at 0.2) ~duration_ms:1_000.0;
  Faults.crash faults ~node:(Address.replica 3) ~from_ms:(at 0.6) ~duration_ms:1_000.0

let durable_crash =
  {
    name = "durable-crash";
    spec =
      (fun ?(duration_ms = 40_000.0) ~seed () ->
        let n = 5 and clients = 16 and warmup_ms = 1_000.0 in
        let config =
          {
            (Config.default ~n_replicas:n) with
            Config.seed;
            storage =
              Some { Storage.default_config with Storage.sync_mode = Storage.Sync_every };
          }
        in
        Runner.spec ~warmup_ms ~duration_ms ~cooldown_ms:1_000.0
          ~collect_history:true ~config
          ~topology:(Topology.lan ~n_replicas:n ())
          ~faults:(crash_schedule ~warmup_ms ~duration_ms)
          ~client_specs:
            [
              Runner.clients ~target:Runner.Round_robin
                ~arrival:(Runner.Open { rate_per_sec = 800.0 /. float_of_int clients })
                ~count:clients Workload.default;
            ]
          ());
  }

let all = [ relay_n49; shard4_lease; durable_crash ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

(* [build spec] prepares one build of the workload's deployment and
   returns it as a thunk: calling it is what [setup_s] times. *)
let build (spec : Runner.spec) =
  let (module P) = paxos in
  let faults = Faults.create () in
  Option.iter (fun install -> install faults) spec.Runner.faults;
  let config = spec.Runner.config and topology = spec.Runner.topology in
  match spec.Runner.sharding with
  | None ->
      let module C = Cluster.Make (P) in
      fun () -> ignore (C.create ~faults ~config ~topology ())
  | Some { Runner.shards; partition } ->
      let module S = Paxi_shard.Shard.Make (P) in
      let partitioner =
        Paxi_shard.Partitioner.make partition ~shards ~min_key:0
          ~keys:Workload.default.Workload.keys
      in
      fun () -> ignore (S.create ~faults ~config ~topology ~partitioner ())
