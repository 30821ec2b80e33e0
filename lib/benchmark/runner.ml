type target = Nearest | Fixed of int | Round_robin

type arrival = Arrival.t =
  | Closed
  | Open of { rate_per_sec : float }
  | Bursty of { rate_per_sec : float; on_ms : float; off_ms : float }

type sharding = { shards : int; partition : Paxi_shard.Partitioner.kind }

type client_spec = {
  region : Region.t option;
  count : int;
  target : target;
  arrival : arrival;
  workload : Workload.t;
}

let clients ?region ?(target = Nearest) ?(arrival = Closed) ~count workload =
  { region; count; target; arrival; workload }

let lan_zones = [ "az-a"; "az-b"; "az-c" ]

let lan_topology ~zoned n =
  if zoned then
    Topology.custom
      ~replica_regions:
        (List.concat_map
           (fun z -> List.init (n / 3) (fun _ -> Region.make z))
           lan_zones)
      ~rtt_ms:(fun _ _ -> 0.4271)
      ~jitter:0.02 ()
  else Topology.lan ~n_replicas:n ()

let lan_clients ?arrival ~zoned ~count workload =
  if zoned then
    List.map
      (fun z ->
        clients ~region:(Region.make z) ~target:Round_robin ?arrival
          ~count:(Stdlib.max 1 (count / 3))
          workload)
      lan_zones
  else [ clients ~target:Round_robin ?arrival ~count workload ]

type spec = {
  config : Config.t;
  topology : Topology.t;
  client_specs : client_spec list;
  warmup_ms : float;
  duration_ms : float;
  cooldown_ms : float;
  max_retries : int;
  collect_history : bool;
  check_consensus : bool;
  faults : (Faults.t -> unit) option;
  sharding : sharding option;
}

let spec ?(warmup_ms = 1_000.0) ?(duration_ms = 10_000.0)
    ?(cooldown_ms = 1_000.0) ?(max_retries = 10) ?(collect_history = false)
    ?(check_consensus = false) ?faults ?sharding ~config ~topology
    ~client_specs () =
  {
    config;
    topology;
    client_specs;
    warmup_ms;
    duration_ms;
    cooldown_ms;
    max_retries;
    collect_history;
    check_consensus;
    faults;
    sharding;
  }

type shard_stat = {
  shard_completed : int;
  shard_throughput_rps : float;
  shard_latency : Stats.t;
  shard_leader : int;
  shard_leader_busy_ms : float;
}

type result = {
  throughput_rps : float;
  latency : Stats.t;
  read_latency : Stats.t;
  write_latency : Stats.t;
  per_region : (Region.t * Stats.t) list;
  shard_stats : shard_stat array;
  completed : int;
  gave_up : int;
  history : Linearizability.op list;
  consensus_violations : Consensus_check.violation list;
  busiest_node_busy_ms : float;
  busiest_node : int;
  messages_sent : int;
  sim_events : int;
  sim_events_inlined : int;
  retransmits : int;
  dup_drops : int;
  recoveries : int;
  replay_ms_total : float;
  timers_cancelled : int;
  storage_writes : int;
  storage_fsyncs : int;
  storage_busy_ms : float;
  storage_syncs : int;
  storage_sync_wait_ms : float;
  storage_lost_writes : int;
  allocated_bytes : float;
  bytes_per_event : float;
  trace : Paxi_obs.Trace.t;
}

let kind_of_op (op : Command.op) (read : Command.value option) =
  match op with
  | Command.Put (_, v) -> Linearizability.Write v
  | Command.Delete _ -> Linearizability.Del
  | Command.Get _ -> Linearizability.Read read

(* A client's request in flight. Records are recycled through the
   client's free stack: one serves every attempt of its command, and
   its two callbacks are built once, when the record is. [invoked] is
   a 1-slot float array because a mutable float field of this mixed
   record would box on every store. *)
type request = {
  mutable command : Command.t;
  mutable shard : int;
  mutable attempt : int;
  mutable timeout : Sim.handle;
  invoked : float array;
  on_reply : Proto.reply -> unit;
  on_timeout : unit -> unit;
}

(* union of keys touched by any of the group's state machines *)
let touched_keys state_machines =
  let keys = Hashtbl.create 64 in
  List.iter
    (fun (_, sm) ->
      List.iter
        (fun k -> if k >= 0 then Hashtbl.replace keys k ())
        (Kv.keys (State_machine.store sm)))
    state_machines;
  Hashtbl.fold (fun k () acc -> k :: acc) keys []

let partitioner_of spec sh =
  (* the partitioned key space is the union of every client spec's
     declared key range; hash partitioning ignores the bounds *)
  let lo, hi =
    List.fold_left
      (fun (lo, hi) c ->
        ( Int.min lo c.workload.Workload.min_key,
          Int.max hi (c.workload.Workload.min_key + c.workload.Workload.keys) ))
      (max_int, min_int) spec.client_specs
  in
  let lo, hi = if lo > hi then (0, sh.shards) else (lo, hi) in
  Paxi_shard.Partitioner.make sh.partition ~shards:sh.shards ~min_key:lo
    ~keys:(hi - lo)

(* Every run is a K-shard deployment; an unsharded spec is K = 1, whose
   creation sequence and routing replay the single-cluster engine
   exactly (no RNG, no events), so fixed-seed outputs do not depend on
   whether [sharding] was given. *)
let run (module P : Proto.RUNNABLE) spec =
  let module S = Paxi_shard.Shard.Make (P) in
  let sharding =
    Option.value spec.sharding ~default:{ shards = 1; partition = `Hash }
  in
  let faults = Faults.create () in
  Option.iter (fun install -> install faults) spec.faults;
  let dep =
    S.create ~faults ~config:spec.config ~topology:spec.topology
      ~partitioner:(partitioner_of spec sharding)
      ()
  in
  let sim = S.sim dep in
  let n = spec.config.Config.n_replicas in
  let nshards = S.shards dep in
  let window_start = spec.warmup_ms in
  let window_end = spec.warmup_ms +. spec.duration_ms in
  let horizon = window_end +. spec.cooldown_ms in
  S.set_window dep ~from_ms:window_start ~until_ms:window_end;
  let latency = Stats.create () in
  let read_latency = Stats.create () in
  let write_latency = Stats.create () in
  let shard_latency = Array.init nshards (fun _ -> Stats.create ()) in
  let shard_in_window = Array.make nshards 0 in
  let per_region : (Region.t * Stats.t) list ref = ref [] in
  let region_stats region =
    match List.find_opt (fun (r, _) -> Region.equal r region) !per_region with
    | Some (_, s) -> s
    | None ->
        let s = Stats.create () in
        per_region := (region, s) :: !per_region;
        s
  in
  let completed = ref 0 in
  let in_window = ref 0 in
  let gave_up = ref 0 in
  let history = ref [] in
  let next_client_id = ref 0 in
  let timeout_ms = spec.config.Config.client_timeout_ms in
  let start_client cspec =
    let cid = !next_client_id in
    incr next_client_id;
    S.register_client dep ~id:cid ?region:cspec.region ();
    let region = Topology.region_of spec.topology (Address.client cid) in
    let gen =
      Workload.generator cspec.workload ~rng:(Rng.split (Sim.rng sim))
        ~client:cid
    in
    let rr = ref 0 in
    let pick_target ~shard ~attempt =
      match cspec.target with
      | Fixed r -> (r + attempt) mod n
      | Nearest ->
          if attempt = 0 then S.nearest_replica dep ~shard ~client:cid
          else (S.nearest_replica dep ~shard ~client:cid + attempt) mod n
      | Round_robin ->
          incr rr;
          (!rr + attempt) mod n
    in
    let op_counter = ref 0 in
    (* the client's region series, resolved at its first in-window
       completion: the moment [region_stats] used to be asked, so
       [per_region] keeps its order *)
    let region_latency = ref None in
    (* finished request records, reused by the next [issue] *)
    let free = ref [||] and nfree = ref 0 in
    let release r =
      if !nfree = Array.length !free then begin
        let grown = Array.make (Int.max 4 (2 * !nfree)) r in
        Array.blit !free 0 grown 0 !nfree;
        free := grown
      end;
      !free.(!nfree) <- r;
      incr nfree
    in
    (* [send r] is one attempt: the submit, then the attempt's timeout,
       cancelled on reply so a finished request leaves nothing in the
       event heap — the same calls, in the same order, as a request
       built from fresh closures *)
    let rec send r =
      S.submit dep ~shard:r.shard ~client:cid
        ~target:(pick_target ~shard:r.shard ~attempt:r.attempt)
        ~command:r.command ~on_reply:r.on_reply;
      r.timeout <- Sim.schedule_after sim ~delay:timeout_ms r.on_timeout
    and reply r (rep : Proto.reply) =
      Sim.cancel sim r.timeout;
      let responded = Sim.now sim in
      let invoked = r.invoked.(0) in
      incr completed;
      if invoked >= window_start && responded <= window_end then begin
        incr in_window;
        shard_in_window.(r.shard) <- shard_in_window.(r.shard) + 1;
        let l = responded -. invoked in
        Stats.add latency l;
        Stats.add
          (if Command.is_read r.command then read_latency else write_latency)
          l;
        let rs =
          match !region_latency with
          | Some s -> s
          | None ->
              let s = region_stats region in
              region_latency := Some s;
              s
        in
        Stats.add rs l;
        Stats.add shard_latency.(r.shard) l
      end;
      if spec.collect_history then
        history :=
          {
            Linearizability.client = cid;
            op_id = r.command.Command.id;
            key = Command.key r.command;
            kind = kind_of_op r.command.Command.op rep.Proto.read;
            invoked_ms = invoked;
            responded_ms = responded;
          }
          :: !history;
      release r;
      continue ()
    and expire r =
      if S.pending dep ~shard:r.shard ~client:cid ~command:r.command then
        if r.attempt < spec.max_retries then begin
          r.attempt <- r.attempt + 1;
          send r
        end
        else begin
          S.give_up dep ~shard:r.shard ~client:cid ~command:r.command;
          incr gave_up;
          release r;
          continue ()
        end
    (* [issue ()] sends one command; [continue] runs once the command
       resolves (closed loop chains the next request there; open loop
       paces on an arrival clock instead). *)
    and issue () =
      let now = Sim.now sim in
      if now < window_end then begin
        let id = !op_counter in
        incr op_counter;
        let op = Workload.next_op gen ~now_ms:now in
        let command = Command.make ~id ~client:cid op in
        let r =
          if !nfree > 0 then begin
            decr nfree;
            !free.(!nfree)
          end
          else
            let rec r =
              {
                command;
                shard = 0;
                attempt = 0;
                timeout = Sim.nil;
                invoked = [| now |];
                on_reply = (fun rep -> reply r rep);
                on_timeout = (fun () -> expire r);
              }
            in
            r
        in
        r.command <- command;
        (* routing is pure arithmetic: no RNG, no events *)
        r.shard <- S.route dep ~key:(Command.key command);
        r.attempt <- 0;
        r.invoked.(0) <- now;
        send r
      end
    and continue () =
      match cspec.arrival with Closed -> issue () | Open _ | Bursty _ -> ()
    in
    let jitter = Rng.float (Sim.rng sim) 5.0 in
    match cspec.arrival with
    | Closed ->
        (* Stagger client start a little to avoid lock-step *)
        ignore (Sim.schedule_at sim ~time:jitter issue)
    | (Open _ | Bursty _) as arrival ->
        let rng = Rng.split (Sim.rng sim) in
        let rec tick () =
          if Sim.now sim < window_end then begin
            issue ();
            let gap = Arrival.next_gap_ms arrival ~rng ~now_ms:(Sim.now sim) in
            ignore (Sim.schedule_after sim ~delay:gap tick)
          end
        in
        ignore (Sim.schedule_at sim ~time:jitter (fun () -> tick ()))
  in
  List.iter
    (fun cspec ->
      (match Arrival.validate cspec.arrival with
      | Ok () -> ()
      | Error e -> invalid_arg ("Runner.run: " ^ e));
      for _ = 1 to cspec.count do
        start_client cspec
      done)
    spec.client_specs;
  (* Allocation accounting brackets exactly the event loop: the delta
     divided by events fired is the hot path's bytes/event figure
     gated in CI. [Gc.allocated_bytes] is per-domain, and [run]
     executes wholly on one domain even under [run_many]'s pool. *)
  let alloc_before = Gc.allocated_bytes () in
  let events_before = Sim.events_fired sim in
  Sim.run_until sim horizon;
  let allocated_bytes = Gc.allocated_bytes () -. alloc_before in
  let loop_events = Sim.events_fired sim - events_before in
  let consensus_violations =
    if not spec.check_consensus then []
    else
      List.concat
        (List.init nshards (fun shard ->
             let state_machines =
               List.init n (fun i ->
                   let r = S.replica dep ~shard i in
                   (i, Executor.state_machine (P.executor r)))
             in
             Consensus_check.check ~state_machines
               ~keys:(touched_keys state_machines)))
  in
  let busiest_node, busiest_node_busy_ms = S.busiest dep in
  let messages_sent, _, _ = S.message_counts dep in
  let retransmits, dup_drops = S.retransmit_counts dep in
  let recoveries, replay_ms_total, timers_cancelled = S.recovery_counts dep in
  let storage = S.storage_totals dep in
  let shard_stats =
    Array.init nshards (fun s ->
        let shard_leader, shard_leader_busy_ms =
          S.busiest_in_shard dep ~shard:s
        in
        {
          shard_completed = shard_in_window.(s);
          shard_throughput_rps =
            float_of_int shard_in_window.(s) /. (spec.duration_ms /. 1000.0);
          shard_latency = shard_latency.(s);
          shard_leader;
          shard_leader_busy_ms;
        })
  in
  {
    throughput_rps = float_of_int !in_window /. (spec.duration_ms /. 1000.0);
    latency;
    read_latency;
    write_latency;
    per_region = List.rev !per_region;
    shard_stats;
    completed = !completed;
    gave_up = !gave_up;
    history = List.rev !history;
    consensus_violations;
    busiest_node_busy_ms;
    busiest_node;
    messages_sent;
    sim_events = Sim.events_fired sim;
    sim_events_inlined = 0;
    retransmits;
    dup_drops;
    recoveries;
    replay_ms_total;
    timers_cancelled;
    storage_writes = storage.Storage.writes;
    storage_fsyncs = storage.Storage.fsyncs;
    storage_busy_ms = storage.Storage.busy_ms;
    storage_lost_writes = storage.Storage.lost_writes;
    storage_syncs = storage.Storage.syncs;
    storage_sync_wait_ms = storage.Storage.sync_wait_ms;
    allocated_bytes;
    bytes_per_event = allocated_bytes /. float_of_int (max 1 loop_events);
    trace = S.trace dep ~shard:0;
  }

(* Stable per-point seed, splittable from a fixed root: every
   experiment point owns a seed that depends only on the root and the
   point's identity, never on which domain runs it or in what order —
   the invariant that makes pooled sweeps byte-identical to
   sequential ones. (murmur-style finalizer, 30-bit output) *)
let derive_seed ~root index =
  let mix h =
    let h = h lxor (h lsr 16) in
    let h = h * 0x85EBCA6B land max_int in
    let h = h lxor (h lsr 13) in
    let h = h * 0xC2B2AE35 land max_int in
    h lxor (h lsr 16)
  in
  mix (mix (index + 0x9E3779B9) lxor root) land 0x3FFFFFFF

let run_many ?pool points =
  Paxi_exec.Parmap.map ?pool
    (fun ((p : (module Proto.RUNNABLE)), spec) -> run p spec)
    points

let saturation_sweep ?pool p ~make_spec ~concurrencies =
  let results =
    Paxi_exec.Parmap.map ?pool
      (fun c -> run p (make_spec ~concurrency:c))
      concurrencies
  in
  List.combine concurrencies results
