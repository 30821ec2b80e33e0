(* Shared driving harness for per-protocol tests: build a small
   cluster, push sequences of commands through closed-loop test
   clients with retry, and inspect replica state afterwards. *)

(* The env of a replica [id] of [n] that sends nothing: for driving one
   module (a log, a relay) by hand. [reply] sees every client answer. *)
let quiet_env ?(reply = fun _ _ -> ()) ~n id =
  let sim = Sim.create () in
  {
    Proto.id;
    n;
    config = Config.default ~n_replicas:n;
    topology = Topology.lan ~n_replicas:n ();
    rng = Rng.create ~seed:0;
    now = (fun () -> Sim.now sim);
    clock = Proto.sim_clock sim ~id;
    schedule = (fun delay f -> Sim.schedule_after sim ~delay f);
    cancel = Sim.cancel sim;
    send = (fun _ _ -> ());
    broadcast = ignore;
    multicast = (fun _ _ -> ());
    send_sized = (fun _ ~size_bytes:_ _ -> ());
    broadcast_sized = (fun ~size_bytes:_ _ -> ());
    multicast_sized = (fun _ ~size_bytes:_ _ -> ());
    reply;
    forward = (fun _ ~client:_ _ -> ());
    rel = Proto.null_rel ();
    obs = Proto.null_obs;
    storage = None;
  }

module Make (P : Proto.RUNNABLE) = struct
  module C = Cluster.Make (P)

  type t = {
    cluster : C.t;
    sim : Sim.t;
    faults : Faults.t;
    config : Config.t;
    mutable next_client : int;
    next_cmd : (int, int) Hashtbl.t;
        (* per client, the id of its next command: ids never repeat, so
           the executor's exactly-once memo never answers a new command *)
    mutable history : Paxi_benchmark.Linearizability.op list;
        (* every operation [submit_seq] completed, newest first *)
  }

  (* [schedule] is installed before the cluster exists, so durable
     clusters see its crash windows as real crash/recovery edges. *)
  let make ?config ?(schedule = []) ~topology () =
    let n = Topology.n_replicas topology in
    let config = match config with Some c -> c | None -> Config.default ~n_replicas:n in
    let faults = Faults.create () in
    Paxi_nemesis.Schedule.install schedule ~n faults;
    let cluster = C.create ~faults ~config ~topology () in
    {
      cluster;
      sim = C.sim cluster;
      faults;
      config;
      next_client = 0;
      next_cmd = Hashtbl.create 8;
      history = [];
    }

  let lan ?config ~n () = make ?config ~topology:(Topology.lan ~n_replicas:n ()) ()

  (* Three regions, three replicas each: the paper's 9-node WAN. *)
  let wan3 ?config ?schedule () =
    make ?config ?schedule
      ~topology:
        (Topology.wan
           ~regions:[ Region.virginia; Region.ohio; Region.california ]
           ~replicas_per_region:3 ())
      ()

  let replica t i = C.replica t.cluster i
  let sim t = t.sim
  let faults t = t.faults
  let leader_of_key t ~replica key = C.leader_of_key t.cluster ~replica key

  let new_client ?region t =
    let id = t.next_client in
    t.next_client <- id + 1;
    (match region with
    | Some r -> C.register_client t.cluster ~id ~region:r ()
    | None -> C.register_client t.cluster ~id ());
    id

  (* Issue [ops] one at a time from [client], retrying with rotating
     targets on timeout; returns the replies in order. Runs the
     simulation as far as needed (bounded by [deadline_ms]). *)
  let submit_seq ?(deadline_ms = 120_000.0) ?client ?(target = 0) t ops =
    let client = match client with Some c -> c | None -> new_client t in
    let n = t.config.Config.n_replicas in
    let replies = ref [] in
    let rec issue pending =
      match pending with
      | [] -> ()
      | (id, op) :: rest ->
          let command = Command.make ~id ~client op in
          let invoked_ms = Sim.now t.sim in
          let rec attempt k =
            C.submit t.cluster ~client ~target:((target + k) mod n) ~command
              ~on_reply:(fun reply ->
                replies := reply :: !replies;
                t.history <-
                  {
                    Paxi_benchmark.Linearizability.client;
                    op_id = id;
                    key = Command.key command;
                    kind =
                      (match op with
                      | Command.Put (_, v) -> Paxi_benchmark.Linearizability.Write v
                      | Command.Delete _ -> Paxi_benchmark.Linearizability.Del
                      | Command.Get _ -> Paxi_benchmark.Linearizability.Read reply.Proto.read);
                    invoked_ms;
                    responded_ms = Sim.now t.sim;
                  }
                  :: t.history;
                issue rest);
            ignore
            @@ Sim.schedule_after t.sim ~delay:t.config.Config.client_timeout_ms
                 (fun () ->
                   if C.pending t.cluster ~client ~command && k < 50 then
                     attempt (k + 1))
          in
          attempt 0
    in
    let first = Option.value (Hashtbl.find_opt t.next_cmd client) ~default:0 in
    Hashtbl.replace t.next_cmd client (first + List.length ops);
    ignore
      (Sim.schedule_at t.sim ~time:(Sim.now t.sim) (fun () ->
           issue (List.mapi (fun i op -> (first + i, op)) ops)));
    (* Step event-by-event and stop as soon as the last reply lands, so
       the virtual clock after this call reflects completion time. *)
    let want = List.length ops in
    let deadline = Sim.now t.sim +. deadline_ms in
    let continue = ref true in
    while !continue do
      if List.length !replies >= want || Sim.now t.sim >= deadline then
        continue := false
      else if not (Sim.step t.sim) then continue := false
    done;
    List.rev !replies

  let run_for t ms = Sim.run_until t.sim (Sim.now t.sim +. ms)

  let state_machine t i = Executor.state_machine (P.executor (replica t i))

  let applied_commands t i =
    List.filter
      (fun c -> not (Command.is_noop c))
      (State_machine.applied (state_machine t i))

  (* Common safety assertion: every pair of replicas agrees on a
     common prefix of every key's version history. Hierarchical
     protocols (WanKeeper, VPaxos) replicate only within a zone group,
     so pass [replicas] to scope the check to one group's members. *)
  let assert_consistent ?(msg = "replica histories agree") ?replicas t =
    let members =
      match replicas with
      | Some l -> l
      | None -> List.init t.config.Config.n_replicas Fun.id
    in
    let sms = List.map (fun i -> (i, state_machine t i)) members in
    let keys = Hashtbl.create 16 in
    List.iter
      (fun (_, sm) ->
        List.iter
          (fun k -> if k >= 0 then Hashtbl.replace keys k ())
          (Kv.keys (State_machine.store sm)))
      sms;
    let violations =
      Paxi_benchmark.Consensus_check.check ~state_machines:sms
        ~keys:(Hashtbl.fold (fun k () acc -> k :: acc) keys [])
    in
    Alcotest.(check int) msg 0 (List.length violations)
end
