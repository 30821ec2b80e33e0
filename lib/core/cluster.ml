type 'p envelope =
  | Peer of 'p
  | Request of { client : Address.t; command : Command.t }
  | Reply of Proto.reply
  | Rel of 'p Reliable.packet
      (** a protocol message under reliable-delivery bookkeeping, or
          one of the substrate's own acks *)

module Make (P : Proto.RUNNABLE) = struct
  (* The context one or more groups run over: a single virtual-time
     heap, latency matrix and fault plane. A classic deployment is one
     group; a sharded deployment instantiates K groups over one
     [shared] (lib/shard), each with its own replicas, transport,
     reliable endpoints and pending table. *)
  type shared = {
    sim : Sim.t;
    config : Config.t;
    topology : Topology.t;
    faults : Faults.t;
  }

  type t = {
    shared : shared;
    transport : P.message envelope Transport.t;
    endpoints : (P.message, P.message envelope) Reliable.t array;
    replicas : P.replica array;
    (* (client << 32) | cmd_id -> reply callback. One flat table per
       group instead of a Hashtbl of per-client Hashtbls: the packed
       int key (same trick as Reliable's dedup keys) keeps the K-group
       client path from multiplying small-table allocation. *)
    pending : (int, Proto.reply -> unit) Hashtbl.t;
    trace : Paxi_obs.Trace.t;
    (* Crash domains (Config.storage only — all three stay inert on
       memory-only clusters): per-replica timer ownership registries,
       stable-storage devices, and the down flags that hold a replica
       offline between its crash window's end and the moment log
       replay finishes. *)
    timers : Timers.t array;
    storages : Storage.t option array;
    down : bool array;
    mutable recoveries : int;
    mutable replay_ms_total : float;
  }

  let pending_key ~client ~id = (client lsl 32) lor (id land 0xFFFF_FFFF)

  let deliver_reply t cid (reply : Proto.reply) =
    if reply.command.Command.client <> cid then ()
    else
      let key = pending_key ~client:cid ~id:reply.command.Command.id in
      (* [find], not [find_opt]: no [Some] box per reply *)
      match Hashtbl.find t.pending key with
      | cb ->
          Hashtbl.remove t.pending key;
          cb reply
      | exception Not_found ->
          () (* late duplicate reply after retry already answered *)

  let make_env t transport i : P.message Proto.env =
    let addr = Address.replica i in
    let ep = t.endpoints.(i) in
    let config = t.shared.config in
    let peer_addrs =
      List.init config.Config.n_replicas Fun.id
      |> List.filter_map (fun j ->
             if j = i then None else Some (Address.replica j))
    in
    let rel_active =
      match config.Config.retransmit with
      | Some r -> r.Config.max_tries > 0
      | None -> false
    in
    (* per-message-type counters: tag every protocol-level send (plain
       or reliable-posted) at the env wrappers, where the message is
       still a [P.message] rather than an envelope *)
    let tally =
      if Paxi_obs.Trace.enabled t.trace then fun m ->
        Paxi_obs.Trace.count_msg t.trace (P.message_label m)
      else fun _ -> ()
    in
    let tag label =
      if Paxi_obs.Trace.enabled t.trace then fun () ->
        Paxi_obs.Trace.count_msg t.trace label
      else fun () -> ()
    in
    let tally_reply = tag "reply" and tally_forward = tag "forward" in
    (* A post's destinations as addresses, mapped once per list: a
       leader posts every relayed round to the same relay list (its
       plan's) until the rotation moves. *)
    let post_ids = ref [] and post_addrs = ref [] in
    let post_dsts dsts =
      if dsts != !post_ids then begin
        post_addrs := List.map Address.replica dsts;
        post_ids := dsts
      end;
      !post_addrs
    in
    let obs =
      if Paxi_obs.Trace.enabled t.trace then
        {
          Proto.active = true;
          on_propose =
            (fun ~slot ~cmd ->
              Paxi_obs.Trace.on_propose t.trace ~slot
                ~client:cmd.Command.client ~cmd_id:cmd.Command.id
                ~now_ms:(Sim.now t.shared.sim));
          on_quorum =
            (fun ~slot ->
              Paxi_obs.Trace.on_quorum t.trace ~slot
                ~now_ms:(Sim.now t.shared.sim));
          on_read = (fun () -> Paxi_obs.Trace.on_fast_read t.trace);
          on_relay =
            (fun ~start_ms ~end_ms ->
              Paxi_obs.Trace.on_relay_hop t.trace ~start_ms ~end_ms);
        }
      else Proto.null_obs
    in
    let clock = { Proto.sim = t.shared.sim; faults = t.shared.faults; node = addr } in
    {
      Proto.id = i;
      n = config.Config.n_replicas;
      config;
      topology = t.shared.topology;
      rng = Rng.split (Sim.rng t.shared.sim);
      (* A replica reads its *local* clock: simulator time plus
         whatever skew the nemesis is currently injecting at this node.
         Only protocol decisions (lease expiry, timeouts) see the
         offset; event scheduling stays on true simulator time. The
         fold is exactly 0.0 on an empty schedule, so fault-free runs
         are byte-identical. *)
      now = (fun () -> Proto.local_now clock);
      clock;
      schedule =
        (* durable clusters route every protocol timer through the
           replica's ownership registry so a crash can mass-cancel
           them; memory-only clusters keep the raw path (identical
           closures, no tracking) *)
        (if config.Config.storage = None then fun delay f ->
           Sim.schedule_after t.shared.sim ~delay f
         else
           let tm = t.timers.(i) in
           fun delay f -> Timers.track tm (Sim.schedule_after t.shared.sim ~delay f));
      cancel = (fun h -> Sim.cancel t.shared.sim h);
      send =
        (fun dst m ->
          tally m;
          Transport.send transport ~src:addr ~dst:(Address.replica dst)
            (Peer m));
      broadcast =
        (fun m ->
          tally m;
          Transport.broadcast transport ~src:addr (Peer m));
      multicast =
        (fun dsts m ->
          tally m;
          Transport.multicast transport ~src:addr
            ~dsts:(List.map Address.replica dsts)
            (Peer m));
      send_sized =
        (fun dst ~size_bytes m ->
          tally m;
          Transport.send_sized transport ~src:addr ~dst:(Address.replica dst)
            ~size_bytes (Peer m));
      broadcast_sized =
        (fun ~size_bytes m ->
          tally m;
          Transport.broadcast_sized transport ~src:addr ~size_bytes (Peer m));
      multicast_sized =
        (fun dsts ~size_bytes m ->
          tally m;
          Transport.multicast_sized transport ~src:addr
            ~dsts:(List.map Address.replica dsts)
            ~size_bytes (Peer m));
      reply =
        (fun client r ->
          tally_reply ();
          Transport.send transport ~src:addr ~dst:client (Reply r));
      forward =
        (fun dst ~client command ->
          tally_forward ();
          Transport.send transport ~src:addr ~dst:(Address.replica dst)
            (Request { client; command }));
      rel =
        {
          Proto.active = rel_active;
          fresh = (fun () -> Reliable.fresh ep);
          post =
            (fun ?key ?size_bytes ~ack dst m ->
              tally m;
              Reliable.post ep ?key ?size_bytes ~ack
                ~dst:(Address.replica dst) m);
          post_multi =
            (fun ?key ?size_bytes ~ack dsts m ->
              tally m;
              Reliable.post_multi ep ?key ?size_bytes ~ack ~dsts:(post_dsts dsts)
                m);
          post_all =
            (fun ?key ?size_bytes ~ack m ->
              tally m;
              Reliable.post_multi ep ?key ?size_bytes ~ack ~dsts:peer_addrs m);
          settle =
            (fun ~dst ~key ->
              Reliable.settle ep ~dst:(Address.replica dst) ~key);
          settle_all = (fun ~key -> Reliable.settle_all ep ~key);
          unpost_all = (fun () -> Reliable.unpost_all ep);
        };
      obs;
      storage = t.storages.(i);
    }

  (* ---- crash / recovery edges (Config.storage only) ----------------- *)

  (* Merge a node's crash windows into disjoint [from, until) spans so
     overlapping or abutting windows yield one crash edge and one
     recovery edge. *)
  let merge_windows ws =
    let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) ws in
    List.rev
      (List.fold_left
         (fun acc (f, u) ->
           match acc with
           | (pf, pu) :: rest when f <= pu -> (pf, Float.max pu u) :: rest
           | _ -> (f, u) :: acc)
         [] sorted)

  (* The crash is real (the bug this PR fixes): the replica loses every
     byte of volatile state. Its timers are mass-cancelled, its
     reliable-delivery endpoint forgets open posts and dedup memory,
     and the storage device discards the unsynced tail. The replica
     object itself stays in place only as an inert corpse — [down]
     stops deliveries, and recovery replaces it wholesale. *)
  let crash_edge t i =
    t.down.(i) <- true;
    Timers.cancel_all t.timers.(i);
    Reliable.crash_reset t.endpoints.(i);
    match t.storages.(i) with Some st -> Storage.crash st | None -> ()

  (* Recovery edge (the crash window just closed): charge the log
     replay on the simulated clock, then boot a fresh replica instance
     that rebuilds itself from storage alone via [P.on_recover]. *)
  let recovery_edge t transport i =
    let sim = t.shared.sim in
    let replay =
      match t.storages.(i) with
      | Some st -> Storage.replay_cost_ms st
      | None -> 0.0
    in
    t.recoveries <- t.recoveries + 1;
    t.replay_ms_total <- t.replay_ms_total +. replay;
    ignore
      (Sim.schedule_after sim ~delay:replay (fun () ->
           (* a later crash window may have opened during replay; its
              own recovery edge owns the reboot then *)
           if
             not
               (Faults.is_crashed t.shared.faults ~now_ms:(Sim.now sim)
                  (Address.replica i))
           then begin
             let r = P.create (make_env t transport i) in
             t.replicas.(i) <- r;
             t.down.(i) <- false;
             P.on_recover r
           end))

  let schedule_crash_edges t transport =
    let sim = t.shared.sim in
    let now = Sim.now sim in
    for i = 0 to Array.length t.down - 1 do
      Faults.crash_windows t.shared.faults (Address.replica i)
      |> merge_windows
      |> List.iter (fun (from_ms, until_ms) ->
             ignore
               (Sim.schedule_at sim ~time:(Float.max from_ms now) (fun () ->
                    crash_edge t i));
             ignore
               (Sim.schedule_at sim ~time:(Float.max until_ms now) (fun () ->
                    recovery_edge t transport i)))
    done

  let create_shared ?sim ?faults ~config ~topology () =
    (match Config.validate config with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Cluster.create: " ^ msg));
    if Topology.n_replicas topology <> config.Config.n_replicas then
      invalid_arg
        (Printf.sprintf "Cluster.create: topology has %d replicas, config %d"
           (Topology.n_replicas topology)
           config.Config.n_replicas);
    let sim =
      match sim with Some s -> s | None -> Sim.create ~seed:config.Config.seed ()
    in
    let faults = match faults with Some f -> f | None -> Faults.create () in
    { sim; config; topology; faults }

  let create_group (shared : shared) =
    let { sim; config; topology; faults } = shared in
    let factor = P.cpu_factor config in
    let processing _i =
      Procq.create
        ~t_in_ms:(config.Config.t_in_ms *. factor)
        ~t_out_ms:(config.Config.t_out_ms *. factor)
        ~bandwidth_mbps:config.Config.bandwidth_mbps ()
    in
    let transport =
      Transport.create ~sim ~topology ~faults
        ~default_size_bytes:config.Config.msg_size_bytes ~processing ()
    in
    let policy =
      match config.Config.retransmit with
      | Some r ->
          {
            Reliable.base_ms = r.Config.base_ms;
            max_ms = r.Config.max_ms;
            max_tries = r.Config.max_tries;
          }
      | None -> Reliable.inert
    in
    let endpoints =
      Array.init config.Config.n_replicas (fun i ->
          Reliable.create ~transport ~self:(Address.replica i) ~policy
            ~inject:(fun pkt -> Rel pkt))
    in
    let trace = Paxi_obs.Trace.create ~enabled:config.Config.tracing () in
    let n = config.Config.n_replicas in
    let timers =
      match config.Config.storage with
      | None -> [||]
      | Some _ -> Array.init n (fun _ -> Timers.create sim)
    in
    let storages =
      match config.Config.storage with
      | None -> Array.make n None
      | Some sc ->
          Array.init n (fun i ->
              Some (Storage.create ~config:sc ~sim ~timers:timers.(i)))
    in
    let t =
      {
        shared;
        transport;
        endpoints;
        replicas = [||];
        pending = Hashtbl.create 64;
        trace;
        timers;
        storages;
        down = Array.make n false;
        recoveries = 0;
        replay_ms_total = 0.0;
      }
    in
    if config.Config.tracing then
      Transport.set_observer transport
        (Some
           {
             Transport.on_delivery =
               (fun ~src:_ ~dst ~size_bytes:_ ~sent_ms ~arrival_ms ~wait_ms
                    ~service_ms ~ready_ms msg ->
                 (match msg with
                 | Request { client = Address.Client cid; command } ->
                     Paxi_obs.Trace.on_request_arrival trace ~client:cid
                       ~cmd_id:command.Command.id ~arrival_ms
                       ~wait_ms ~service_ms ~ready_ms
                 | Reply r ->
                     Paxi_obs.Trace.on_reply trace
                       ~client:r.Proto.command.Command.client
                       ~cmd_id:r.Proto.command.Command.id ~sent_ms ~ready_ms
                 | _ -> ());
                 match dst with
                 | Address.Replica i ->
                     Paxi_obs.Trace.on_hop trace ~node:i ~now_ms:arrival_ms
                       ~wait_ms ~service_ms
                 | Address.Client _ -> ());
             on_transmit =
               (fun ~src ~now_ms ~wait_ms ~service_ms ~copies:_ ~size_bytes:_ ->
                 match src with
                 | Address.Replica i ->
                     Paxi_obs.Trace.on_hop trace ~node:i ~now_ms ~wait_ms
                       ~service_ms
                 | Address.Client _ -> ());
           });
    let replicas =
      Array.init config.Config.n_replicas (fun i ->
          P.create (make_env t transport i))
    in
    let t = { t with replicas } in
    Array.iteri
      (fun i _ ->
        (* handlers look the replica up through [t.replicas] on every
           delivery (not a captured binding): recovery swaps in a
           fresh instance and deliveries must reach it, never the dead
           one. [down] holds the slot offline between the crash
           window's end and the end of log replay. *)
        let on_peer ~src m =
          P.on_message t.replicas.(i) ~src:(Address.replica_id src) m
        in
        Transport.register transport (Address.replica i) (fun ~src msg ->
            if t.down.(i) then ()
            else
              match msg with
              | Peer m -> on_peer ~src m
              | Request { client; command } ->
                  P.on_request t.replicas.(i) ~client command
              | Rel pkt ->
                  (* [on_packet] calls [deliver] before it returns, so
                     one callback per replica serves every packet *)
                  Reliable.on_packet t.endpoints.(i) ~src ~deliver:on_peer pkt
              | Reply _ -> () (* replicas never receive replies *)))
      replicas;
    Array.iter
      (fun r ->
        ignore
          (Sim.schedule_at sim ~time:(Sim.now sim) (fun () -> P.on_start r)))
      replicas;
    if config.Config.storage <> None then schedule_crash_edges t transport;
    t

  let create ?sim ?faults ~config ~topology () =
    create_group (create_shared ?sim ?faults ~config ~topology ())

  let sim t = t.shared.sim
  let trace t = t.trace
  let config t = t.shared.config
  let topology t = t.shared.topology
  let faults t = t.shared.faults
  let replica t i = t.replicas.(i)

  let register_client t ~id ?region () =
    (match region with
    | Some r -> Topology.assign_client t.shared.topology ~id ~region:r
    | None -> ());
    let addr = Address.client id in
    Transport.register t.transport addr (fun ~src:_ msg ->
        match msg with
        | Reply r -> deliver_reply t id r
        | Peer _ | Request _ | Rel _ -> ())

  let submit t ~client ~target ~command ~on_reply =
    Hashtbl.replace t.pending
      (pending_key ~client ~id:command.Command.id)
      on_reply;
    if Paxi_obs.Trace.enabled t.trace then
      Paxi_obs.Trace.on_submit t.trace ~client ~cmd_id:command.Command.id
        ~is_read:(Command.is_read command) ~now_ms:(Sim.now t.shared.sim);
    Transport.send t.transport ~src:(Address.client client)
      ~dst:(Address.replica target)
      (Request { client = Address.client client; command })

  let pending t ~client ~command =
    Hashtbl.mem t.pending (pending_key ~client ~id:command.Command.id)

  let give_up t ~client ~command =
    Hashtbl.remove t.pending (pending_key ~client ~id:command.Command.id)

  let leader_of_key t ~replica key = P.leader_of_key t.replicas.(replica) key

  let nearest_replica t ~client =
    let region = Topology.region_of t.shared.topology (Address.client client) in
    match Topology.replicas_in t.shared.topology region with
    | r :: _ -> r
    | [] -> 0

  let message_counts t =
    ( Transport.sent_count t.transport,
      Transport.delivered_count t.transport,
      Transport.dropped_count t.transport )

  let retransmit_counts t =
    Array.fold_left
      (fun (r, d) ep -> (r + Reliable.retransmits ep, d + Reliable.dup_drops ep))
      (0, 0) t.endpoints

  let replica_busy_ms t i =
    Procq.busy_time (Transport.procq t.transport (Address.replica i))

  let storage t i = t.storages.(i)
  let recoveries t = t.recoveries
  let replay_ms_total t = t.replay_ms_total

  let timers_cancelled t =
    Array.fold_left (fun acc tm -> acc + Timers.cancelled_total tm) 0 t.timers

  let storage_totals t =
    Array.fold_left
      (fun acc st ->
        match st with
        | None -> acc
        | Some st -> Storage.add_totals acc (Storage.totals st))
      Storage.no_totals t.storages
end
