type message =
  | G of Group.message
  | VLookup of {
      key : Command.key;
      zone : int;
      client : Address.t;
      request : Proto.request;
    }
  | VAssign of { key : Command.key; zone : int }
  | VMigrateReq of { key : Command.key; to_zone : int }
  | VState of { key : Command.key; value : Command.value option }

let name = "vpaxos"
let cpu_factor (_ : Config.t) = 1.0

let message_label = function
  | G g -> Group.message_label g
  | VLookup _ -> "VLookup"
  | VAssign _ -> "VAssign"
  | VMigrateReq _ -> "VMigrateReq"
  | VState _ -> "VState"

type replica = {
  env : message Proto.env;
  zones : int list array;
  my_zone : int;
  master_zone : int;
  mutable group : Group.t option;
  exec : Executor.t;
  (* every leader's view of the assignment; authoritative at master *)
  assign : (Command.key, int) Hashtbl.t;
  (* master: keys with a reassignment currently in flight *)
  reassigning : (Command.key, unit) Hashtbl.t;
  (* master: side effects to run when a config command executes *)
  config_effects : (int, unit -> unit) Hashtbl.t;
  (* owner: consecutive remote accesses per key: (origin zone, count) *)
  streaks : (Command.key, int * int) Hashtbl.t;
  (* new owner: requests queued until the object's state arrives *)
  awaiting_state : (Command.key, (Address.t * Proto.request) list) Hashtbl.t;
  (* old owner: handoffs deferred until in-flight proposals drain *)
  handoff : (Command.key, int * int) Hashtbl.t; (* dest zone, slot bound *)
  (* new owner: state that arrived before its VAssign announcement *)
  got_state : (Command.key, unit) Hashtbl.t;
  mutable config_counter : int;
  mutable sync_counter : int;
  mutable migrations : int;
}

let zone_leader (t : replica) zone =
  match t.zones.(zone) with l :: _ -> l | [] -> invalid_arg "empty zone"

(* Config commands live on negative keys so they never collide with
   client data. *)
let config_key key = -key - 1
let config_client = -1000

let group t = Option.get t.group
let executor t = t.exec
let is_zone_leader t = Group.is_leader (group t)
let is_master t = t.my_zone = t.master_zone && is_zone_leader t

(* zone of the replica that initially owns every object, if any *)
let initial_zone t =
  Option.map
    (fun owner -> Topology.zone_of t.env.topology (Address.replica owner))
    t.env.config.Config.initial_object_owner

let assigned_zone t key =
  match Hashtbl.find_opt t.assign key with
  | Some z -> Some z
  | None -> initial_zone t

let leader_of_key t key =
  Option.map (fun z -> zone_leader t z) (assigned_zone t key)

let migrations t = t.migrations

let local_value t key =
  Kv.get (State_machine.store (Executor.state_machine t.exec)) key

let sync_value t key = function
  | Some v ->
      let id = t.sync_counter in
      t.sync_counter <- t.sync_counter + 1;
      let cmd = Command.make ~id ~client:(-2 - t.env.id) (Command.Put (key, v)) in
      Group.propose (group t) ~client:None cmd
  | None -> ()

let propose_request t ~client (request : Proto.request) =
  Group.propose (group t) ~client:(Some client) request.Proto.command

(* Ship the object's state once every slot proposed before the
   handoff has executed locally. *)
let flush_handoffs t =
  let ready =
    Hashtbl.fold
      (fun key (dest, bound) acc ->
        if Group.frontier (group t) > bound then (key, dest) :: acc else acc)
      t.handoff []
  in
  List.iter
    (fun (key, dest) ->
      Hashtbl.remove t.handoff key;
      (* one-shot state transfer: a lost VState would leave the new
         owner queueing requests forever, so post it explicitly-acked
         (the substrate dedups the duplicate deliveries) *)
      ignore
        (t.env.rel.post ~ack:Reliable.Explicit (zone_leader t dest)
           (VState { key; value = local_value t key })))
    ready

(* Apply an assignment decision locally: the new owner waits for the
   object's state (when someone held it before), the old owner hands
   its state off once in-flight proposals drain. Runs at every zone
   leader on VAssign, and at the master itself when the config command
   commits. *)
let on_assign t key zone =
  let previous = Hashtbl.find_opt t.assign key in
  let initial_mine, had_owner =
    match initial_zone t with
    | Some z -> (z = t.my_zone, true)
    | None -> (false, false)
  in
  let was_mine =
    match previous with Some z -> z = t.my_zone | None -> initial_mine
  in
  let had_owner = previous <> None || had_owner in
  Hashtbl.replace t.assign key zone;
  if zone = t.my_zone && not was_mine then begin
    (* new owner: wait for state before serving, unless the key never
       had an owner or its state already raced ahead *)
    if Hashtbl.mem t.got_state key then Hashtbl.remove t.got_state key
    else if had_owner && not (Hashtbl.mem t.awaiting_state key) then
      Hashtbl.replace t.awaiting_state key []
  end
  else if zone <> t.my_zone && was_mine && is_zone_leader t then begin
    Hashtbl.replace t.handoff key (zone, Group.last_proposed_slot (group t));
    flush_handoffs t;
    if Hashtbl.mem t.handoff key then
      (* in-flight proposals still draining; check again shortly
         after they execute *)
      ignore @@ t.env.schedule 0.5 (fun () -> flush_handoffs t)
  end

(* ---- master config plane ------------------------------------------ *)

let master_commit_assignment t key zone ~on_committed =
  let id = t.config_counter in
  t.config_counter <- t.config_counter + 1;
  Hashtbl.replace t.config_effects id (fun () ->
      on_assign t key zone;
      Hashtbl.remove t.reassigning key;
      on_committed ());
  let cmd = Command.make ~id ~client:config_client (Command.Put (config_key key, zone)) in
  Group.propose (group t) ~client:None cmd

let notify_leaders t key zone =
  let leaders =
    Array.to_list t.zones
    |> List.filter_map (function l :: _ -> Some l | [] -> None)
    |> List.filter (fun l -> l <> t.env.id)
  in
  ignore (t.env.rel.post_multi ~ack:Reliable.Explicit leaders (VAssign { key; zone }))

let master_on_lookup t key ~zone ~client (request : Proto.request) =
  match assigned_zone t key with
  | Some z ->
      ignore
        (t.env.rel.post ~ack:Reliable.Explicit (zone_leader t zone)
           (VAssign { key; zone = z }));
      t.env.forward (zone_leader t z) ~client request
  | None ->
      if Hashtbl.mem t.reassigning key then
        (* assignment decision in flight; retry via the forward path
           once it commits *)
        let _ = Hashtbl.replace t.reassigning key () in
        ignore
        @@ t.env.schedule 1.0 (fun () ->
               t.env.forward t.env.id ~client request)
      else begin
        Hashtbl.replace t.reassigning key ();
        master_commit_assignment t key zone ~on_committed:(fun () ->
            notify_leaders t key zone;
            t.env.forward (zone_leader t zone) ~client request)
      end

let master_on_migrate t key ~to_zone =
  match assigned_zone t key with
  | Some z when z <> to_zone && not (Hashtbl.mem t.reassigning key) ->
      Hashtbl.replace t.reassigning key ();
      t.migrations <- t.migrations + 1;
      master_commit_assignment t key to_zone ~on_committed:(fun () ->
          notify_leaders t key to_zone)
  | _ -> ()

(* ---- data plane ---------------------------------------------------- *)

let note_access t key ~origin ~client (request : Proto.request) =
  if origin = t.my_zone then begin
    Hashtbl.remove t.streaks key;
    propose_request t ~client request
  end
  else begin
    let zone, count =
      match Hashtbl.find_opt t.streaks key with
      | Some (z, c) when z = origin -> (z, c + 1)
      | _ -> (origin, 1)
    in
    Hashtbl.replace t.streaks key (zone, count);
    propose_request t ~client request;
    if count >= t.env.config.Config.migration_threshold then begin
      Hashtbl.remove t.streaks key;
      if is_master t then master_on_migrate t key ~to_zone:zone
      else
        ignore
          (t.env.rel.post ~ack:Reliable.Explicit (zone_leader t t.master_zone)
             (VMigrateReq { key; to_zone = zone }))
    end
  end

let on_request t ~client (request : Proto.request) =
  let key = Command.key request.Proto.command in
  if not (is_zone_leader t) then
    t.env.forward (zone_leader t t.my_zone) ~client request
  else if Hashtbl.mem t.awaiting_state key then
    Hashtbl.replace t.awaiting_state key
      ((client, request)
      :: Option.value (Hashtbl.find_opt t.awaiting_state key) ~default:[])
  else
    match assigned_zone t key with
    | Some z when z = t.my_zone -> (
        match Hashtbl.find_opt t.handoff key with
        | Some (dest, _) ->
            (* we just gave the key away; route to its new owner *)
            t.env.forward (zone_leader t dest) ~client request
        | None ->
            note_access t key
              ~origin:(Topology.zone_of t.env.topology client)
              ~client request)
    | Some z -> t.env.forward (zone_leader t z) ~client request
    | None ->
        if is_master t then
          master_on_lookup t key ~zone:t.my_zone ~client request
        else
          ignore
            (t.env.rel.post ~ack:Reliable.Explicit (zone_leader t t.master_zone)
               (VLookup { key; zone = t.my_zone; client; request }))

let on_state t key ~value =
  sync_value t key value;
  if not (Hashtbl.mem t.awaiting_state key) then
    (* state beat the VAssign announcement; remember it *)
    Hashtbl.replace t.got_state key ();
  let queued =
    Option.value (Hashtbl.find_opt t.awaiting_state key) ~default:[]
    |> List.rev
  in
  Hashtbl.remove t.awaiting_state key;
  List.iter
    (fun (client, request) ->
      note_access t key
        ~origin:(Topology.zone_of t.env.topology client)
        ~client request)
    queued

let on_message t ~src = function
  | G m ->
      Group.on_message (group t) ~src m;
      if is_zone_leader t then flush_handoffs t
  | VLookup { key; zone; client; request } ->
      if is_master t then master_on_lookup t key ~zone ~client request
  | VAssign { key; zone } -> on_assign t key zone
  | VMigrateReq { key; to_zone } ->
      if is_master t then master_on_migrate t key ~to_zone
  | VState { key; value } -> on_state t key ~value

let create env =
  let topology = env.Proto.topology in
  let zones = Topology.zones topology in
  let master_zone =
    Stdlib.min env.Proto.config.Config.master_region_index (Array.length zones - 1)
  in
  let t =
    {
      env;
      zones;
      my_zone = Topology.zone_of topology (Address.replica env.Proto.id);
      master_zone;
      group = None;
      exec = Executor.create ();
      assign = Hashtbl.create 256;
      reassigning = Hashtbl.create 16;
      config_effects = Hashtbl.create 16;
      streaks = Hashtbl.create 64;
      awaiting_state = Hashtbl.create 16;
      handoff = Hashtbl.create 16;
      got_state = Hashtbl.create 16;
      config_counter = 0;
      sync_counter = 0;
      migrations = 0;
    }
  in
  let on_executed (cmd : Command.t) client read =
    (* run master side effects for committed config commands *)
    if cmd.Command.client = config_client then begin
      match Hashtbl.find_opt t.config_effects cmd.Command.id with
      | Some effect ->
          Hashtbl.remove t.config_effects cmd.Command.id;
          effect ()
      | None -> ()
    end
    else
      match client with
      | Some c ->
          env.Proto.reply c
            { Proto.command = cmd; read; replier = env.Proto.id; leader_hint = None }
      | None -> ()
  in
  t.group <-
    Some
      (Group.create ~env
         ~wrap:(fun m -> G m)
         ~members:t.zones.(t.my_zone) ~leader:(zone_leader t t.my_zone)
         ~exec:t.exec ~on_executed);
  t

let on_start (_ : replica) = ()

(* In-memory protocol: a crash-recovery edge reboots it from scratch
   (no durable state to reload) — the cluster engine only pairs
   [Config.storage] with protocols that persist, so this is a
   rejoin-from-zero fallback. *)
let on_recover = on_start
