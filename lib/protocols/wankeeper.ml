type message =
  | G of Group.message
  | WkRequest of {
      key : Command.key;
      zone : int;
      client : Address.t;
      request : Proto.request;
    }
  | TokenGrant of {
      key : Command.key;
      gen : int;  (** token generation: serializes grant/retract pairs *)
      value : Command.value option;
      pending : (Address.t * Proto.request) list;
    }
  | TokenRetract of { key : Command.key; gen : int }
  | RetractAck of { key : Command.key; gen : int; value : Command.value option }

let name = "wankeeper"
let cpu_factor (_ : Config.t) = 1.0

let message_label = function
  | G g -> Group.message_label g
  | WkRequest _ -> "WkRequest"
  | TokenGrant _ -> "TokenGrant"
  | TokenRetract _ -> "TokenRetract"
  | RetractAck _ -> "RetractAck"

(* Master-side per-key token bookkeeping. *)
type token = {
  mutable holder : int option; (* zone currently holding the token *)
  mutable gen : int; (* bumped on every grant *)
  mutable streak_zone : int;
  mutable streak : int;
  mutable retracting : bool;
  mutable queued : (Address.t * Proto.request) list; (* newest first *)
}

type replica = {
  env : message Proto.env;
  zones : int list array;
  my_zone : int;
  master_zone : int;
  mutable group : Group.t option;
  exec : Executor.t;
  have_token : (Command.key, int) Hashtbl.t; (* key -> grant generation *)
  tokens : (Command.key, token) Hashtbl.t; (* at the master *)
  (* zone leader: retract acks deferred until in-flight group
     proposals drain, so the shipped value reflects every command the
     zone committed while it held the token *)
  pending_retracts : (Command.key, int * int) Hashtbl.t; (* gen, slot bound *)
  (* zone leader: retractions that overtook their own grant in flight *)
  early_retracts : (Command.key, int) Hashtbl.t; (* gen *)
  (* master: grants deferred the same way *)
  pending_grants : (Command.key, int * int * int * (Address.t * Proto.request) list) Hashtbl.t;
      (* dest zone, gen, slot bound, requests to hand over *)
  mutable sync_counter : int;
  mutable grants : int;
  mutable retractions : int;
}

let zone_leader (t : replica) zone =
  match t.zones.(zone) with l :: _ -> l | [] -> invalid_arg "empty zone"

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
      have_token = Hashtbl.create 256;
      tokens = Hashtbl.create 256;
      pending_retracts = Hashtbl.create 16;
      early_retracts = Hashtbl.create 16;
      pending_grants = Hashtbl.create 16;
      sync_counter = 0;
      grants = 0;
      retractions = 0;
    }
  in
  let on_executed cmd client read =
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

let group t = Option.get t.group
let executor t = t.exec
let is_zone_leader t = Group.is_leader (group t)
let is_master t = t.my_zone = t.master_zone && is_zone_leader t
let tokens_held t = Hashtbl.length t.have_token
let grants t = t.grants
let retractions t = t.retractions

let leader_of_key t key =
  if Hashtbl.mem t.have_token key then Some t.env.id
  else if is_master t then
    match Hashtbl.find_opt t.tokens key with
    | Some { holder = Some z; _ } -> Some (zone_leader t z)
    | _ -> Some t.env.id
  else None

let master_replica t = zone_leader t t.master_zone

let local_value t key =
  Kv.get (State_machine.store (Executor.state_machine t.exec)) key

(* Re-commit a moved object's latest value in the local group so
   member state machines observe it before subsequent commands. The
   writer id is unique per (replica, counter) to survive exactly-once
   dedup. *)
let sync_value t key = function
  | Some v ->
      let id = t.sync_counter in
      t.sync_counter <- t.sync_counter + 1;
      let cmd =
        Command.make ~id ~client:(-2 - t.env.id) (Command.Put (key, v))
      in
      Group.propose (group t) ~client:None cmd
  | None -> ()

let propose_request t ~client (request : Proto.request) =
  Group.propose (group t) ~client:(Some client) request.Proto.command

(* Send deferred retract-acks/grants whose in-flight proposals have
   executed locally, so the value they carry is complete. *)
let flush_token_moves t =
  let g = group t in
  let ready_retracts =
    Hashtbl.fold
      (fun key (gen, bound) acc ->
        if Group.frontier g > bound then (key, gen) :: acc else acc)
      t.pending_retracts []
  in
  List.iter
    (fun (key, gen) ->
      Hashtbl.remove t.pending_retracts key;
      (* token moves are one-shot state transfers with no natural
         retry: post them explicitly-acked so a lost hop cannot strand
         the token (dedup suppresses the duplicate deliveries) *)
      ignore
        (t.env.rel.post ~ack:Reliable.Explicit (master_replica t)
           (RetractAck { key; gen; value = local_value t key })))
    ready_retracts;
  let ready_grants =
    Hashtbl.fold
      (fun key (zone, gen, bound, pending) acc ->
        if Group.frontier g > bound then (key, zone, gen, pending) :: acc else acc)
      t.pending_grants []
  in
  List.iter
    (fun (key, zone, gen, pending) ->
      Hashtbl.remove t.pending_grants key;
      ignore
        (t.env.rel.post ~ack:Reliable.Explicit (zone_leader t zone)
           (TokenGrant { key; gen; value = local_value t key; pending })))
    ready_grants

let schedule_flush t =
  ignore (t.env.schedule 0.5 (fun () -> flush_token_moves t))

(* ---- master logic ------------------------------------------------ *)

let token t key =
  match Hashtbl.find_opt t.tokens key with
  | Some tok -> tok
  | None ->
      let tok =
        {
          holder = None;
          gen = 0;
          streak_zone = -1;
          streak = 0;
          retracting = false;
          queued = [];
        }
      in
      Hashtbl.add t.tokens key tok;
      tok

let master_execute t ~client request = propose_request t ~client request

let begin_retract t key tok =
  if not tok.retracting then begin
    tok.retracting <- true;
    t.retractions <- t.retractions + 1;
    match tok.holder with
    | Some z ->
        ignore
          (t.env.rel.post ~ack:Reliable.Explicit (zone_leader t z)
             (TokenRetract { key; gen = tok.gen }))
    | None -> tok.retracting <- false
  end

let master_on_request t key ~zone ~client (request : Proto.request) =
  let tok = token t key in
  if tok.streak_zone = zone then tok.streak <- tok.streak + 1
  else begin
    tok.streak_zone <- zone;
    tok.streak <- 1
  end;
  match tok.holder with
  | Some z when z = zone -> (
      (* requester's zone holds (or is about to receive) the token *)
      match Hashtbl.find_opt t.pending_grants key with
      | Some (dest, gen, bound, pending) when dest = zone ->
          Hashtbl.replace t.pending_grants key
            (dest, gen, bound, pending @ [ (client, request) ])
      | _ -> t.env.forward (zone_leader t z) ~client request)
  | Some _ ->
      tok.queued <- (client, request) :: tok.queued;
      begin_retract t key tok
  | None ->
      if
        zone <> t.master_zone
        && tok.streak >= t.env.config.Config.migration_threshold
        && not (Hashtbl.mem t.pending_grants key)
      then begin
        tok.holder <- Some zone;
        tok.gen <- tok.gen + 1;
        t.grants <- t.grants + 1;
        Hashtbl.replace t.pending_grants key
          (zone, tok.gen, Group.last_proposed_slot (group t), [ (client, request) ]);
        flush_token_moves t;
        if Hashtbl.mem t.pending_grants key then schedule_flush t
      end
      else master_execute t ~client request

let master_on_retract_ack t key ~gen ~value =
  let tok = token t key in
  if not (tok.retracting && gen = tok.gen) then ()
  else begin
  tok.retracting <- false;
  tok.holder <- None;
  sync_value t key value;
  let queued = List.rev tok.queued in
  tok.queued <- [];
  List.iter
    (fun (client, request) ->
      master_on_request t key ~zone:t.master_zone ~client request)
    queued
  end

(* ---- zone-leader logic ------------------------------------------- *)

let leader_on_request t key ~client (request : Proto.request) =
  if is_master t then master_on_request t key ~zone:t.my_zone ~client request
  else if Hashtbl.mem t.have_token key then propose_request t ~client request
  else
    t.env.send (master_replica t)
      (WkRequest { key; zone = t.my_zone; client; request })

let on_token_grant t key ~gen ~value ~pending =
  sync_value t key value;
  List.iter (fun (client, request) -> propose_request t ~client request) pending;
  match Hashtbl.find_opt t.early_retracts key with
  | Some gen' when gen' = gen ->
      (* the retraction overtook this grant: serve the handed-over
         requests, then immediately give the token back *)
      Hashtbl.remove t.early_retracts key;
      Hashtbl.replace t.pending_retracts key (gen, Group.last_proposed_slot (group t));
      flush_token_moves t;
      if Hashtbl.mem t.pending_retracts key then schedule_flush t
  | _ -> Hashtbl.replace t.have_token key gen

let on_token_retract t key ~gen =
  match Hashtbl.find_opt t.have_token key with
  | Some g when g = gen ->
      Hashtbl.remove t.have_token key;
      Hashtbl.replace t.pending_retracts key (gen, Group.last_proposed_slot (group t));
      flush_token_moves t;
      if Hashtbl.mem t.pending_retracts key then schedule_flush t
  | Some _ -> () (* stale retraction for a generation we no longer hold *)
  | None ->
      (* the matching grant has not arrived yet; remember the
         retraction and bounce the token on arrival *)
      Hashtbl.replace t.early_retracts key gen

(* ---- dispatch ----------------------------------------------------- *)

let on_request t ~client (request : Proto.request) =
  let key = Command.key request.Proto.command in
  if is_zone_leader t then leader_on_request t key ~client request
  else t.env.forward (zone_leader t t.my_zone) ~client request

let on_message t ~src = function
  | G m ->
      Group.on_message (group t) ~src m;
      flush_token_moves t
  | WkRequest { key; zone; client; request } ->
      if is_master t then master_on_request t key ~zone ~client request
      else if is_zone_leader t && Hashtbl.mem t.have_token key then
        (* token raced ahead of the request; commit locally *)
        propose_request t ~client request
      else t.env.forward (zone_leader t t.my_zone) ~client request
  | TokenGrant { key; gen; value; pending } ->
      on_token_grant t key ~gen ~value ~pending
  | TokenRetract { key; gen } -> on_token_retract t key ~gen
  | RetractAck { key; gen; value } ->
      if is_master t then master_on_retract_ack t key ~gen ~value

let on_start (_ : replica) = ()

(* In-memory protocol: a crash-recovery edge reboots it from scratch
   (no durable state to reload) — the cluster engine only pairs
   [Config.storage] with protocols that persist, so this is a
   rejoin-from-zero fallback. *)
let on_recover = on_start
