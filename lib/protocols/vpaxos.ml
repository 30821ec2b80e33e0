type message =
  | G of Paxos.message
  | VLookup of {
      key : Command.key;
      zone : int;
      client : Address.t;
      cmd : Command.t;
    }
  | VAssign of { key : Command.key; zone : int; gen : int; prev : int }
  | VMigrateReq of { key : Command.key; to_zone : int; gen : int }
  | VState of { key : Command.key; gen : int; value : Command.value option }

let name = "vpaxos"
let cpu_factor (_ : Config.t) = 1.0

let message_label = function
  | G g -> Paxos.message_label g
  | VLookup _ -> "VLookup"
  | VAssign _ -> "VAssign"
  | VMigrateReq _ -> "VMigrateReq"
  | VState _ -> "VState"

(* Ownership lives in the zone groups ({!Zone_paxos} claims), so a new
   zone leader finds it. Each assignment of an object opens an epoch; a
   zone claims the epoch it owns and gives it away on reassignment
   (none committed: the initial owner's zone owns epoch 0). The master
   zone records the assignment: [(g * 1024 + zone) * 1024 + prev + 1]
   for epoch [g] at [zone], taken over from [prev] (none: epoch 0 at
   the initial owner's zone, or unassigned). *)
let zone_bits = 1024

(* new owner, per object: the epoch it takes over from [prev], and the
   requests waiting until it owns it *)
type acquisition = {
  gen : int;
  prev : int;
  mutable installing : bool; (* the state is committing *)
  mutable waiting : (Address.t * Command.t) list; (* oldest first *)
}

type replica = {
  env : message Proto.env;
  zones : Zone_paxos.zones;
  master_zone : int;
  group : Zone_paxos.t;
  (* every leader's routing hint: (epoch, owning zone) *)
  views : (Command.key, int * int) Hashtbl.t;
  (* master: assignments committing, with the lookups waiting on them *)
  moving : (Command.key, (Address.t * Command.t) list) Hashtbl.t;
  (* owner: consecutive remote accesses per key: (origin zone, count) *)
  streaks : (Command.key, int * int) Hashtbl.t;
  acquiring : (Command.key, acquisition) Hashtbl.t;
  (* old owner: the epoch being handed to a zone, until its claim executes *)
  releasing : (Command.key, int * int) Hashtbl.t; (* new epoch, its zone *)
  (* old owner: a handoff that overtook this zone's own acquisition *)
  early : (Command.key, int * int) Hashtbl.t; (* new epoch, its zone *)
  mutable migrations : int;
}

let executor t = Zone_paxos.executor t.group
let is_zone_leader t = Zone_paxos.is_leader t.group
let my_zone t = Zone_paxos.my_zone t.zones
let is_master t = my_zone t = t.master_zone && is_zone_leader t
let migrations t = t.migrations

let zone_address t zone =
  if zone = my_zone t then t.env.id else Zone_paxos.address t.zones zone

(* zone of the replica that initially owns every object, or -1 *)
let initial_zone t =
  match t.env.config.Config.initial_object_owner with
  | Some owner -> Topology.zone_of t.env.topology (Address.replica owner)
  | None -> -1

let owner_claim t key =
  match Zone_paxos.claim t.group key with
  | Some m -> m
  | None -> if initial_zone t = my_zone t then 1 else 0

let owns t key = owner_claim t key land 1 = 1 && not (Hashtbl.mem t.releasing key)

(* master: (epoch, zone, previous zone), zone -1 when unassigned *)
let assignment t key =
  match Zone_paxos.recorded t.group key with
  | Some v -> (v / zone_bits / zone_bits, v / zone_bits mod zone_bits, (v mod zone_bits) - 1)
  | None -> (0, initial_zone t, -1)

let view t key =
  match Hashtbl.find_opt t.views key with
  | Some (_, zone) -> zone
  | None -> initial_zone t

let assigned_zone t key =
  let zone =
    if my_zone t = t.master_zone then
      let _, zone, _ = assignment t key in
      zone
    else view t key
  in
  if zone >= 0 then Some zone else None

let leader_of_key t key = Option.map (zone_address t) (assigned_zone t key)

let propose t ~client cmd = Zone_paxos.propose t.group ~client cmd

(* ownership moves are one-shot state transfers: post them
   explicitly-acked so a lost hop heals without waiting for a re-send
   (the substrate dedups the duplicate deliveries) *)
let post t dst msg = ignore (t.env.rel.post ~ack:Reliable.Explicit dst msg)

(* A zone-bound message that reached a member which does not lead its
   zone: pass it to the leader it knows of. *)
let relay t msg =
  match Zone_paxos.leader t.group with
  | Some l when l <> t.env.id -> post t l msg
  | _ -> ()

let send_state t key ~gen ~dest =
  post t (zone_address t dest) (VState { key; gen; value = Zone_paxos.value t.group key })

(* Hand epoch [gen - 1] to [dest] for epoch [gen]; the state leaves
   once the claim executes, after every command the zone ran on the
   object. *)
let release t key ~gen ~dest =
  if not (Hashtbl.mem t.releasing key) then begin
    Hashtbl.replace t.releasing key (gen, dest);
    Zone_paxos.give t.group key ~gen:(gen - 1)
  end

(* Take epoch [gen] over with [value]; requests wait until the claim
   executes. *)
let install t key ~gen ~value =
  match Hashtbl.find_opt t.acquiring key with
  | Some a when a.installing && a.gen >= gen -> ()
  | found ->
      let waiting = match found with Some a -> a.waiting | None -> [] in
      Hashtbl.replace t.acquiring key { gen; prev = -1; installing = true; waiting };
      Zone_paxos.take t.group key ~gen value

(* While a new owner waits for the state, it reminds the previous
   owner's members of the move (each passes it to its leader): the
   previous leader may have lost it with its zone. *)
let rec nudge t key a =
  ignore
  @@ t.env.schedule t.env.config.Config.failover_timeout_ms (fun () ->
         match Hashtbl.find_opt t.acquiring key with
         | Some a' when a' == a && (not a.installing) && is_zone_leader t ->
             List.iter
               (fun dst ->
                 post t dst (VAssign { key; zone = my_zone t; gen = a.gen; prev = a.prev }))
               (Zone_paxos.members t.zones a.prev);
             nudge t key a
         | _ -> ())

(* An assignment of epoch [gen] to [zone], taken over from [prev]: the
   new owner waits for the state (none when the object never had an
   owner), the previous owner hands it off. Runs at every zone leader
   the master tells, and at the master's own zone. *)
let on_assign t key ~gen ~zone ~prev =
  (match Hashtbl.find_opt t.views key with
  | Some (g, _) when g >= gen -> ()
  | _ -> Hashtbl.replace t.views key (gen, zone));
  let m = owner_claim t key in
  if zone = my_zone t then begin
    if m < (2 * gen) + 1 && not (Hashtbl.mem t.acquiring key) then
      if prev < 0 then install t key ~gen ~value:None
      else begin
        let a = { gen; prev; installing = false; waiting = [] } in
        Hashtbl.replace t.acquiring key a;
        nudge t key a
      end
  end
  else if prev = my_zone t then
    if m = (2 * (gen - 1)) + 1 then release t key ~gen ~dest:zone
    else if m = 2 * (gen - 1) then send_state t key ~gen ~dest:zone
    else if m < 2 * (gen - 1) then Hashtbl.replace t.early key (gen, zone)

let notify t key ~gen ~zone ~prev dsts =
  List.iter
    (fun z ->
      if z = my_zone t then on_assign t key ~gen ~zone ~prev
      else post t (zone_address t z) (VAssign { key; zone; gen; prev }))
    (List.sort_uniq compare dsts)

(* ---- master config plane ------------------------------------------ *)

let commit_assignment t key ~gen ~zone ~prev =
  Zone_paxos.record t.group key ~gen ((((gen * zone_bits) + zone) * zone_bits) + prev + 1)

let master_on_lookup t key ~zone ~client (cmd : Command.t) =
  match Hashtbl.find_opt t.moving key with
  | Some queued -> Hashtbl.replace t.moving key ((client, cmd) :: queued)
  | None ->
      let gen, owner, prev = assignment t key in
      if owner >= 0 then begin
        (* tell the asker, and the owner in case it missed its epoch *)
        notify t key ~gen ~zone:owner ~prev [ zone; owner ];
        t.env.forward (zone_address t owner) ~client cmd
      end
      else begin
        (* never assigned: the asker's zone takes it, with no state *)
        Hashtbl.replace t.moving key [ (client, cmd) ];
        commit_assignment t key ~gen:1 ~zone ~prev:(-1)
      end

let master_on_migrate t key ~to_zone ~gen =
  if not (Hashtbl.mem t.moving key) then begin
    let g, owner, prev = assignment t key in
    if g = gen && owner >= 0 && owner <> to_zone then begin
      Hashtbl.replace t.moving key [];
      t.migrations <- t.migrations + 1;
      commit_assignment t key ~gen:(g + 1) ~zone:to_zone ~prev:owner
    end
    else if g > gen && owner >= 0 then
      (* asked by a former owner that missed the move *)
      notify t key ~gen:g ~zone:owner ~prev [ owner; prev ]
  end

let master_assigned t key ~gen ~zone ~prev =
  match Hashtbl.find_opt t.moving key with
  | Some queued when is_master t ->
      Hashtbl.remove t.moving key;
      notify t key ~gen ~zone ~prev (List.init (Zone_paxos.count t.zones) Fun.id);
      List.iter
        (fun (client, cmd) -> t.env.forward (zone_address t zone) ~client cmd)
        (List.rev queued)
  | _ -> ()

(* ---- data plane ---------------------------------------------------- *)

let note_access t key ~origin ~client (cmd : Command.t) =
  propose t ~client cmd;
  if origin = my_zone t then Hashtbl.remove t.streaks key
  else begin
    let zone, count =
      match Hashtbl.find_opt t.streaks key with
      | Some (z, c) when z = origin -> (z, c + 1)
      | _ -> (origin, 1)
    in
    Hashtbl.replace t.streaks key (zone, count);
    if count >= t.env.config.Config.migration_threshold then begin
      Hashtbl.remove t.streaks key;
      let gen = owner_claim t key / 2 in
      if is_master t then master_on_migrate t key ~to_zone:zone ~gen
      else
        post t (zone_address t t.master_zone) (VMigrateReq { key; to_zone = zone; gen })
    end
  end

let route t key ~client (cmd : Command.t) =
  match Hashtbl.find_opt t.acquiring key with
  | Some a -> a.waiting <- a.waiting @ [ (client, cmd) ]
  | None ->
      if owns t key then
        note_access t key ~origin:(Topology.zone_of t.env.topology client) ~client cmd
      else if is_master t then
        let _, owner, _ = assignment t key in
        if owner >= 0 && owner <> my_zone t then
          t.env.forward (zone_address t owner) ~client cmd
        else master_on_lookup t key ~zone:(my_zone t) ~client cmd
      else
        let zone = view t key in
        if zone >= 0 && zone <> my_zone t then
          t.env.forward (zone_address t zone) ~client cmd
        else
          post t (zone_address t t.master_zone)
            (VLookup { key; zone = my_zone t; client; cmd })

let installed t key ~gen =
  match Hashtbl.find_opt t.acquiring key with
  | Some a when a.gen = gen ->
      Hashtbl.remove t.acquiring key;
      List.iter (fun (client, cmd) -> route t key ~client cmd) a.waiting;
      (match Hashtbl.find_opt t.early key with
      | Some (g, dest) when g = gen + 1 ->
          Hashtbl.remove t.early key;
          release t key ~gen:g ~dest
      | _ -> ())
  | _ -> ()

let on_state t key ~gen ~value =
  if owner_claim t key < (2 * gen) + 1 then install t key ~gen ~value

(* A claim or an assignment committed where it was proposed. *)
let on_committed t key = function
  | Zone_paxos.Claim c when c land 1 = 1 -> installed t key ~gen:(c / 2)
  | Zone_paxos.Claim c -> (
      match Hashtbl.find_opt t.releasing key with
      | Some (g, dest) when g = (c / 2) + 1 ->
          Hashtbl.remove t.releasing key;
          send_state t key ~gen:g ~dest
      | _ -> ())
  | Zone_paxos.Record v ->
      master_assigned t key ~gen:(v / zone_bits / zone_bits)
        ~zone:(v / zone_bits mod zone_bits) ~prev:((v mod zone_bits) - 1)

(* a new term: the previous term's leader-local state is stale *)
let on_lead t =
  Hashtbl.reset t.moving;
  Hashtbl.reset t.streaks;
  Hashtbl.reset t.acquiring;
  Hashtbl.reset t.releasing;
  Hashtbl.reset t.early

let create env =
  let zones = Zone_paxos.zones env in
  let self = ref None in
  let with_t f = Option.iter f !self in
  let t =
    {
      env;
      zones;
      master_zone =
        Stdlib.min env.Proto.config.Config.master_region_index
          (Zone_paxos.count zones - 1);
      group =
        Zone_paxos.create ~env ~wrap:(fun m -> G m)
          ~members:(Zone_paxos.members zones (Zone_paxos.my_zone zones))
          ~on_committed:(fun key c -> with_t (fun t -> on_committed t key c))
          ~on_lead:(fun () -> with_t on_lead);
      views = Hashtbl.create 256;
      moving = Hashtbl.create 16;
      streaks = Hashtbl.create 64;
      acquiring = Hashtbl.create 16;
      releasing = Hashtbl.create 16;
      early = Hashtbl.create 16;
      migrations = 0;
    }
  in
  self := Some t;
  t

let on_request t ~client (cmd : Command.t) =
  if Zone_paxos.admit t.group ~client cmd then
    route t (Command.key cmd) ~client cmd

let on_message t ~src msg =
  match msg with
  | G m -> Zone_paxos.on_message t.group ~src m
  | VLookup { key; zone; client; cmd } ->
      Zone_paxos.heard t.zones ~zone ~src;
      if is_master t then master_on_lookup t key ~zone ~client cmd else relay t msg
  | VMigrateReq { key; to_zone; gen } ->
      if is_master t then master_on_migrate t key ~to_zone ~gen else relay t msg
  | VAssign { key; zone; gen; prev } ->
      Zone_paxos.heard t.zones ~zone:t.master_zone ~src;
      if is_zone_leader t then on_assign t key ~gen ~zone ~prev else relay t msg
  | VState { key; gen; value } ->
      if is_zone_leader t then on_state t key ~gen ~value else relay t msg

let on_start t = Zone_paxos.on_start t.group

(* The zone group recovers through paxos, and with it the ownership
   claims and assignments; the leader-local bookkeeping comes back
   empty. *)
let on_recover t = Zone_paxos.on_recover t.group
