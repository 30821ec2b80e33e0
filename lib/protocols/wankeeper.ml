type message =
  | G of Paxos.message
  | WkRequest of {
      key : Command.key;
      zone : int;
      client : Address.t;
      cmd : Command.t;
    }
  | TokenGrant of {
      key : Command.key;
      gen : int;  (** token generation: serializes grant/retract pairs *)
      value : Command.value option;
      pending : (Address.t * Command.t) list;
    }
  | TokenRetract of { key : Command.key; gen : int }
  | RetractAck of { key : Command.key; gen : int; value : Command.value option }

let name = "wankeeper"
let cpu_factor (_ : Config.t) = 1.0

let message_label = function
  | G g -> Paxos.message_label g
  | WkRequest _ -> "WkRequest"
  | TokenGrant _ -> "TokenGrant"
  | TokenRetract _ -> "TokenRetract"
  | RetractAck _ -> "RetractAck"

(* Token state lives in the zone groups ({!Zone_paxos} claims), so a
   new zone leader finds it. The token's generation counts its grants.
   The master zone claims generation [g] while it holds the token
   (none committed: generation 0) and records the zone each grant goes
   to; a region claims the generation it was granted, and gives it back
   on retraction. *)

(* Master-side per-object bookkeeping, local to the master's term. *)
type token = {
  mutable streak_zone : int;
  mutable streak : int;
  mutable moving : bool; (* a grant or a return is committing *)
  mutable retracting : int; (* generation being retracted, 0 if none *)
  mutable queued : (int * Address.t * Command.t) list;
      (* (zone, client, request), newest first *)
}

type replica = {
  env : message Proto.env;
  zones : Zone_paxos.zones;
  master_zone : int;
  group : Zone_paxos.t;
  tokens : (Command.key, token) Hashtbl.t; (* at the master *)
  (* region leader: grants installing; their requests wait until the
     claim executes, so no command on the object commits in the zone
     before it *)
  acquiring : (Command.key, int * (Address.t * Command.t) list) Hashtbl.t;
  (* region leader: generations being given back *)
  releasing : (Command.key, int) Hashtbl.t;
  (* region leader: retractions that overtook their own grant *)
  early_retracts : (Command.key, int) Hashtbl.t;
  mutable grants : int;
  mutable retractions : int;
}

let executor t = Zone_paxos.executor t.group
let is_zone_leader t = Zone_paxos.is_leader t.group
let in_master_zone t = Zone_paxos.my_zone t.zones = t.master_zone
let is_master t = in_master_zone t && is_zone_leader t
let master t = Zone_paxos.address t.zones t.master_zone
let grants t = t.grants
let retractions t = t.retractions

(* master: (generation, holding zone) *)
let holder t key =
  match Zone_paxos.claim t.group key with
  | None -> (0, t.master_zone)
  | Some c when c land 1 = 1 -> (c / 2, t.master_zone)
  | Some c ->
      ((c / 2) + 1, Option.value (Zone_paxos.recorded t.group key) ~default:t.master_zone)

(* region: the claim, 0 before any grant *)
let region_claim t key = Option.value (Zone_paxos.claim t.group key) ~default:0

let holds t key =
  region_claim t key land 1 = 1 && not (Hashtbl.mem t.releasing key)

let tokens_held t =
  if in_master_zone t then 0 else List.length (Zone_paxos.taken t.group)

let leader_of_key t key =
  if is_master t then
    let _, zone = holder t key in
    Some (if zone = t.master_zone then t.env.id else Zone_paxos.address t.zones zone)
  else if is_zone_leader t && holds t key then Some t.env.id
  else None

let propose t ~client cmd = Zone_paxos.propose t.group ~client cmd

(* A zone-bound message that reached a member which does not lead its
   zone: pass it to the leader it knows of (retries cover a drop). *)
let relay t msg =
  match Zone_paxos.leader t.group with
  | Some l when l <> t.env.id -> t.env.send l msg
  | _ -> ()

(* token moves are one-shot state transfers: post them
   explicitly-acked so a lost hop heals without waiting for a re-send
   (dedup suppresses the duplicate deliveries) *)
let post t dst msg = ignore (t.env.rel.post ~ack:Reliable.Explicit dst msg)

(* ---- master logic ------------------------------------------------ *)

let token t key =
  match Hashtbl.find_opt t.tokens key with
  | Some tok -> tok
  | None ->
      let tok =
        { streak_zone = -1; streak = 0; moving = false; retracting = 0; queued = [] }
      in
      Hashtbl.add t.tokens key tok;
      tok

(* The master's value of an object is final while another zone holds
   its token: the master runs no command on it meanwhile. *)
let send_grant t key ~gen ~dst pending =
  post t dst (TokenGrant { key; gen; value = Zone_paxos.value t.group key; pending })

(* Retract generation [gen] from [zone]. A retraction can reach a
   leader that then loses its zone, so while it is outstanding the
   master sends it again, with the grant (a zone that never installed
   the grant installs it and gives it straight back), to every member
   of the zone: each passes it to its leader. *)
let retract t key tok ~gen ~zone =
  if tok.retracting <> gen then begin
    tok.retracting <- gen;
    t.retractions <- t.retractions + 1;
    post t (Zone_paxos.address t.zones zone) (TokenRetract { key; gen });
    let rec again () =
      ignore
      @@ t.env.schedule t.env.config.Config.failover_timeout_ms (fun () ->
             match Hashtbl.find_opt t.tokens key with
             | Some tok' when tok' == tok && tok.retracting = gen && is_master t ->
                 List.iter
                   (fun dst ->
                     send_grant t key ~gen ~dst [];
                     post t dst (TokenRetract { key; gen }))
                   (Zone_paxos.members t.zones zone);
                 again ()
             | _ -> ())
    in
    again ()
  end

let rec master_on_request t key ~zone ~client (cmd : Command.t) =
  let tok = token t key in
  if tok.streak_zone = zone then tok.streak <- tok.streak + 1
  else begin
    tok.streak_zone <- zone;
    tok.streak <- 1
  end;
  if tok.moving then tok.queued <- (zone, client, cmd) :: tok.queued
  else
    let gen, holder = holder t key in
    if holder = t.master_zone then
      if zone <> t.master_zone && tok.streak >= t.env.config.Config.migration_threshold
      then begin
        (* commit the new holder first; the token ships once it
           executes, after every earlier command on the object *)
        tok.moving <- true;
        tok.queued <- [ (zone, client, cmd) ];
        t.grants <- t.grants + 1;
        Zone_paxos.record t.group key ~gen:(gen + 1) zone;
        Zone_paxos.give t.group key ~gen
      end
      else propose t ~client cmd
    else if holder = zone && tok.retracting = 0 then
      (* the holder's leader asks for its own object: it has not
         installed the grant (still in flight, or lost with a leader) *)
      send_grant t key ~gen ~dst:(Zone_paxos.address t.zones zone) [ (client, cmd) ]
    else begin
      tok.queued <- (zone, client, cmd) :: tok.queued;
      retract t key tok ~gen ~zone:holder
    end

(* The token is the master's again, or granted: serve what waited. *)
and master_moved t key =
  match Hashtbl.find_opt t.tokens key with
  | Some tok when tok.moving && is_master t ->
      let gen, zone = holder t key in
      tok.moving <- false;
      let queued = List.rev tok.queued in
      tok.queued <- [];
      let handed, others = List.partition (fun (z, _, _) -> z = zone) queued in
      if zone <> t.master_zone then
        send_grant t key ~gen ~dst:(Zone_paxos.address t.zones zone)
          (List.map (fun (_, client, cmd) -> (client, cmd)) handed);
      List.iter
        (fun (zone, client, cmd) -> master_on_request t key ~zone ~client cmd)
        (if zone <> t.master_zone then others else queued)
  | _ -> ()

let master_on_retract_ack t key ~gen ~value =
  let g, holder = holder t key in
  let tok = token t key in
  if holder <> t.master_zone && g = gen && not tok.moving then begin
    tok.moving <- true;
    tok.retracting <- 0;
    Zone_paxos.take t.group key ~gen value
  end

(* ---- region-leader logic ----------------------------------------- *)

let send_ack t key ~gen =
  post t (master t) (RetractAck { key; gen; value = Zone_paxos.value t.group key })

let ask_master t key ~client cmd =
  t.env.send (master t)
    (WkRequest { key; zone = Zone_paxos.my_zone t.zones; client; cmd })

let region_on_request t key ~client cmd =
  match Hashtbl.find_opt t.acquiring key with
  | Some (gen, pending) ->
      Hashtbl.replace t.acquiring key (gen, pending @ [ (client, cmd) ])
  | None ->
      if holds t key then propose t ~client cmd else ask_master t key ~client cmd

(* Give generation [gen] back; the ack leaves once the claim executes,
   after every command the zone ran on the object. *)
let release t key ~gen =
  if not (Hashtbl.mem t.releasing key) then begin
    Hashtbl.replace t.releasing key gen;
    Zone_paxos.give t.group key ~gen
  end

let on_token_grant t key ~gen ~value ~pending =
  if region_claim t key >= 2 * gen then begin
    (* installed already: a re-sent grant *)
    if holds t key then List.iter (fun (client, cmd) -> propose t ~client cmd) pending
    else begin
      if region_claim t key = 2 * gen then send_ack t key ~gen;
      List.iter (fun (client, cmd) -> ask_master t key ~client cmd) pending
    end
  end
  else
    match Hashtbl.find_opt t.acquiring key with
    | Some (g, held) when g >= gen -> Hashtbl.replace t.acquiring key (g, held @ pending)
    | _ ->
        Hashtbl.replace t.acquiring key (gen, pending);
        Zone_paxos.take t.group key ~gen value

let region_installed t key ~gen =
  match Hashtbl.find_opt t.acquiring key with
  | Some (g, pending) when g = gen ->
      Hashtbl.remove t.acquiring key;
      List.iter (fun (client, cmd) -> propose t ~client cmd) pending;
      if Hashtbl.find_opt t.early_retracts key = Some gen then begin
        (* the retraction overtook this grant: serve the handed-over
           requests, then give the token straight back *)
        Hashtbl.remove t.early_retracts key;
        release t key ~gen
      end
  | _ -> ()

let on_token_retract t key ~gen =
  let m = region_claim t key in
  if m = (2 * gen) + 1 then release t key ~gen
  else if m = 2 * gen then send_ack t key ~gen (* the ack was lost with a leader *)
  else if m < 2 * gen then
    (* the matching grant has not installed yet; give the token back
       once it has *)
    Hashtbl.replace t.early_retracts key gen

(* ---- dispatch ----------------------------------------------------- *)

(* A claim committed where it was proposed. *)
let on_committed t key = function
  | Zone_paxos.Claim _ when in_master_zone t -> master_moved t key
  | Zone_paxos.Claim c when c land 1 = 1 -> region_installed t key ~gen:(c / 2)
  | Zone_paxos.Claim c ->
      Hashtbl.remove t.releasing key;
      send_ack t key ~gen:(c / 2)
  | Zone_paxos.Record _ -> ()

(* a new term: the previous term's leader-local state is stale *)
let on_lead t =
  Hashtbl.reset t.tokens;
  Hashtbl.reset t.acquiring;
  Hashtbl.reset t.releasing;
  Hashtbl.reset t.early_retracts

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
      tokens = Hashtbl.create 256;
      acquiring = Hashtbl.create 16;
      releasing = Hashtbl.create 16;
      early_retracts = Hashtbl.create 16;
      grants = 0;
      retractions = 0;
    }
  in
  self := Some t;
  t

let on_request t ~client (cmd : Command.t) =
  if Zone_paxos.admit t.group ~client cmd then begin
    let key = Command.key cmd in
    if in_master_zone t then master_on_request t key ~zone:t.master_zone ~client cmd
    else region_on_request t key ~client cmd
  end

let on_message t ~src msg =
  match msg with
  | G m -> Zone_paxos.on_message t.group ~src m
  | WkRequest { key; zone; client; cmd } ->
      Zone_paxos.heard t.zones ~zone ~src;
      if is_master t then master_on_request t key ~zone ~client cmd else relay t msg
  | RetractAck { key; gen; value } ->
      if is_master t then master_on_retract_ack t key ~gen ~value else relay t msg
  | TokenGrant { key; gen; value; pending } ->
      Zone_paxos.heard t.zones ~zone:t.master_zone ~src;
      if is_zone_leader t then on_token_grant t key ~gen ~value ~pending else relay t msg
  | TokenRetract { key; gen } ->
      Zone_paxos.heard t.zones ~zone:t.master_zone ~src;
      if is_zone_leader t then on_token_retract t key ~gen else relay t msg

let on_start t = Zone_paxos.on_start t.group

(* The zone group recovers through paxos, and with it the token
   claims; the leader-local bookkeeping comes back empty. *)
let on_recover t = Zone_paxos.on_recover t.group
