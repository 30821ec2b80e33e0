type message =
  | P1a of { key : Command.key; ballot : Ballot.t; frontier : int }
  | P1b of {
      key : Command.key;
      ballot : Ballot.t;
      ok : bool;
      accepted : Cmd_log.report;
          (** from the P1a's frontier up; the new owner commits a slot
              some report says committed as it is, with no P2a *)
    }
  | P2a of {
      key : Command.key;
      ballot : Ballot.t;
      slot : int;
      cmd : Command.t;
      commit_up_to : int;
    }
  | P2b of { key : Command.key; ballot : Ballot.t; slot : int; ok : bool }
  | CommitK of { key : Command.key; slot : int; cmd : Command.t }
  | StealHint of { key : Command.key }
      (** the owner observed enough consecutive accesses from the
          recipient's zone; the recipient should steal the object *)

let name = "wpaxos"
let cpu_factor (_ : Config.t) = 1.0

let message_label = function
  | P1a _ -> "P1a"
  | P1b _ -> "P1b"
  | P2a _ -> "P2a"
  | P2b _ -> "P2b"
  | CommitK _ -> "CommitK"
  | StealHint _ -> "StealHint"

(* An owned slot's open phase-2 round. *)
type flight = {
  tracker : Quorum.t;
  rkey : int;  (** reliable-delivery key of its P2a *)
}

type key_state = {
  px : Cmd_log.instance;  (* the object's Paxos instance and log *)
  flights : (int, flight) Hashtbl.t;  (* by slot, while this replica owns *)
  (* owner-side locality tracking: consecutive requests from one
     remote zone (the three-consecutive-access policy, §5.3). The
     owner sees the globally interleaved request stream, so contended
     objects never trigger adaptation — they stay put, as in the
     paper's conflict experiments. *)
  mutable streak_zone : int;
  mutable streak : int;
  mutable last_migration_ms : float;
}

type replica = {
  env : message Proto.env;
  zones : int list array; (* replica ids per zone *)
  my_zone : int;
  q1 : Quorum.spec;  (* majority in each of Z - fz zones *)
  q2 : Quorum.spec;  (* majority in the own and the fz nearest zones *)
  q2_peers : int list;  (* the other members of the q2 zones *)
  keys : (Command.key, key_state) Hashtbl.t;
  exec : Executor.t;
  mutable steals : int;
}

(* As in the paper's evaluation (§5), one leader per zone: its first
   replica. *)
let zone_leader (t : replica) zone =
  match t.zones.(zone) with l :: _ -> l | [] -> invalid_arg "empty zone"

let is_leader_node t = t.env.id = zone_leader t t.my_zone

let create env =
  let topology = env.Proto.topology and fz = env.Proto.config.Config.fz in
  let zones = Topology.zones topology in
  let my_zone = Topology.zone_of topology (Address.replica env.Proto.id) in
  let my_region = Topology.region_of_replica topology env.Proto.id in
  let rtt z =
    match zones.(z) with
    | r :: _ ->
        Topology.rtt_mean topology my_region
          (Topology.region_of_replica topology r)
    | [] -> infinity
  in
  let q2_zones =
    List.init (Array.length zones) Fun.id
    |> List.filter (fun z -> z <> my_zone)
    |> List.sort (fun a b -> Float.compare (rtt a) (rtt b))
    |> List.filteri (fun rank _ -> rank < fz)
    |> List.cons my_zone
    |> List.map (Array.get zones)
  in
  let majorities zones need_zones =
    Quorum.Zones { zones; need_zones; per_zone = Quorum.Per_zone_majority }
  in
  {
    env;
    zones;
    my_zone;
    q1 =
      majorities (Array.to_list zones)
        (Stdlib.max 1 (Array.length zones - fz));
    q2 = majorities q2_zones (List.length q2_zones);
    q2_peers = List.filter (fun i -> i <> env.Proto.id) (List.concat q2_zones);
    keys = Hashtbl.create 256;
    exec = Executor.create ();
    steals = 0;
  }

let executor t = t.exec
let steals_started t = t.steals

let commit_up_to (ks : key_state) bound =
  if Cmd_log.commit_below ks.px.log bound then Cmd_log.execute ks.px.log

(* Stop retransmitting everything this replica had in flight for one
   object: its steal's P1a and any owner-side P2as. Called wherever
   the replica is preempted for the key — the winner re-proposes. *)
let withdraw_posts t (ks : key_state) =
  Option.iter
    (fun (c : Cmd_log.candidacy) -> t.env.rel.settle_all ~key:c.rkey)
    ks.px.candidacy;
  Hashtbl.iter
    (fun _slot (f : flight) -> t.env.rel.settle_all ~key:f.rkey)
    ks.flights;
  Hashtbl.reset ks.flights

(* The owner's phase-2 quorum for [slot] is complete: commit, execute
   what is now contiguous, and tell everyone. *)
let commit_owned t key ks ~slot (f : flight) =
  Hashtbl.remove ks.flights slot;
  t.env.rel.settle_all ~key:f.rkey;
  if Cmd_log.commit ks.px.log slot then begin
    Cmd_log.execute ks.px.log;
    t.env.broadcast
      (CommitK { key; slot; cmd = Cmd_log.command ks.px.log slot })
  end

(* Open the phase-2 round of an accepted owned slot: cast the own
   vote, post the P2a (with [thrifty], to the phase-2 zones only), and
   commit at once when that vote is the whole quorum (1-replica zones
   with fz = 0: no P2b will arrive). *)
let open_round t key ks ~slot cmd ~thrifty =
  let tracker = Quorum.create t.q2 in
  Quorum.ack tracker t.env.id;
  let commit_up_to = Cmd_log.exec_frontier ks.px.log in
  let msg = P2a { key; ballot = ks.px.ballot; slot; cmd; commit_up_to } in
  let rkey =
    if thrifty then t.env.rel.post_multi ~ack:Reliable.Piggyback t.q2_peers msg
    else t.env.rel.post_all ~ack:Reliable.Piggyback msg
    (* full replication, as in §5 *)
  in
  let f = { tracker; rkey } in
  Hashtbl.replace ks.flights slot f;
  if Quorum.satisfied tracker then commit_owned t key ks ~slot f

let propose t key ks ~client (cmd : Command.t) =
  let slot = Cmd_log.next_slot ks.px.log in
  Cmd_log.propose ks.px.log slot ~ballot:ks.px.ballot ~client cmd;
  open_round t key ks ~slot cmd ~thrifty:t.env.config.Config.thrifty

let key_state t key =
  match Hashtbl.find_opt t.keys key with
  | Some ks -> ks
  | None ->
      let ballot, leading =
        match t.env.config.Config.initial_object_owner with
        | Some owner -> (Ballot.initial ~owner, owner = t.env.id)
        | None -> (Ballot.zero, false)
      in
      let ks =
        {
          px = Cmd_log.instance t.exec t.env ~ballot ~leading;
          flights = Hashtbl.create 8;
          streak_zone = -1;
          streak = 0;
          last_migration_ms = neg_infinity;
        }
      in
      ks.px.propose <- propose t key ks;
      Hashtbl.add t.keys key ks;
      ks

let owns t key = (key_state t key).px.leading

let owner_of t key =
  let b = (key_state t key).px.ballot in
  if b.Ballot.round > 0 then Some b.Ballot.owner else None

let leader_of_key = owner_of

(* Preempted by a higher ballot: withdraw, and forward what is held. *)
let step_down t ks ballot =
  withdraw_posts t ks;
  Cmd_log.defer ks.px ballot;
  Cmd_log.drain ks.px

(* A slot some report says committed is committed as it is: it carries
   state this replica may have missed, and since q1 intersects every
   phase-2 quorum every committed slot is reported by someone. The
   other adopted slots are proposed again. *)
let become_owner t key ks (c : Cmd_log.candidacy) =
  (* stop re-soliciting promises; stragglers learn from P2a/CommitK *)
  t.env.rel.settle_all ~key:c.rkey;
  Cmd_log.elect ks.px c ~adopt:(fun slot cmd ~committed ->
      if committed then ignore (Cmd_log.commit ks.px.log slot)
      else open_round t key ks ~slot cmd ~thrifty:false);
  Cmd_log.execute ks.px.log;
  Cmd_log.drain ks.px

let start_steal t key ks =
  t.steals <- t.steals + 1;
  ks.streak <- 0;
  ks.streak_zone <- -1;
  (* our older in-flight posts (a lost steal, preempted P2as) are
     superseded by this candidacy *)
  withdraw_posts t ks;
  let c = Cmd_log.stand ks.px t.q1 ~rkey:(t.env.rel.fresh ()) in
  let frontier = Cmd_log.exec_frontier ks.px.log in
  ignore
    (t.env.rel.post_all ~key:c.rkey ~ack:Reliable.Piggyback
       (P1a { key; ballot = ks.px.ballot; frontier }));
  (* a single-zone deployment is its own phase-1 quorum *)
  if Quorum.satisfied c.tracker then become_owner t key ks c

(* Minimum time between migrations of the same object: damps ownership
   ping-pong when several regions interleave accesses (uniform
   workloads) without slowing the first adaptation. *)
let migration_cooldown_ms = 2_000.0

(* Owner-side adaptation: count consecutive requests from a single
   remote zone; at the threshold, tell that zone's leader to steal. *)
let note_owner_access t key ks ~client =
  let origin = Topology.zone_of t.env.topology client in
  if origin = t.my_zone then begin
    ks.streak_zone <- -1;
    ks.streak <- 0
  end
  else begin
    if ks.streak_zone = origin then ks.streak <- ks.streak + 1
    else begin
      ks.streak_zone <- origin;
      ks.streak <- 1
    end;
    if
      ks.streak >= t.env.config.Config.migration_threshold
      && t.env.now () -. ks.last_migration_ms >= migration_cooldown_ms
    then begin
      ks.streak <- 0;
      ks.streak_zone <- -1;
      ks.last_migration_ms <- t.env.now ();
      t.env.send (zone_leader t origin) (StealHint { key })
    end
  end

let on_request t ~client (cmd : Command.t) =
  let key = Command.key cmd in
  (* Non-leader replicas hand requests to their zone's leader. *)
  if not (is_leader_node t) then
    t.env.forward (zone_leader t t.my_zone) ~client cmd
  else begin
    let ks = key_state t key in
    if ks.px.leading then begin
      note_owner_access t key ks ~client;
      propose t key ks ~client cmd
    end
    else if ks.px.ballot.Ballot.round = 0 then begin
      (* unowned: claim it *)
      Queue.push (client, cmd) ks.px.pending;
      start_steal t key ks
    end
    else Cmd_log.route ks.px ~client cmd
  end

let on_steal_hint t key =
  if is_leader_node t then begin
    let ks = key_state t key in
    if (not ks.px.leading) && ks.px.candidacy = None then start_steal t key ks
  end

let on_p1a t ~src ~key ~ballot ~frontier =
  let ks = key_state t key in
  if Cmd_log.promises ks.px ~src ballot then begin
    withdraw_posts t ks;
    Cmd_log.defer ks.px ballot;
    let accepted = Cmd_log.report ks.px.log ~start:frontier in
    t.env.send src (P1b { key; ballot; ok = true; accepted });
    Cmd_log.drain ks.px
  end
  else
    t.env.send src
      (P1b { key; ballot = ks.px.ballot; ok = false; accepted = [] })

let on_p1b t ~src ~key ~ballot ~ok ~accepted =
  let ks = key_state t key in
  match ks.px.candidacy with
  | Some c when Ballot.equal ballot ks.px.ballot && ok ->
      t.env.rel.settle ~dst:src ~key:c.rkey;
      if Cmd_log.promised c ~src accepted then become_owner t key ks c
  | Some _ when Ballot.(ballot > ks.px.ballot) ->
      (* lost the steal race; defer to the higher ballot *)
      step_down t ks ballot
  | _ -> ()

let on_p2a t ~src ~key ~ballot ~slot ~cmd ~commit_up_to:bound =
  let ks = key_state t key in
  if Cmd_log.accepts ks.px ballot then begin
    (* the sender's ballot preempts this replica's posts: a P2a is
       never a replica's own *)
    withdraw_posts t ks;
    ignore (Cmd_log.admit ks.px ballot);
    ignore (Cmd_log.accept ks.px.log slot ~ballot cmd);
    commit_up_to ks bound;
    t.env.send src (P2b { key; ballot; slot; ok = true });
    Cmd_log.drain ks.px
  end
  else t.env.send src (P2b { key; ballot = ks.px.ballot; slot; ok = false })

let on_p2b t ~src ~key ~ballot ~slot ~ok =
  let ks = key_state t key in
  if ok && ks.px.leading && Ballot.equal ballot ks.px.ballot then begin
    match Hashtbl.find_opt ks.flights slot with
    | Some f -> (
        t.env.rel.settle ~dst:src ~key:f.rkey;
        (* a slot learned committed meanwhile only stops the timer *)
        if Cmd_log.mem ks.px.log slot && not (Cmd_log.committed ks.px.log slot)
        then begin
          Quorum.ack f.tracker src;
          if Quorum.satisfied f.tracker then commit_owned t key ks ~slot f
        end)
    | None -> ()
  end
  else if (not ok) && Ballot.(ballot > ks.px.ballot) then step_down t ks ballot

let on_commit t ~key ~slot ~cmd =
  let ks = key_state t key in
  Cmd_log.learn ks.px.log slot ~ballot:ks.px.ballot cmd;
  Cmd_log.execute ks.px.log

let on_message t ~src = function
  | P1a { key; ballot; frontier } -> on_p1a t ~src ~key ~ballot ~frontier
  | P1b { key; ballot; ok; accepted } -> on_p1b t ~src ~key ~ballot ~ok ~accepted
  | P2a { key; ballot; slot; cmd; commit_up_to } ->
      on_p2a t ~src ~key ~ballot ~slot ~cmd ~commit_up_to
  | P2b { key; ballot; slot; ok } -> on_p2b t ~src ~key ~ballot ~slot ~ok
  | CommitK { key; slot; cmd } -> on_commit t ~key ~slot ~cmd
  | StealHint { key } -> on_steal_hint t key

let on_start (_ : replica) = ()

(* Nothing here persists, yet [Config.validate] accepts [Config.storage]
   and the cluster then arms real crashes: the fresh replica at a
   recovery edge rejoins with an empty log and state machine (ROADMAP,
   "Every configuration `validate` accepts is one the protocol honours"). *)
let on_recover = on_start
