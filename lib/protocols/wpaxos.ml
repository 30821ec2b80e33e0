type message =
  | P1a of { key : Command.key; ballot : Ballot.t; frontier : int }
  | P1b of {
      key : Command.key;
      ballot : Ballot.t;
      ok : bool;
      accepted : (int * Ballot.t * Command.t * bool) list;
          (** slot, ballot, command, committed? — committed entries let
              the new owner catch up on state it missed *)
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

type phase1_state = {
  tracker : Quorum.t;
  mutable recovered : (int * Ballot.t * Command.t * bool) list;
  rkey : int;  (** reliable-delivery key of the steal's P1a broadcast *)
}

type key_state = {
  mutable ballot : Ballot.t;
  mutable owner_active : bool; (* this replica completed phase-1 *)
  log : Cmd_log.t;
  flights : (int, flight) Hashtbl.t;  (* by slot, while this replica owns *)
  mutable p1 : phase1_state option;
  pending : (Address.t * Command.t) Queue.t;
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
  let topology = env.Proto.topology in
  {
    env;
    zones = Topology.zones topology;
    my_zone = Topology.zone_of topology (Address.replica env.Proto.id);
    keys = Hashtbl.create 256;
    exec = Executor.create ();
    steals = 0;
  }

let key_state t key =
  match Hashtbl.find_opt t.keys key with
  | Some ks -> ks
  | None ->
      let ballot, owner_active =
        match t.env.config.Config.initial_object_owner with
        | Some owner -> (Ballot.initial ~owner, owner = t.env.id)
        | None -> (Ballot.zero, false)
      in
      let ks =
        {
          ballot;
          owner_active;
          log = Cmd_log.create t.exec t.env;
          flights = Hashtbl.create 8;
          p1 = None;
          pending = Queue.create ();
          streak_zone = -1;
          streak = 0;
          last_migration_ms = neg_infinity;
        }
      in
      Hashtbl.add t.keys key ks;
      ks

let executor t = t.exec
let owns t key = (key_state t key).owner_active

let owner_of t key =
  let ks = key_state t key in
  if ks.ballot.Ballot.round > 0 then Some ks.ballot.Ballot.owner else None

let leader_of_key = owner_of
let steals_started t = t.steals

let n_zones t = Array.length t.zones

(* Phase-1 quorum: majority in each of Z - fz zones. *)
let q1_spec t =
  let need = Stdlib.max 1 (n_zones t - t.env.config.Config.fz) in
  Quorum.Zones
    {
      zones = Array.to_list t.zones;
      need_zones = need;
      per_zone = Quorum.Per_zone_majority;
    }

(* Phase-2 zones: own zone plus the fz nearest others. *)
let q2_zones t =
  let fz = t.env.config.Config.fz in
  let my_region = Topology.region_of_replica t.env.topology t.env.id in
  let others =
    List.init (n_zones t) (fun z -> z)
    |> List.filter (fun z -> z <> t.my_zone)
    |> List.sort (fun a b ->
           let d z =
             match t.zones.(z) with
             | r :: _ ->
                 Topology.rtt_mean t.env.topology my_region
                   (Topology.region_of_replica t.env.topology r)
             | [] -> infinity
           in
           Float.compare (d a) (d b))
  in
  let chosen = List.filteri (fun rank _ -> rank < fz) others in
  t.my_zone :: chosen

let q2_spec t =
  let zs = q2_zones t in
  Quorum.Zones
    {
      zones = List.map (fun z -> t.zones.(z)) zs;
      need_zones = List.length zs;
      per_zone = Quorum.Per_zone_majority;
    }

let commit_up_to (ks : key_state) bound =
  if Cmd_log.commit_below ks.log bound then Cmd_log.execute ks.log

(* Stop retransmitting everything this replica had in flight for one
   object: its steal's P1a and any owner-side P2as. Called wherever
   the replica is preempted for the key — the winner re-proposes. *)
let withdraw_posts t (ks : key_state) =
  (match ks.p1 with
  | Some st when st.rkey <> 0 -> t.env.rel.settle_all ~key:st.rkey
  | _ -> ());
  Hashtbl.iter
    (fun _slot (f : flight) -> t.env.rel.settle_all ~key:f.rkey)
    ks.flights;
  Hashtbl.reset ks.flights

(* The owner's phase-2 quorum for [slot] is complete: commit, execute
   what is now contiguous, and tell everyone. *)
let commit_owned t key ks ~slot (f : flight) =
  Hashtbl.remove ks.flights slot;
  t.env.rel.settle_all ~key:f.rkey;
  if Cmd_log.commit ks.log slot then begin
    Cmd_log.execute ks.log;
    t.env.broadcast (CommitK { key; slot; cmd = Cmd_log.command ks.log slot })
  end

(* Open the phase-2 round of an accepted owned slot: cast the own
   vote, post the P2a (with [thrifty], to the phase-2 zones only), and
   commit at once when that vote is the whole quorum (1-replica zones
   with fz = 0: no P2b will arrive). *)
let open_round t key ks ~slot cmd ~thrifty =
  let tracker = Quorum.create (q2_spec t) in
  Quorum.ack tracker t.env.id;
  let commit_up_to = Cmd_log.exec_frontier ks.log in
  let msg = P2a { key; ballot = ks.ballot; slot; cmd; commit_up_to } in
  let rkey =
    if thrifty then
      let dsts =
        List.concat_map (fun z -> t.zones.(z)) (q2_zones t)
        |> List.filter (fun i -> i <> t.env.id)
      in
      t.env.rel.post_multi ~ack:Reliable.Piggyback dsts msg
    else t.env.rel.post_all ~ack:Reliable.Piggyback msg
    (* full replication, as in §5 *)
  in
  let f = { tracker; rkey } in
  Hashtbl.replace ks.flights slot f;
  if Quorum.satisfied tracker then commit_owned t key ks ~slot f

let propose t key ks ~client (cmd : Command.t) =
  let slot = Cmd_log.next_slot ks.log in
  Cmd_log.propose ks.log slot ~ballot:ks.ballot ~client cmd;
  open_round t key ks ~slot cmd ~thrifty:t.env.config.Config.thrifty

let drain_pending t key ks =
  if ks.owner_active then
    while not (Queue.is_empty ks.pending) do
      let client, cmd = Queue.pop ks.pending in
      propose t key ks ~client cmd
    done
  else if
    ks.ballot.Ballot.round > 0
    && ks.ballot.Ballot.owner <> t.env.id
    && ks.p1 = None
  then
    while not (Queue.is_empty ks.pending) do
      let client, cmd = Queue.pop ks.pending in
      t.env.forward ks.ballot.Ballot.owner ~client cmd
    done

let become_owner t key ks (state : phase1_state) =
  ks.p1 <- None;
  ks.owner_active <- true;
  (* stop re-soliciting promises; stragglers learn from P2a/CommitK *)
  t.env.rel.settle_all ~key:state.rkey;
  (* Committed entries reported by the quorum are adopted as-is (they
     carry state the stealer may have missed — q1 intersects every
     phase-2 quorum, so every committed slot is reported by someone);
     uncommitted slots adopt the highest-ballot command and are
     re-proposed; unreported gaps become no-ops. *)
  let best = Hashtbl.create 8 in
  List.iter
    (fun (slot, b, cmd, committed) ->
      match Hashtbl.find_opt best slot with
      | Some (_, _, true) -> ()
      | Some (b', _, false) when committed || Ballot.(b > b') ->
          Hashtbl.replace best slot (b, cmd, committed)
      | Some _ -> ()
      | None -> Hashtbl.replace best slot (b, cmd, committed))
    state.recovered;
  let max_slot = Hashtbl.fold (fun s _ acc -> Stdlib.max s acc) best (-1) in
  for slot = Cmd_log.exec_frontier ks.log to max_slot do
    let cmd, already_committed =
      match Hashtbl.find_opt best slot with
      | Some (_, cmd, committed) -> (cmd, committed)
      | None -> (Command.noop, false)
    in
    if Cmd_log.accept ks.log slot ~ballot:ks.ballot cmd then
      if already_committed then ignore (Cmd_log.commit ks.log slot)
      else
        open_round t key ks ~slot cmd ~thrifty:false
  done;
  Cmd_log.execute ks.log;
  drain_pending t key ks

let start_steal t key ks =
  t.steals <- t.steals + 1;
  ks.ballot <- Ballot.next ks.ballot ~owner:t.env.id;
  ks.owner_active <- false;
  ks.streak <- 0;
  ks.streak_zone <- -1;
  (* our older in-flight posts (a lost steal, preempted P2as) are
     superseded by this candidacy *)
  withdraw_posts t ks;
  let tracker = Quorum.create (q1_spec t) in
  let state = { tracker; recovered = []; rkey = t.env.rel.fresh () } in
  ks.p1 <- Some state;
  Quorum.ack tracker t.env.id;
  let frontier = Cmd_log.exec_frontier ks.log in
  Cmd_log.iter_from ks.log ~start:frontier ~f:(fun slot e ->
      state.recovered <-
        (slot, e.Cmd_log.ballot, e.cmd, e.committed) :: state.recovered);
  ignore
    (t.env.rel.post_all ~key:state.rkey ~ack:Reliable.Piggyback
       (P1a { key; ballot = ks.ballot; frontier }));
  (* a single-zone deployment is its own phase-1 quorum *)
  if Quorum.satisfied tracker then become_owner t key ks state

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
    if ks.owner_active then begin
      note_owner_access t key ks ~client;
      propose t key ks ~client cmd
    end
    else if ks.p1 <> None then Queue.push (client, cmd) ks.pending
    else if ks.ballot.Ballot.round = 0 then begin
      (* unowned: claim it *)
      Queue.push (client, cmd) ks.pending;
      start_steal t key ks
    end
    else t.env.forward ks.ballot.Ballot.owner ~client cmd
  end

let on_steal_hint t key =
  if is_leader_node t then begin
    let ks = key_state t key in
    if (not ks.owner_active) && ks.p1 = None then start_steal t key ks
  end

let on_p1a t ~src ~key ~ballot ~frontier =
  let ks = key_state t key in
  (* Acking is correct not only for strictly higher ballots but also
     when we already sit at this exact ballot with [src] as its owner:
     the promise is idempotent, and we may have adopted the ballot
     through a nok [P2b] (preemption) or a duplicate [P1a]
     (retransmission) before the steal's own [P1a] reached us.
     Without the re-ack a 2-replica zone can wedge a steal forever:
     the preempted owner's vote is mandatory there, and it would
     refuse the very ballot it already deferred to. *)
  if
    Ballot.(ballot > ks.ballot)
    || (Ballot.equal ballot ks.ballot && ballot.Ballot.owner = src)
  then begin
    withdraw_posts t ks;
    ks.ballot <- ballot;
    ks.owner_active <- false;
    ks.p1 <- None;
    let accepted = ref [] in
    Cmd_log.iter_from ks.log ~start:frontier ~f:(fun slot e ->
        accepted := (slot, e.Cmd_log.ballot, e.cmd, e.committed) :: !accepted);
    t.env.send src (P1b { key; ballot; ok = true; accepted = !accepted });
    drain_pending t key ks
  end
  else
    t.env.send src (P1b { key; ballot = ks.ballot; ok = false; accepted = [] })

let on_p1b t ~src ~key ~ballot ~ok ~accepted =
  let ks = key_state t key in
  match ks.p1 with
  | Some state when Ballot.equal ballot ks.ballot && ok ->
      t.env.rel.settle ~dst:src ~key:state.rkey;
      state.recovered <- accepted @ state.recovered;
      Quorum.ack state.tracker src;
      if Quorum.satisfied state.tracker then become_owner t key ks state
  | Some _ when Ballot.(ballot > ks.ballot) ->
      (* lost the steal race; defer to the higher ballot *)
      withdraw_posts t ks;
      ks.ballot <- ballot;
      ks.p1 <- None;
      ks.owner_active <- false;
      drain_pending t key ks
  | _ -> ()

let on_p2a t ~src ~key ~ballot ~slot ~cmd ~commit_up_to:bound =
  let ks = key_state t key in
  if Ballot.(ballot >= ks.ballot) then begin
    ks.ballot <- ballot;
    if ballot.Ballot.owner <> t.env.id then begin
      withdraw_posts t ks;
      ks.owner_active <- false;
      ks.p1 <- None
    end;
    ignore (Cmd_log.accept ks.log slot ~ballot cmd);
    commit_up_to ks bound;
    t.env.send src (P2b { key; ballot; slot; ok = true });
    drain_pending t key ks
  end
  else t.env.send src (P2b { key; ballot = ks.ballot; slot; ok = false })

let on_p2b t ~src ~key ~ballot ~slot ~ok =
  let ks = key_state t key in
  if ok && ks.owner_active && Ballot.equal ballot ks.ballot then begin
    match Hashtbl.find_opt ks.flights slot with
    | Some f -> (
        t.env.rel.settle ~dst:src ~key:f.rkey;
        (* a slot learned committed meanwhile only stops the timer *)
        if Cmd_log.mem ks.log slot && not (Cmd_log.committed ks.log slot)
        then begin
          Quorum.ack f.tracker src;
          if Quorum.satisfied f.tracker then commit_owned t key ks ~slot f
        end)
    | None -> ()
  end
  else if (not ok) && Ballot.(ballot > ks.ballot) then begin
    withdraw_posts t ks;
    ks.ballot <- ballot;
    ks.owner_active <- false;
    ks.p1 <- None;
    drain_pending t key ks
  end

let on_commit t ~key ~slot ~cmd =
  let ks = key_state t key in
  Cmd_log.learn ks.log slot ~ballot:ks.ballot cmd;
  Cmd_log.execute ks.log

let on_message t ~src = function
  | P1a { key; ballot; frontier } -> on_p1a t ~src ~key ~ballot ~frontier
  | P1b { key; ballot; ok; accepted } -> on_p1b t ~src ~key ~ballot ~ok ~accepted
  | P2a { key; ballot; slot; cmd; commit_up_to } ->
      on_p2a t ~src ~key ~ballot ~slot ~cmd ~commit_up_to
  | P2b { key; ballot; slot; ok } -> on_p2b t ~src ~key ~ballot ~slot ~ok
  | CommitK { key; slot; cmd } -> on_commit t ~key ~slot ~cmd
  | StealHint { key } -> on_steal_hint t key

let on_start (_ : replica) = ()

(* In-memory protocol: a crash-recovery edge reboots it from scratch
   (no durable state to reload) — the cluster engine only pairs
   [Config.storage] with protocols that persist, so this is a
   rejoin-from-zero fallback. *)
let on_recover = on_start
