type message =
  | MAccept of { slot : int; cmd : Command.t; commit_up_to : int }
  | MAcceptOk of { slot : int }
  | MSkip of { from_slot : int; upto : int }
      (** the sender commits no-ops in its owned slots in
          [\[from_slot, upto)] — all unused at the sender, so they can
          never carry a proposal *)
  | MCommit of { slot : int; cmd : Command.t }

let name = "mencius"
let cpu_factor (_ : Config.t) = 1.0

let message_label = function
  | MAccept _ -> "MAccept"
  | MAcceptOk _ -> "MAcceptOk"
  | MSkip _ -> "MSkip"
  | MCommit _ -> "MCommit"

type replica = {
  env : message Proto.env;
  log : Cmd_log.t;
  exec : Executor.t;
  flights : (int, Quorum.t) Hashtbl.t;
      (* own slots awaiting their accept majority *)
  mutable next_own : int; (* smallest unused owned slot *)
  mutable skips : int;
}

let create (env : _ Proto.env) =
  let exec = Executor.create () in
  {
    env;
    log = Cmd_log.create exec env;
    exec;
    flights = Hashtbl.create 16;
    next_own = env.Proto.id;
    skips = 0;
  }

let executor t = t.exec
let next_owned_slot t = t.next_own
let skips_issued t = t.skips
let leader_of_key (t : replica) (_ : Command.key) = Some t.env.id

let all_ids (t : replica) = List.init t.env.n (fun i -> i)

let advance t = Cmd_log.execute t.log
let commit_up_to t bound = if Cmd_log.commit_below t.log bound then advance t

(* Commit no-ops in [owner_id]'s slots within [from_slot, upto).
   [from_slot] is the owner's first unused slot at announce time, so
   no proposal can ever occupy the skipped range. *)
let apply_skip t ~owner_id ~from_slot ~upto =
  let n = t.env.n in
  (* first owned slot of owner_id at or above from_slot *)
  let slot = ref (owner_id + (((Stdlib.max 0 (from_slot - owner_id)) + n - 1) / n * n)) in
  while !slot < upto do
    Cmd_log.learn t.log !slot ~ballot:Ballot.zero Command.noop;
    slot := !slot + n
  done;
  advance t

let skip_own_below t upto =
  if upto > t.next_own then begin
    t.skips <- t.skips + 1;
    let from_slot = t.next_own in
    apply_skip t ~owner_id:t.env.id ~from_slot ~upto;
    (* our next own slot jumps past everything we skipped *)
    let n = t.env.n in
    let k = (upto - t.env.id + n - 1) / n in
    t.next_own <- t.env.id + (k * n);
    t.env.broadcast (MSkip { from_slot; upto })
  end

let on_request t ~client (cmd : Command.t) =
  let slot = t.next_own in
  t.next_own <- slot + t.env.n;
  let tracker = Quorum.create (Quorum.Majority (all_ids t)) in
  Quorum.ack tracker t.env.id;
  Cmd_log.propose t.log slot ~ballot:Ballot.zero ~client cmd;
  t.env.broadcast
    (MAccept
       { slot; cmd; commit_up_to = Cmd_log.exec_frontier t.log });
  (* at n = 1 the self-ack is already a majority: no MAcceptOk will
     ever arrive to complete it *)
  if Quorum.satisfied tracker then begin
    ignore (Cmd_log.commit t.log slot);
    advance t
  end
  else Hashtbl.replace t.flights slot tracker

let on_accept t ~src ~slot ~cmd ~commit_up_to:bound =
  ignore (Cmd_log.accept t.log slot ~ballot:Ballot.zero cmd);
  commit_up_to t bound;
  (* another owner is at [slot]; skip our own stale slots below it so
     the frontier can advance without us *)
  skip_own_below t slot;
  t.env.send src (MAcceptOk { slot })

let on_accept_ok t ~src ~slot =
  match Hashtbl.find_opt t.flights slot with
  | Some tracker ->
      Quorum.ack tracker src;
      if Quorum.satisfied tracker then begin
        Hashtbl.remove t.flights slot;
        if Cmd_log.commit t.log slot then begin
          advance t;
          t.env.broadcast (MCommit { slot; cmd = Cmd_log.command t.log slot })
        end
      end
  | None -> ()

let on_commit t ~slot ~cmd =
  Cmd_log.learn t.log slot ~ballot:Ballot.zero cmd;
  advance t;
  skip_own_below t slot

let on_skip t ~src ~from_slot ~upto =
  apply_skip t ~owner_id:src ~from_slot ~upto

let on_message t ~src = function
  | MAccept { slot; cmd; commit_up_to } -> on_accept t ~src ~slot ~cmd ~commit_up_to
  | MAcceptOk { slot } -> on_accept_ok t ~src ~slot
  | MSkip { from_slot; upto } -> on_skip t ~src ~from_slot ~upto
  | MCommit { slot; cmd } -> on_commit t ~slot ~cmd

let on_start (_ : replica) = ()

(* In-memory protocol: a crash-recovery edge reboots it from scratch
   (no durable state to reload) — the cluster engine only pairs
   [Config.storage] with protocols that persist, so this is a
   rejoin-from-zero fallback. *)
let on_recover = on_start
