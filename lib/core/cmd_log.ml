type entry = { ballot : Ballot.t; cmd : Command.t; committed : bool }

(* A slot's meta word: its accepted ballot ([Ballot.pack]) above the
   commit bit. *)
let committed_bit = 1
let word ballot ~committed = (Ballot.pack ballot lsl 1) lor committed
let is_committed m = m land committed_bit <> 0
let uncommitted m = m land committed_bit = 0
let with_commit m = m lor committed_bit

type t = {
  slots : Slot_log.t;
  exec : Executor.t;
  reply : Address.t -> Proto.reply -> unit;
  replier : int;
  hint : int option;  (** [Some replier], built once *)
  mutable leading : unit -> bool;
  mutable apply : (int -> Command.t -> Command.value option -> unit) option;
  mutable step : int -> unit;  (** [run] on this log, built once *)
}

(* Execute one slot the frontier just passed: apply, run the hook,
   answer the recorded client. The reply reads the slot's command
   after the hook, as a re-entrant learn may have replaced it. *)
let run t slot =
  let read = Executor.execute t.exec (Slot_log.cmd t.slots slot) in
  (match t.apply with
  | Some f -> f slot (Slot_log.cmd t.slots slot) read
  | None -> ());
  let client = Slot_log.take_client t.slots slot in
  if client <> Slot_log.no_client then
    t.reply (Address.of_code client)
      {
        Proto.command = Slot_log.cmd t.slots slot;
        read;
        replier = t.replier;
        leader_hint = (if t.leading () then t.hint else None);
      }

let create exec (env : _ Proto.env) =
  let t =
    {
      slots = Slot_log.create ();
      exec;
      reply = env.Proto.reply;
      replier = env.Proto.id;
      hint = Some env.Proto.id;
      leading = (fun () -> false);
      apply = None;
      step = ignore;
    }
  in
  t.step <- run t;
  t

let set_leading t f = t.leading <- f
let set_apply t f = t.apply <- Some f

let view t slot =
  let m = Slot_log.meta t.slots slot in
  {
    ballot = Ballot.unpack (m lsr 1);
    cmd = Slot_log.cmd t.slots slot;
    committed = is_committed m;
  }

let get t slot = if Slot_log.mem t.slots slot then Some (view t slot) else None
let mem t slot = Slot_log.mem t.slots slot
let command t slot = Slot_log.cmd t.slots slot

let committed t slot =
  Slot_log.mem t.slots slot && is_committed (Slot_log.meta t.slots slot)

let take_client t slot =
  let code = Slot_log.take_client t.slots slot in
  if code = Slot_log.no_client then None else Some (Address.of_code code)

let exec_frontier t = Slot_log.exec_frontier t.slots
let next_slot t = Slot_log.next_slot t.slots

type report = (int * entry) list

let report t ~start =
  let r = ref [] in
  Slot_log.iter_from t.slots ~start ~f:(fun s -> r := (s, view t s) :: !r);
  !r

let propose t slot ~ballot ~client cmd =
  Slot_log.set t.slots slot ~meta:(word ballot ~committed:0) cmd;
  Slot_log.set_client t.slots slot client

(* A different command in a filled slot displaces its client. *)
let replace t slot ~meta cmd =
  if not (Command.equal (Slot_log.cmd t.slots slot) cmd) then
    ignore (Slot_log.take_client t.slots slot);
  Slot_log.update t.slots slot ~meta cmd

let accept t slot ~ballot cmd =
  if not (Slot_log.mem t.slots slot) then begin
    Slot_log.set t.slots slot ~meta:(word ballot ~committed:0) cmd;
    true
  end
  else if is_committed (Slot_log.meta t.slots slot) then false
  else begin
    replace t slot ~meta:(word ballot ~committed:0) cmd;
    true
  end

let learn t slot ~ballot cmd =
  if Slot_log.mem t.slots slot then
    replace t slot ~meta:(with_commit (Slot_log.meta t.slots slot)) cmd
  else Slot_log.set t.slots slot ~meta:(word ballot ~committed:committed_bit) cmd

let commit t slot =
  let m = Slot_log.meta t.slots slot in
  if Slot_log.mem t.slots slot && uncommitted m then begin
    Slot_log.set_meta t.slots slot (with_commit m);
    true
  end
  else false

let commit_below t bound =
  Slot_log.commit_below t.slots bound ~pending:uncommitted ~mark:with_commit

let execute t =
  Slot_log.advance_frontier t.slots ~executable:is_committed ~f:t.step

(* ---- one multi-Paxos instance ---------------------------------------- *)

type candidacy = { tracker : Quorum.t; mutable reports : report; rkey : int }

type instance = {
  log : t;
  self : int;
  forward : int -> client:Address.t -> Command.t -> unit;
  mutable ballot : Ballot.t;
  mutable leading : bool;
  mutable candidacy : candidacy option;
  pending : (Address.t * Command.t) Queue.t;
  mutable propose : client:Address.t -> Command.t -> unit;
}

let instance exec (env : _ Proto.env) ~ballot ~leading =
  {
    log = create exec env;
    self = env.Proto.id;
    forward = env.Proto.forward;
    ballot;
    leading;
    candidacy = None;
    pending = Queue.create ();
    propose = (fun ~client:_ _ -> ());
  }

let defer i ballot =
  if Ballot.(ballot > i.ballot) then i.ballot <- ballot;
  i.leading <- false;
  i.candidacy <- None

(* The held ballot is promised again to its owner: the replica may have
   taken it from a nok P2b or a duplicate P1a before this copy came.
   Refusing would answer a retransmitted P1a nok forever once its P1b
   was lost, and wedge a wpaxos steal in a 2-replica zone, where the
   preempted owner's vote is mandatory. *)
let promises i ~src ballot =
  Ballot.(ballot > i.ballot)
  || (Ballot.equal ballot i.ballot && ballot.Ballot.owner = src)

let accepts i ballot = Ballot.(ballot >= i.ballot)

let admit i ballot =
  let deposed = i.leading && ballot.Ballot.owner <> i.self in
  i.ballot <- ballot;
  if ballot.Ballot.owner <> i.self then defer i ballot;
  deposed

let stand i spec ~rkey =
  i.ballot <- Ballot.next i.ballot ~owner:i.self;
  i.leading <- false;
  let c = { tracker = Quorum.create spec; reports = []; rkey } in
  i.candidacy <- Some c;
  Quorum.ack c.tracker i.self;
  c.reports <- report i.log ~start:(exec_frontier i.log);
  c

let promised c ~src reports =
  c.reports <- reports @ c.reports;
  Quorum.ack c.tracker src;
  Quorum.satisfied c.tracker

let elect i c ~adopt =
  i.candidacy <- None;
  i.leading <- true;
  let best = Hashtbl.create 16 in
  List.iter
    (fun (slot, (e : entry)) ->
      match Hashtbl.find_opt best slot with
      | None -> Hashtbl.replace best slot e
      | Some (b : entry) ->
          let won = if Ballot.(e.ballot > b.ballot) then e else b in
          Hashtbl.replace best slot
            { won with committed = b.committed || e.committed })
    c.reports;
  let last = Hashtbl.fold (fun slot _ acc -> Int.max slot acc) best (-1) in
  for slot = exec_frontier i.log to last do
    let cmd, committed =
      match Hashtbl.find_opt best slot with
      | Some e -> (e.cmd, e.committed)
      | None -> (Command.noop, false)
    in
    if accept i.log slot ~ballot:i.ballot cmd then adopt slot cmd ~committed
  done

let forwards i =
  i.ballot.Ballot.round > 0
  && i.ballot.Ballot.owner <> i.self
  && Option.is_none i.candidacy

let route i ~client cmd =
  if forwards i then i.forward i.ballot.Ballot.owner ~client cmd
  else Queue.push (client, cmd) i.pending

let drain i =
  let forwarding = (not i.leading) && forwards i in
  if i.leading || forwarding then
    while not (Queue.is_empty i.pending) do
      let client, cmd = Queue.pop i.pending in
      if forwarding then i.forward i.ballot.Ballot.owner ~client cmd
      else i.propose ~client cmd
    done
