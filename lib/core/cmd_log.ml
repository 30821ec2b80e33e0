type entry = {
  mutable ballot : Ballot.t;
  mutable cmd : Command.t;
  mutable client : Address.t option;
  mutable committed : bool;
}

type t = {
  slots : entry Slot_log.t;
  exec : Executor.t;
  reply : Address.t -> Proto.reply -> unit;
  replier : int;
  mutable leading : unit -> bool;
  mutable apply : (int -> entry -> Command.value option -> unit) option;
}

let create exec (env : _ Proto.env) =
  {
    slots = Slot_log.create ();
    exec;
    reply = env.Proto.reply;
    replier = env.Proto.id;
    leading = (fun () -> false);
    apply = None;
  }

let set_leading t f = t.leading <- f
let set_apply t f = t.apply <- Some f
let get t slot = Slot_log.get t.slots slot
let exec_frontier t = Slot_log.exec_frontier t.slots
let next_slot t = Slot_log.next_slot t.slots
let iter_from t ~start ~f = Slot_log.iter_from t.slots ~start ~f

let propose t slot ~ballot ~client cmd =
  Slot_log.set t.slots slot
    { ballot; cmd; client = Some client; committed = false }

let accept t slot ~ballot cmd =
  match Slot_log.get t.slots slot with
  | Some e when e.committed -> false
  | Some e ->
      if not (Command.equal e.cmd cmd) then e.client <- None;
      e.ballot <- ballot;
      e.cmd <- cmd;
      true
  | None ->
      Slot_log.set t.slots slot { ballot; cmd; client = None; committed = false };
      true

let learn t slot ~ballot cmd =
  match Slot_log.get t.slots slot with
  | Some e ->
      if not (Command.equal e.cmd cmd) then e.client <- None;
      e.cmd <- cmd;
      e.committed <- true
  | None ->
      Slot_log.set t.slots slot { ballot; cmd; client = None; committed = true }

let commit t slot =
  match Slot_log.get t.slots slot with
  | Some e when not e.committed ->
      e.committed <- true;
      true
  | _ -> false

let commit_below t bound =
  Slot_log.commit_below t.slots bound
    ~pending:(fun e -> not e.committed)
    ~mark:(fun e -> e.committed <- true)

let execute t =
  Slot_log.advance_frontier t.slots
    ~executable:(fun e -> e.committed)
    ~f:(fun slot e ->
      let read = Executor.execute t.exec e.cmd in
      (match t.apply with Some f -> f slot e read | None -> ());
      match e.client with
      | Some client ->
          e.client <- None;
          t.reply client
            {
              Proto.command = e.cmd;
              read;
              replier = t.replier;
              leader_hint = (if t.leading () then Some t.replier else None);
            }
      | None -> ())
