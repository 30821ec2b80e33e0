type message =
  | Accept of { slot : int; cmd : Command.t; commit_up_to : int }
  | AcceptOk of { slot : int }
  | Commit of { slot : int; cmd : Command.t }

type entry = {
  mutable cmd : Command.t;
  mutable client : Address.t option;
  mutable quorum : Quorum.t option;
  mutable committed : bool;
  mutable rkey : int;
      (* reliable-delivery key of the in-flight Accept (0 when none) *)
}

let message_label = function
  | Accept _ -> "Accept"
  | AcceptOk _ -> "AcceptOk"
  | Commit _ -> "Commit"

type t = {
  id : int;
  members : int list;
  leader : int;
  send : int -> message -> unit;
  post_peers : message -> int;
      (* reliable multicast of a wrapped message to the other members;
         AcceptOks are the piggybacked acks *)
  settle : dst:int -> key:int -> unit;
  settle_all : key:int -> unit;
  log : entry Slot_log.t;
  exec : Executor.t;
  on_executed : Command.t -> Address.t option -> Command.value option -> unit;
}

let create ~env ~wrap ~members ~leader ~exec ~on_executed =
  if not (List.mem leader members) then
    invalid_arg "Group.create: leader not in members";
  let peers = List.filter (fun m -> m <> env.Proto.id) members in
  {
    id = env.Proto.id;
    members;
    leader;
    send = (fun dst m -> env.Proto.send dst (wrap m));
    post_peers =
      (fun m ->
        if peers = [] then 0
        else
          env.Proto.rel.Proto.post_multi ~ack:Reliable.Piggyback peers (wrap m));
    settle = (fun ~dst ~key -> env.Proto.rel.Proto.settle ~dst ~key);
    settle_all = (fun ~key -> env.Proto.rel.Proto.settle_all ~key);
    log = Slot_log.create ();
    exec;
    on_executed;
  }

let is_leader t = t.id = t.leader
let leader t = t.leader
let members t = t.members

let peers t = List.filter (fun m -> m <> t.id) t.members

let advance t =
  Slot_log.advance_frontier t.log
    ~executable:(fun (e : entry) -> e.committed)
    ~f:(fun _slot (e : entry) ->
      let read = Executor.execute t.exec e.cmd in
      let client = e.client in
      e.client <- None;
      t.on_executed e.cmd client read)

let commit_up_to t bound =
  if
    Slot_log.commit_below t.log bound
      ~pending:(fun (e : entry) -> not e.committed)
      ~mark:(fun (e : entry) -> e.committed <- true)
  then advance t

let propose t ~client cmd =
  if not (is_leader t) then invalid_arg "Group.propose: not the group leader";
  let slot = Slot_log.reserve t.log in
  let tracker = Quorum.create (Quorum.Majority t.members) in
  Quorum.ack tracker t.id;
  let e = { cmd; client; quorum = Some tracker; committed = false; rkey = 0 } in
  Slot_log.set t.log slot e;
  e.rkey <-
    t.post_peers (Accept { slot; cmd; commit_up_to = Slot_log.exec_frontier t.log });
  (* single-member groups commit instantly *)
  (match Slot_log.get t.log slot with
  | Some (e : entry) when not e.committed && Quorum.satisfied tracker ->
      e.committed <- true;
      advance t
  | _ -> ())

let on_accept t ~src ~slot ~cmd ~commit_up_to:bound =
  (match Slot_log.get t.log slot with
  | Some (e : entry) when e.committed -> ()
  | Some e ->
      if not (Command.equal e.cmd cmd) then e.client <- None;
      e.cmd <- cmd
  | None ->
      Slot_log.set t.log slot
        { cmd; client = None; quorum = None; committed = false; rkey = 0 });
  commit_up_to t bound;
  t.send src (AcceptOk { slot })

let on_accept_ok t ~src ~slot =
  if is_leader t then
    match Slot_log.get t.log slot with
    | Some ({ quorum = Some tracker; committed = false; _ } as e : entry) ->
        t.settle ~dst:src ~key:e.rkey;
        Quorum.ack tracker src;
        if Quorum.satisfied tracker then begin
          e.committed <- true;
          t.settle_all ~key:e.rkey;
          advance t;
          List.iter (fun m -> t.send m (Commit { slot; cmd = e.cmd })) (peers t)
        end
    | Some ({ committed = true; rkey; _ } : entry) when rkey <> 0 ->
        (* late ack for an already-committed slot: stop the timer *)
        t.settle ~dst:src ~key:rkey
    | _ -> ()

let on_commit t ~slot ~cmd =
  (match Slot_log.get t.log slot with
  | Some (e : entry) ->
      if not (Command.equal e.cmd cmd) then e.client <- None;
      e.cmd <- cmd;
      e.committed <- true
  | None ->
      Slot_log.set t.log slot
        { cmd; client = None; quorum = None; committed = true; rkey = 0 });
  advance t

let on_message t ~src = function
  | Accept { slot; cmd; commit_up_to } -> on_accept t ~src ~slot ~cmd ~commit_up_to
  | AcceptOk { slot } -> on_accept_ok t ~src ~slot
  | Commit { slot; cmd } -> on_commit t ~slot ~cmd

let last_proposed_slot t = Slot_log.next_slot t.log - 1
let frontier t = Slot_log.exec_frontier t.log
