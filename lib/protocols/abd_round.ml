type tag = int * int

type message =
  | Query of { rid : int; key : Command.key }
  | QueryR of { rid : int; tag : tag; value : Command.value option }
  | Store of {
      rid : int;
      key : Command.key;
      tag : tag;
      value : Command.value option;
    }
  | StoreR of { rid : int }

let message_label = function
  | Query _ -> "Query"
  | QueryR _ -> "QueryR"
  | Store _ -> "Store"
  | StoreR _ -> "StoreR"

let zero_tag = (0, -1)

type register = { mutable tag : tag; mutable value : Command.value option }

(* One operation in flight at its coordinator. In the query phase
   [tag]/[value] is the freshest register seen so far; in the store
   phase it is what is being stored. [votes] is the current phase's
   tracker, reset between the phases. *)
type op = {
  client : Address.t;
  cmd : Command.t;
  mutable storing : bool;
  mutable tag : tag;
  mutable value : Command.value option;
  votes : Quorum.t;
}

type t = {
  id : int;
  spec : Quorum.spec Lazy.t;
      (* a majority of [0 .. n-1], built only on a replica that
         coordinates a round *)
  send : int -> message -> unit;
  broadcast : message -> unit;
  finish : client:Address.t -> Command.t -> Command.value option -> unit;
  registers : (Command.key, register) Hashtbl.t;
  ops : (int, op) Hashtbl.t;
  mutable next_rid : int;
  mutable completed : int;
}

let create ~env ~wrap ~finish =
  {
    id = env.Proto.id;
    spec = lazy (Quorum.Majority (List.init env.Proto.n Fun.id));
    send = (fun dst m -> env.Proto.send dst (wrap m));
    broadcast = (fun m -> env.Proto.broadcast (wrap m));
    finish;
    registers = Hashtbl.create 64;
    ops = Hashtbl.create 16;
    next_rid = 0;
    completed = 0;
  }

let register t key =
  match Hashtbl.find_opt t.registers key with
  | Some r -> r
  | None ->
      let r = { tag = zero_tag; value = None } in
      Hashtbl.add t.registers key r;
      r

let adopt t key ~tag value =
  let r = register t key in
  if tag > r.tag then begin
    r.tag <- tag;
    r.value <- value
  end

let stored_tag t key =
  match Hashtbl.find_opt t.registers key with
  | Some r when r.tag <> zero_tag -> Some r.tag
  | _ -> None

let completed t = t.completed

let complete t rid (op : op) =
  Hashtbl.remove t.ops rid;
  t.completed <- t.completed + 1;
  t.finish ~client:op.client op.cmd
    (if Command.is_read op.cmd then op.value else None)

(* The query quorum is met: store the winner back (a read) or a new
   value under a strictly larger tag owned by us (a write). *)
let begin_store t rid (op : op) =
  let key = Command.key op.cmd in
  (match op.cmd.Command.op with
  | Command.Get _ -> ()
  | Command.Put (_, v) ->
      op.tag <- (fst op.tag + 1, t.id);
      op.value <- Some v
  | Command.Delete _ ->
      op.tag <- (fst op.tag + 1, t.id);
      op.value <- None);
  adopt t key ~tag:op.tag op.value;
  op.storing <- true;
  Quorum.reset op.votes;
  Quorum.ack op.votes t.id;
  t.broadcast (Store { rid; key; tag = op.tag; value = op.value });
  if Quorum.satisfied op.votes then complete t rid op

let start t ~client cmd =
  let rid = t.next_rid in
  t.next_rid <- t.next_rid + 1;
  let key = Command.key cmd in
  let r = register t key in
  let votes = Quorum.create (Lazy.force t.spec) in
  Quorum.ack votes t.id;
  let op = { client; cmd; storing = false; tag = r.tag; value = r.value; votes } in
  Hashtbl.replace t.ops rid op;
  t.broadcast (Query { rid; key });
  (* alone (n = 1), the coordinator's own vote is the majority *)
  if Quorum.satisfied votes then begin_store t rid op

let on_message t ~src = function
  | Query { rid; key } ->
      let r = register t key in
      t.send src (QueryR { rid; tag = r.tag; value = r.value })
  | QueryR { rid; tag; value } -> (
      match Hashtbl.find_opt t.ops rid with
      | Some op when not op.storing ->
          if tag > op.tag then begin
            op.tag <- tag;
            op.value <- value
          end;
          Quorum.ack op.votes src;
          if Quorum.satisfied op.votes then begin_store t rid op
      | _ -> ())
  | Store { rid; key; tag; value } ->
      adopt t key ~tag value;
      t.send src (StoreR { rid })
  | StoreR { rid } -> (
      match Hashtbl.find_opt t.ops rid with
      | Some op when op.storing ->
          Quorum.ack op.votes src;
          if Quorum.satisfied op.votes then complete t rid op
      | _ -> ())
