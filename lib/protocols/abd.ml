type tag = Read_quorum.tag
(** (timestamp, writer id), ordered lexicographically. [(0, -1)] is
    the initial tag of an unwritten register. *)

type message =
  | Query of { rid : int; key : Command.key }
  | QueryR of { rid : int; tag : tag; value : Command.value option }
  | Store of { rid : int; key : Command.key; tag : tag; value : Command.value option }
  | StoreR of { rid : int }

let name = "abd"
let cpu_factor (_ : Config.t) = 1.0

let message_label = function
  | Query _ -> "Query"
  | QueryR _ -> "QueryR"
  | Store _ -> "Store"
  | StoreR _ -> "StoreR"

type register = Command.value option Read_quorum.register

(* One client operation in flight at the coordinating replica: an ABD
   round (query a majority, write the winner back to a majority) run
   by the shared {!Read_quorum} engine, plus what to reply with. *)
type op = {
  client : Address.t;
  command : Command.t;
  round : Command.value option Read_quorum.t;
  mutable result : Command.value option;
}

type replica = {
  env : message Proto.env;
  registers : (Command.key, register) Hashtbl.t;
  ops : (int, op) Hashtbl.t;
  mutable next_rid : int;
  exec : Executor.t; (* records completed ops for the checkers *)
}

let create env =
  {
    env;
    registers = Hashtbl.create 256;
    ops = Hashtbl.create 64;
    next_rid = 0;
    exec = Executor.create ();
  }

let executor t = t.exec
let leader_of_key _ _ = None

let register t key = Read_quorum.lookup t.registers ~empty:None key

let stored_tag t key =
  match Hashtbl.find_opt t.registers key with
  | Some r when r.Read_quorum.tag <> Read_quorum.zero_tag ->
      Some r.Read_quorum.tag
  | _ -> None

let majority_spec (t : replica) =
  Quorum.Majority (List.init t.env.n (fun i -> i))

let finish t rid (op : op) =
  Hashtbl.remove t.ops rid;
  (* record in the state machine so consensus-style checkers can read
     per-key histories; execution here is just bookkeeping *)
  ignore (Executor.execute t.exec op.command);
  t.env.reply op.client
    {
      Proto.command = op.command;
      read = (if Command.is_read op.command then op.result else None);
      replier = t.env.id;
      leader_hint = None;
    }

let start_store t rid (op : op) ~tag ~value ~result =
  let key = Command.key op.command in
  Read_quorum.adopt (register t key) ~tag ~value;
  Read_quorum.begin_store op.round ~self:t.env.id ~tag ~value;
  op.result <- result;
  t.env.broadcast (Store { rid; key; tag; value });
  if Read_quorum.satisfied op.round then finish t rid op

(* the query quorum is met: store the winner back (a read) or a new
   value under a strictly larger tag owned by us (a write) *)
let query_done t rid (op : op) =
  let best_tag, best_value = Read_quorum.best op.round in
  match op.command.Command.op with
  | Command.Put (_, v) ->
      start_store t rid op
        ~tag:(Read_quorum.next_tag best_tag ~self:t.env.id)
        ~value:(Some v) ~result:None
  | Command.Delete _ ->
      start_store t rid op
        ~tag:(Read_quorum.next_tag best_tag ~self:t.env.id)
        ~value:None ~result:None
  | Command.Get _ ->
      (* write-back phase makes the read linearizable *)
      start_store t rid op ~tag:best_tag ~value:best_value ~result:best_value

let on_request t ~client (request : Proto.request) =
  let command = request.Proto.command in
  let rid = t.next_rid in
  t.next_rid <- t.next_rid + 1;
  let key = Command.key command in
  (* the coordinator is also a quorum member: seed with local state *)
  let r = register t key in
  let round =
    Read_quorum.create (majority_spec t) ~self:t.env.id
      ~local_tag:r.Read_quorum.tag ~local_value:r.Read_quorum.value
  in
  let op = { client; command; round; result = None } in
  Hashtbl.replace t.ops rid op;
  t.env.broadcast (Query { rid; key });
  (* alone (n = 1), the coordinator's own vote is the majority *)
  if Read_quorum.satisfied round then query_done t rid op

let on_query t ~src ~rid ~key =
  let r = register t key in
  t.env.send src
    (QueryR { rid; tag = r.Read_quorum.tag; value = r.Read_quorum.value })

let on_query_reply t ~src ~rid ~tag ~value =
  match Hashtbl.find_opt t.ops rid with
  | Some op when Read_quorum.query_ack op.round ~src ~tag ~value ->
      query_done t rid op
  | _ -> ()

let on_store t ~src ~rid ~key ~tag ~value =
  Read_quorum.adopt (register t key) ~tag ~value;
  t.env.send src (StoreR { rid })

let on_store_reply t ~src ~rid =
  match Hashtbl.find_opt t.ops rid with
  | Some op when Read_quorum.store_ack op.round ~src -> finish t rid op
  | _ -> ()

let on_message t ~src = function
  | Query { rid; key } -> on_query t ~src ~rid ~key
  | QueryR { rid; tag; value } -> on_query_reply t ~src ~rid ~tag ~value
  | Store { rid; key; tag; value } -> on_store t ~src ~rid ~key ~tag ~value
  | StoreR { rid } -> on_store_reply t ~src ~rid

let on_start (_ : replica) = ()

(* In-memory protocol: a crash-recovery edge reboots it from scratch
   (no durable state to reload) — the cluster engine only pairs
   [Config.storage] with protocols that persist, so this is a
   rejoin-from-zero fallback. *)
let on_recover = on_start
