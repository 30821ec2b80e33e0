type message = Abd_round.message

let name = "abd"
let cpu_factor (_ : Config.t) = 1.0
let message_label = Abd_round.message_label

type replica = {
  round : Abd_round.t;
  exec : Executor.t; (* records completed ops for the checkers *)
}

let create env =
  let exec = Executor.create () in
  let finish ~client command read =
    (* record in the state machine so consensus-style checkers can read
       per-key histories; execution here is just bookkeeping *)
    ignore (Executor.execute exec command);
    env.Proto.reply client
      { Proto.command; read; replier = env.Proto.id; leader_hint = None }
  in
  { round = Abd_round.create ~env ~wrap:Fun.id ~finish; exec }

let executor t = t.exec
let leader_of_key _ _ = None
let stored_tag t key = Abd_round.stored_tag t.round key

let on_request t ~client (cmd : Command.t) =
  Abd_round.start t.round ~client cmd

let on_message t ~src msg = Abd_round.on_message t.round ~src msg
let on_start (_ : replica) = ()

(* Nothing here persists, yet [Config.validate] accepts [Config.storage]
   and the cluster then arms real crashes: the fresh replica at a
   recovery edge rejoins with an empty log and state machine (ROADMAP,
   "Every configuration `validate` accepts is one the protocol honours"). *)
let on_recover = on_start
