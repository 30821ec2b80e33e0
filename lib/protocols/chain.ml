type message =
  | Propagate of { seq : int; cmd : Command.t; client : Address.t }

let name = "chain"
let cpu_factor (_ : Config.t) = 1.0
let message_label = function Propagate _ -> "Propagate"

type replica = {
  env : message Proto.env;
  exec : Executor.t;
  mutable next_seq : int; (* head: write sequence numbers *)
  mutable applied_seq : int; (* last sequence applied here *)
  pending : (int, Command.t * Address.t) Hashtbl.t; (* out-of-order buffer *)
  mutable forwarded : int;
  mutable tail_reads : int; (* fast-path reads served (read_path = Tail) *)
}

let create env =
  {
    env;
    exec = Executor.create ();
    next_seq = 0;
    applied_seq = -1;
    pending = Hashtbl.create 32;
    forwarded = 0;
    tail_reads = 0;
  }

let executor t = t.exec
let head (_ : replica) = 0
let tail t = t.env.n - 1
let is_head t = t.env.id = head t
let is_tail t = t.env.id = tail t
let writes_forwarded t = t.forwarded
let tail_reads_served t = t.tail_reads
let leader_of_key t (_ : Command.key) = Some (tail t)

let reply t ~client ~cmd ~read =
  t.env.reply client
    { Proto.command = cmd; read; replier = t.env.id; leader_hint = None }

(* Apply writes in sequence order, forwarding down the chain; the tail
   answers the client. *)
let rec apply_ready t =
  match Hashtbl.find_opt t.pending (t.applied_seq + 1) with
  | None -> ()
  | Some (cmd, client) ->
      Hashtbl.remove t.pending (t.applied_seq + 1);
      t.applied_seq <- t.applied_seq + 1;
      ignore (Executor.execute t.exec cmd);
      if is_tail t then reply t ~client ~cmd ~read:None
      else begin
        t.forwarded <- t.forwarded + 1;
        (* Explicitly-acked: a dropped hop would otherwise leave a
           permanent hole in the successor's sequence and wedge the
           whole suffix of the chain; duplicates are suppressed at the
           receiver by the substrate's dedup. *)
        ignore
          (t.env.rel.post ~ack:Reliable.Explicit (t.env.id + 1)
             (Propagate { seq = t.applied_seq; cmd; client }))
      end;
      apply_ready t

let handle_write t ~client cmd =
  if is_head t then begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    Hashtbl.replace t.pending seq (cmd, client);
    apply_ready t
  end
  else t.env.forward (head t) ~client cmd

let handle_read t ~client cmd =
  if is_tail t then
    match t.env.config.Config.read_path with
    | Some Config.Tail ->
        (* Fast path: peek the store without consuming executor
           history — the tail-read counterpart of a lease read. The
           legacy path below stays the default so existing chain
           baselines are untouched. *)
        let read = Executor.read t.exec cmd in
        t.tail_reads <- t.tail_reads + 1;
        t.env.obs.Proto.on_read ();
        reply t ~client ~cmd ~read
    | _ ->
        let read = Executor.execute t.exec cmd in
        reply t ~client ~cmd ~read
  else t.env.forward (tail t) ~client cmd

let on_request t ~client (cmd : Command.t) =
  if Command.is_write cmd then handle_write t ~client cmd
  else handle_read t ~client cmd

let on_message t ~src:_ = function
  | Propagate { seq; cmd; client } ->
      Hashtbl.replace t.pending seq (cmd, client);
      apply_ready t

let on_start (_ : replica) = ()

(* In-memory protocol: a crash-recovery edge reboots it from scratch
   (no durable state to reload) — the cluster engine only pairs
   [Config.storage] with protocols that persist, so this is a
   rejoin-from-zero fallback. *)
let on_recover = on_start
