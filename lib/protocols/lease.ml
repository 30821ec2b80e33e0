type t = {
  on : bool;
  margin : float;
  id : int;
  now : unit -> float;
  reply : Address.t -> Proto.reply -> unit;
  on_read : unit -> unit;
  exec : Executor.t;
  mutable progress : unit -> int;
  (* follower: who holds our grant, and until when (local clock) *)
  mutable holder : int;
  mutable granted_until : float;
  (* leader: serve until (local clock), once progress reaches barrier *)
  mutable until : float;
  mutable barrier : int;
  reads : (Address.t * Command.t) Queue.t;
  mutable served : int;
}

let create (env : _ Proto.env) exec =
  let on, margin =
    match env.Proto.config.Config.read_path with
    | Some (Config.Lease { margin_ms }) -> (true, margin_ms)
    | _ -> (false, 0.0)
  in
  {
    on;
    margin;
    id = env.Proto.id;
    now = env.Proto.now;
    reply = env.Proto.reply;
    on_read = env.Proto.obs.Proto.on_read;
    exec;
    progress = (fun () -> 0);
    holder = -1;
    granted_until = neg_infinity;
    until = neg_infinity;
    barrier = 0;
    reads = Queue.create ();
    served = 0;
  }

let set_progress t f = t.progress <- f
let on t = t.on
let served t = t.served

let grant t ~holder ~window =
  if t.on then begin
    t.holder <- holder;
    let until = t.now () +. window in
    if until > t.granted_until then t.granted_until <- until
  end

let refuses t candidate =
  t.on && candidate <> t.holder && t.now () < t.granted_until

let valid t = t.progress () >= t.barrier && t.now () < t.until -. t.margin

let serve t ~client command =
  let read = Executor.read t.exec command in
  t.served <- t.served + 1;
  t.on_read ();
  t.reply client { Proto.command; read; replier = t.id; leader_hint = Some t.id }

let drain t =
  if not (Queue.is_empty t.reads) then
    while valid t && not (Queue.is_empty t.reads) do
      let client, cmd = Queue.pop t.reads in
      serve t ~client cmd
    done

let read t ~client cmd =
  if valid t then serve t ~client cmd else Queue.push (client, cmd) t.reads

let lead t ~barrier =
  t.barrier <- barrier;
  t.until <- neg_infinity

let extend t ~until =
  if until > t.until then begin
    t.until <- until;
    drain t
  end

let revoke t ~pending =
  t.until <- neg_infinity;
  Queue.transfer t.reads pending
