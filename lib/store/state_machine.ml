type result = { command : Command.t; read : Command.value option }

(* The applied sequence is [applied.(0 .. n - 1)], grown by doubling. *)
type t = { kv : Kv.t; mutable applied : Command.t array; mutable n : int }

let create () = { kv = Kv.create (); applied = [||]; n = 0 }

let record t cmd =
  if t.n = Array.length t.applied then begin
    let applied = Array.make (max 16 (2 * t.n)) cmd in
    Array.blit t.applied 0 applied 0 t.n;
    t.applied <- applied
  end;
  t.applied.(t.n) <- cmd;
  t.n <- t.n + 1

let apply t cmd =
  let read =
    if Command.is_noop cmd then None
    else
      match cmd.Command.op with
      | Command.Get k -> Kv.get t.kv k
      | Command.Put _ | Command.Delete _ ->
          Kv.write t.kv cmd;
          None
  in
  record t cmd;
  { command = cmd; read }

let applied t = List.init t.n (Array.get t.applied)
let image t = Array.sub t.applied 0 t.n
let applied_count t = t.n
let store t = t.kv

let key_history t k = List.map (fun v -> v.Kv.writer) (Kv.versions t.kv k)
