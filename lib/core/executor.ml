(* Memo keys pack [(client, id)] into one int (see [key_of]). The
   generic [Hashtbl.hash] folds an int's high 32 bits onto its low 32,
   so [(client lsl 32) lor id] would hash as [client lxor id] and pile
   thousands of commands into each bucket; a multiplicative mix keeps
   the buckets flat. The table is never iterated, so its order cannot
   leak into any output. *)
module Memo = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x1E3779B97F4A7C15) lsr 32
end)

type t = { mutable sm : State_machine.t; memo : Command.value option Memo.t }

let create () = { sm = State_machine.create (); memo = Memo.create 256 }

let key_of (c : Command.t) =
  (c.Command.client lsl 32) lor (c.Command.id land 0xFFFF_FFFF)

let already_executed t c =
  (not (Command.is_noop c)) && Memo.mem t.memo (key_of c)

let execute t c =
  if Command.is_noop c then None
  else
    match Memo.find_opt t.memo (key_of c) with
    | Some r -> r
    | None ->
        let { State_machine.read; _ } = State_machine.apply t.sm c in
        Memo.add t.memo (key_of c) read;
        read

let read t (c : Command.t) =
  match c.Command.op with
  | Command.Get k -> Kv.get (State_machine.store t.sm) k
  | Command.Put _ | Command.Delete _ -> None

let state_machine t = t.sm
let executed_count t = Memo.length t.memo

let image t = Array.of_list (State_machine.applied t.sm)

let install t image =
  t.sm <- State_machine.create ();
  Memo.reset t.memo;
  Array.iter (fun c -> ignore (execute t c)) image
