(* The memo is an [Int_hash] table over the packed [(client, id)] key
   (see [key_of]); its tag says whether the command read [None] (every
   write does) or [Some] of the entry's value. The table is never
   iterated, so its order cannot leak into any output. *)
let read_none = '\001'
let read_some = '\002'

type t = { mutable sm : State_machine.t; mutable memo : Int_hash.t }

let create () = { sm = State_machine.create (); memo = Int_hash.create () }

let key_of (c : Command.t) =
  (c.Command.client lsl 32) lor (c.Command.id land 0xFFFF_FFFF)

let already_executed t c =
  (not (Command.is_noop c))
  && Int_hash.tag t.memo (Int_hash.find t.memo (key_of c)) <> Int_hash.free

let execute t c =
  if Command.is_noop c then None
  else
    let k = key_of c in
    let i = Int_hash.find t.memo k in
    let tag = Int_hash.tag t.memo i in
    if tag = read_none then None
    else if tag = read_some then Some (Int_hash.value t.memo i)
    else
      let read = State_machine.apply t.sm c in
      (match read with
      | None -> Int_hash.set t.memo i k read_none 0
      | Some v -> Int_hash.set t.memo i k read_some v);
      read

let read t (c : Command.t) =
  match c.Command.op with
  | Command.Get k -> Kv.get (State_machine.store t.sm) k
  | Command.Put _ | Command.Delete _ -> None

let state_machine t = t.sm
let executed_count t = Int_hash.count t.memo

let image t = State_machine.image t.sm

let install t image =
  t.sm <- State_machine.create ();
  t.memo <- Int_hash.create ();
  Array.iter (fun c -> ignore (execute t c)) image
