(* Each key's latest value in one [Int_hash] table, tagged live or
   deleted. A deleted key keeps its slot, so [keys] and [size] count
   every key ever written. *)
type t = Int_hash.t

let live = '\001'
let deleted = '\002'
let create = Int_hash.create

let get t k =
  let i = Int_hash.find t k in
  if Int_hash.tag t i = live then Some (Int_hash.value t i) else None

let write t (writer : Command.t) =
  match writer.Command.op with
  | Command.Put (k, v) -> Int_hash.set t (Int_hash.find t k) k live v
  | Command.Delete k -> Int_hash.set t (Int_hash.find t k) k deleted 0
  | Command.Get _ -> invalid_arg "Kv.write: not a write"

let slot = Int_hash.find
let capacity = Int_hash.capacity
let keys = Int_hash.keys
let size = Int_hash.count
