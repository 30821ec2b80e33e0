(* The memo is open-addressed over the packed [(client, id)] key (see
   [key_of]) in three flat arrays: [keys], the read value in [reads],
   and a one-byte [tags] entry that says whether the slot is free,
   holds a command that read [None] (every write does), or one that
   read [Some reads.(i)]. An entry is no heap block of its own, so the
   major GC has nothing per command to promote or trace. The table
   grows at 3/4 load and is never iterated, so its order cannot leak
   into any output. *)
let free = '\000'
let read_none = '\001'
let read_some = '\002'
let initial_capacity = 16

type t = {
  mutable sm : State_machine.t;
  mutable keys : int array;
  mutable reads : int array;
  mutable tags : Bytes.t;
  mutable count : int;
}

let create () =
  {
    sm = State_machine.create ();
    keys = Array.make initial_capacity 0;
    reads = Array.make initial_capacity 0;
    tags = Bytes.make initial_capacity free;
    count = 0;
  }

let key_of (c : Command.t) =
  (c.Command.client lsl 32) lor (c.Command.id land 0xFFFF_FFFF)

(* the slot holding [k], or the free slot where it would go; a
   top-level loop, so a lookup builds no closure *)
let rec probe t k mask i =
  if Bytes.get t.tags i = free || t.keys.(i) = k then i
  else probe t k mask ((i + 1) land mask)

let find_slot t k =
  let mask = Array.length t.keys - 1 in
  probe t k mask (Int_hash.slot k ~mask)

let store t i k read =
  t.keys.(i) <- k;
  match read with
  | None -> Bytes.set t.tags i read_none
  | Some v ->
      Bytes.set t.tags i read_some;
      t.reads.(i) <- v

let grow t =
  let keys = t.keys and reads = t.reads and tags = t.tags in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap 0;
  t.reads <- Array.make cap 0;
  t.tags <- Bytes.make cap free;
  Bytes.iteri
    (fun i tag ->
      if tag <> free then begin
        let j = find_slot t keys.(i) in
        t.keys.(j) <- keys.(i);
        t.reads.(j) <- reads.(i);
        Bytes.set t.tags j tag
      end)
    tags

let already_executed t c =
  (not (Command.is_noop c)) && Bytes.get t.tags (find_slot t (key_of c)) <> free

let execute t c =
  if Command.is_noop c then None
  else
    let k = key_of c in
    let i = find_slot t k in
    let tag = Bytes.get t.tags i in
    if tag = read_none then None
    else if tag = read_some then Some t.reads.(i)
    else begin
      let read = State_machine.apply t.sm c in
      t.count <- t.count + 1;
      let i =
        if 4 * t.count > 3 * Array.length t.keys then (grow t; find_slot t k)
        else i
      in
      store t i k read;
      read
    end

let read t (c : Command.t) =
  match c.Command.op with
  | Command.Get k -> Kv.get (State_machine.store t.sm) k
  | Command.Put _ | Command.Delete _ -> None

let state_machine t = t.sm
let executed_count t = t.count

let image t = State_machine.image t.sm

let install t image =
  let fresh = create () in
  t.sm <- fresh.sm;
  t.keys <- fresh.keys;
  t.reads <- fresh.reads;
  t.tags <- fresh.tags;
  t.count <- 0;
  Array.iter (fun c -> ignore (execute t c)) image
