type version = {
  value : Command.value option;
  seq : int;
  writer : Command.t;
}

(* A key's writers, oldest first, in [writers.(0 .. len - 1)]: the
   writer is the whole version, its [seq] is its index + 1 and its
   value is read off its op, so a write stores one pointer. *)
type chain = { mutable writers : Command.t array; mutable len : int }

(* Open-addressed over [keys]; a slot is free while its chain is the
   [free] sentinel (compared physically). Grows at 3/4 load. *)
type t = {
  mutable keys : int array;
  mutable chains : chain array;
  mutable size : int;
}

let free = { writers = [||]; len = 0 }
let initial_capacity = 16

let create () =
  {
    keys = Array.make initial_capacity 0;
    chains = Array.make initial_capacity free;
    size = 0;
  }

(* the slot holding [k], or the free slot where it would go; a
   top-level loop, so a lookup builds no closure *)
let rec probe t k mask i =
  if t.chains.(i) == free || t.keys.(i) = k then i
  else probe t k mask ((i + 1) land mask)

let find_slot t k =
  let mask = Array.length t.keys - 1 in
  probe t k mask (Int_hash.slot k ~mask)

let grow t =
  let keys = t.keys and chains = t.chains in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap 0;
  t.chains <- Array.make cap free;
  Array.iteri
    (fun i c ->
      if c != free then begin
        let j = find_slot t keys.(i) in
        t.keys.(j) <- keys.(i);
        t.chains.(j) <- c
      end)
    chains

let value_of (w : Command.t) =
  match w.Command.op with
  | Command.Put (_, v) -> Some v
  | Command.Delete _ | Command.Get _ -> None

let get t k =
  let c = t.chains.(find_slot t k) in
  if c.len = 0 then None else value_of c.writers.(c.len - 1)

let write t (writer : Command.t) =
  let k =
    match writer.Command.op with
    | Command.Put (k, _) | Command.Delete k -> k
    | Command.Get _ -> invalid_arg "Kv.write: not a write"
  in
  let i = find_slot t k in
  let c = t.chains.(i) in
  if c == free then begin
    t.size <- t.size + 1;
    let i =
      if 4 * t.size > 3 * Array.length t.keys then (grow t; find_slot t k)
      else i
    in
    t.keys.(i) <- k;
    t.chains.(i) <- { writers = Array.make 4 writer; len = 1 }
  end
  else begin
    if c.len = Array.length c.writers then begin
      (* [noop], not the young [writer]: see [State_machine.record] *)
      let writers = Array.make (2 * c.len) Command.noop in
      Array.blit c.writers 0 writers 0 c.len;
      c.writers <- writers
    end;
    c.writers.(c.len) <- writer;
    c.len <- c.len + 1
  end

let versions t k =
  let c = t.chains.(find_slot t k) in
  List.init c.len (fun i ->
      let writer = c.writers.(i) in
      { value = value_of writer; seq = i + 1; writer })

let keys t =
  let acc = ref [] in
  Array.iteri (fun i c -> if c != free then acc := t.keys.(i) :: !acc) t.chains;
  !acc

let size t = t.size
