(* A multiplicative mix, top bits kept. The generic [Hashtbl.hash]
   folds an int's high 32 bits onto its low 32, so a packed
   [(client lsl 32) lor id] would hash as [client lxor id] and pile
   thousands of keys onto the same slots; the mix keeps probe runs
   short for packed and for clustered keys alike. *)
let slot k ~mask = ((k * 0x1E3779B97F4A7C15) lsr 32) land mask

(* Linear probing over three flat arrays: the key, its int value and a
   one-byte tag. An entry is no heap block of its own, so the major GC
   has nothing per entry to promote or trace. Grows at 3/4 load. *)
type t = {
  mutable keys : int array;
  mutable values : int array;
  mutable tags : Bytes.t;
  mutable count : int;
}

let free = '\000'
let initial_capacity = 16

let create () =
  {
    keys = Array.make initial_capacity 0;
    values = Array.make initial_capacity 0;
    tags = Bytes.make initial_capacity free;
    count = 0;
  }

(* a top-level loop, so a lookup builds no closure *)
let rec probe t k mask i =
  if Bytes.get t.tags i = free || t.keys.(i) = k then i
  else probe t k mask ((i + 1) land mask)

let find t k =
  let mask = Array.length t.keys - 1 in
  probe t k mask (slot k ~mask)

let tag t i = Bytes.get t.tags i
let value t i = t.values.(i)

let grow t =
  let keys = t.keys and values = t.values and tags = t.tags in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap 0;
  t.values <- Array.make cap 0;
  t.tags <- Bytes.make cap free;
  Bytes.iteri
    (fun i tag ->
      if tag <> free then begin
        let j = find t keys.(i) in
        t.keys.(j) <- keys.(i);
        t.values.(j) <- values.(i);
        Bytes.set t.tags j tag
      end)
    tags

let set t i k tag v =
  let i =
    if Bytes.get t.tags i <> free then i
    else begin
      t.count <- t.count + 1;
      if 4 * t.count > 3 * Array.length t.keys then (grow t; find t k) else i
    end
  in
  t.keys.(i) <- k;
  t.values.(i) <- v;
  Bytes.set t.tags i tag

let keys t =
  let acc = ref [] in
  Bytes.iteri (fun i tag -> if tag <> free then acc := t.keys.(i) :: !acc) t.tags;
  !acc

let count t = t.count
let capacity t = Array.length t.keys
