(* 4-ary implicit min-heap of the scheduler's timer slots, ordered by
   (time, seq). Two parallel arrays hold the entries: [times] (an
   unboxed float array) and [keys], where a key packs
   [(seq lsl slot_bits) lor slot]. Seqs are unique, so comparing keys
   orders equal times by seq exactly, and every comparison is a
   monomorphic float or int compare. Nothing stored is a heap block,
   so moving an entry costs no write barrier.

   [pos.(slot)] is the heap index of the slot's entry, kept current on
   every move, so [remove] can take any entry out in O(log n).

   Sifts use the hole method: the moving entry is read once into
   locals from its source index, ancestors or descendants shift into
   the hole, and the entry is written once at its final index. *)

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1

(* the largest seq whose key is still a non-negative int *)
let max_seq = max_int lsr slot_bits

type t = {
  mutable times : float array;
  mutable keys : int array;
  mutable pos : int array; (* indexed by slot *)
  mutable size : int;
  mutable next_seq : int;
}

let arity = 4

let create () = { times = [||]; keys = [||]; pos = [||]; size = 0; next_seq = 0 }
let is_empty t = t.size = 0
let length t = t.size

let alloc_seq t =
  let s = t.next_seq in
  if s > max_seq then failwith "Event_queue: sequence space exhausted";
  t.next_seq <- s + 1;
  s

let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let nt = Array.make ncap 0.0 in
  let nk = Array.make ncap 0 in
  Array.blit t.times 0 nt 0 t.size;
  Array.blit t.keys 0 nk 0 t.size;
  t.times <- nt;
  t.keys <- nk

let grow_pos t slot =
  let np = Array.make (Int.max (slot + 1) (2 * Array.length t.pos)) 0 in
  Array.blit t.pos 0 np 0 (Array.length t.pos);
  t.pos <- np

(* Move the entry at [src] into the hole at [hole], toward the root. *)
let sift_up t ~hole ~src =
  let times = t.times and keys = t.keys and pos = t.pos in
  let time = times.(src) and key = keys.(src) in
  let i = ref hole in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / arity in
    let pt = times.(p) and pk = keys.(p) in
    if time < pt || (time = pt && key < pk) then begin
      times.(!i) <- pt;
      keys.(!i) <- pk;
      pos.(pk land slot_mask) <- !i;
      i := p
    end
    else continue := false
  done;
  times.(!i) <- time;
  keys.(!i) <- key;
  pos.(key land slot_mask) <- !i

(* Move the entry at [src] (at or past [n], or the hole itself) into
   the hole at [hole], toward the leaves of the first [n] entries. *)
let sift_down t ~hole ~src ~n =
  let times = t.times and keys = t.keys and pos = t.pos in
  let time = times.(src) and key = keys.(src) in
  let i = ref hole in
  let continue = ref true in
  while !continue do
    let first = (arity * !i) + 1 in
    if first >= n then continue := false
    else begin
      let last = if first + arity - 1 < n then first + arity - 1 else n - 1 in
      let b = ref first in
      let bt = ref times.(first) and bk = ref keys.(first) in
      for c = first + 1 to last do
        let ct = times.(c) in
        if ct < !bt || (ct = !bt && keys.(c) < !bk) then begin
          b := c;
          bt := ct;
          bk := keys.(c)
        end
      done;
      if !bt < time || (!bt = time && !bk < key) then begin
        times.(!i) <- !bt;
        keys.(!i) <- !bk;
        pos.(!bk land slot_mask) <- !i;
        i := !b
      end
      else continue := false
    end
  done;
  times.(!i) <- time;
  keys.(!i) <- key;
  pos.(key land slot_mask) <- !i

let insert t ~time ~seq slot =
  let key = (seq lsl slot_bits) lor slot in
  if t.size >= Array.length t.times then grow t;
  if slot >= Array.length t.pos then grow_pos t slot;
  let n = t.size in
  t.times.(n) <- time;
  t.keys.(n) <- key;
  t.size <- n + 1;
  sift_up t ~hole:n ~src:n

let push t ~time slot = insert t ~time ~seq:(alloc_seq t) slot

(* Rewrite the entry's key where it sits, then move it the way the key
   moved: toward the root if it got earlier, toward the leaves if
   later. *)
let update t slot ~time ~seq =
  let i = t.pos.(slot) in
  let key = (seq lsl slot_bits) lor slot in
  let ot = t.times.(i) and ok = t.keys.(i) in
  if time < ot || (time = ot && key < ok) then begin
    t.times.(i) <- time;
    t.keys.(i) <- key;
    sift_up t ~hole:i ~src:i
  end
  else if time > ot || key > ok then begin
    t.times.(i) <- time;
    t.keys.(i) <- key;
    sift_down t ~hole:i ~src:i ~n:t.size
  end

let top_time t = t.times.(0)
let top_seq t = t.keys.(0) lsr slot_bits
let top_slot t = t.keys.(0) land slot_mask

(* Fill the hole at [i] with the last entry, which may belong above or
   below it. *)
let fill_hole t i =
  let n = t.size - 1 in
  t.size <- n;
  if i < n then begin
    let p = (i - 1) / arity in
    if
      i > 0
      && (t.times.(n) < t.times.(p)
         || (t.times.(n) = t.times.(p) && t.keys.(n) < t.keys.(p)))
    then sift_up t ~hole:i ~src:n
    else sift_down t ~hole:i ~src:n ~n
  end

let drop_top t = fill_hole t 0
let remove t slot = fill_hole t t.pos.(slot)

let clear t =
  t.size <- 0;
  t.next_seq <- 0;
  t.times <- [||];
  t.keys <- [||];
  t.pos <- [||]
