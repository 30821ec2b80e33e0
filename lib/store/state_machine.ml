(* The applied sequence is paged like the replica log (Slot_log):
   command [i] sits at offset [i land (page_slots - 1)] of page
   [i lsr page_bits]. Page 0 doubles from 16 commands to 1,024; later
   pages are allocated whole, so growth copies nothing but the spine. *)
let page_bits = 10
let page_slots = 1 lsl page_bits
let first_page = 16

type t = { kv : Kv.t; mutable pages : Command.t array array; mutable n : int }

let create () = { kv = Kv.create (); pages = [||]; n = 0 }

let record t cmd =
  let p = t.n lsr page_bits and o = t.n land (page_slots - 1) in
  if p = Array.length t.pages then begin
    let pages = Array.make (Int.max 1 (2 * p)) [||] in
    Array.blit t.pages 0 pages 0 p;
    t.pages <- pages
  end;
  let page = t.pages.(p) in
  if o = Array.length page then begin
    (* filled with the static [noop], never with [cmd]: for an array
       past 256 words a young initial value makes [Array.make] empty
       the minor heap first *)
    let grown =
      Array.make
        (if p > 0 then page_slots else Int.max first_page (2 * o))
        Command.noop
    in
    Array.blit page 0 grown 0 o;
    t.pages.(p) <- grown
  end;
  t.pages.(p).(o) <- cmd;
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
  read

let nth t i = t.pages.(i lsr page_bits).(i land (page_slots - 1))
let applied t = List.init t.n (nth t)
let image t = Array.init t.n (nth t)
let applied_count t = t.n
let store t = t.kv

(* The writers [apply] passed to [Kv.write], gathered under their
   key's slot in [kv]; a key this replica never wrote finds a slot no
   writer used. Walked newest first, so each list is oldest first. *)
let histories t =
  let by_slot = Array.make (Kv.capacity t.kv) [] in
  for i = t.n - 1 downto 0 do
    let c = nth t i in
    if Command.is_write c && not (Command.is_noop c) then begin
      let s = Kv.slot t.kv (Command.key c) in
      by_slot.(s) <- c :: by_slot.(s)
    end
  done;
  fun k -> by_slot.(Kv.slot t.kv k)

let key_history t k = histories t k
