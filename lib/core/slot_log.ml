(* Slot [i] lives at offset [i land (page_slots - 1)] of page
   [i lsr page_bits], in three parallel arrays: [words] (0 = empty,
   else [(meta lsl 1) lor 1]), [cmds] and, on pages where a client was
   recorded, [clients] ([Address.code], [no_client] = none). An unallocated page
   is [[||]]. Page 0 grows by doubling from [first_page] slots to
   [page_slots]; every later page is allocated whole, so growth past
   the first page copies nothing but the spine. *)
let page_bits = 10
let page_slots = 1 lsl page_bits
let offset_mask = page_slots - 1
let first_page = 16
let max_meta = (1 lsl 61) - 1
let no_client = min_int

type t = {
  mutable words : int array array;
  mutable cmds : Command.t array array;
  mutable clients : int array array;
  mutable high : int; (* one past highest occupied slot *)
  mutable frontier : int;
  mutable filled : int;
  mutable base : int; (* slots below this were compacted into a snapshot *)
  mutable watermark : int;
      (* [commit_below] has scanned every slot below this; a slot in
         [frontier, watermark) present at that scan was marked then *)
  mutable late : int array; (* slots [set] after the watermark passed them *)
  mutable late_n : int;
}

let create () =
  {
    words = [||];
    cmds = [||];
    clients = [||];
    high = 0;
    frontier = 0;
    filled = 0;
    base = 0;
    watermark = 0;
    late = [||];
    late_n = 0;
  }

(* The slot's word, 0 when its page is absent or too short (a
   negative slot's page index is out of range). *)
let word t i =
  let p = i lsr page_bits in
  if p >= Array.length t.words then 0
  else
    let page = Array.unsafe_get t.words p in
    let o = i land offset_mask in
    if o >= Array.length page then 0 else Array.unsafe_get page o

let mem t i = word t i <> 0
let meta t i = word t i lsr 1

let cmd t i =
  if word t i = 0 then Command.noop
  else (Array.unsafe_get t.cmds (i lsr page_bits)).(i land offset_mask)

let grow_spine t p =
  let len = Array.length t.words in
  let n = Int.max (p + 1) (2 * len) in
  let g a =
    let na = Array.make n [||] in
    Array.blit a 0 na 0 len;
    na
  in
  t.words <- g t.words;
  t.cmds <- g t.cmds;
  t.clients <- g t.clients

let resized a n fill =
  let na = Array.make n fill in
  Array.blit a 0 na 0 (Array.length a);
  na

(* Make slot [i]'s page hold offset [i land offset_mask]. *)
let ensure t i =
  let p = i lsr page_bits and o = i land offset_mask in
  if p >= Array.length t.words then grow_spine t p;
  let page = t.words.(p) in
  if o >= Array.length page then begin
    let n =
      if p > 0 then page_slots
      else begin
        let n = ref (Int.max first_page (Array.length page)) in
        while o >= !n do
          n := 2 * !n
        done;
        !n
      end
    in
    t.words.(p) <- resized page n 0;
    t.cmds.(p) <- resized t.cmds.(p) n Command.noop;
    if Array.length t.clients.(p) > 0 then
      t.clients.(p) <- resized t.clients.(p) n no_client
  end

let push_late t i =
  let cap = Array.length t.late in
  if t.late_n = cap then begin
    let nl = Array.make (if cap = 0 then 16 else cap * 2) 0 in
    Array.blit t.late 0 nl 0 cap;
    t.late <- nl
  end;
  t.late.(t.late_n) <- i;
  t.late_n <- t.late_n + 1

let clear_client t p o =
  let c = t.clients.(p) in
  if Array.length c > 0 then c.(o) <- no_client

let set t i ~meta cmd =
  if i < 0 then invalid_arg "Slot_log.set: negative slot";
  if meta < 0 || meta > max_meta then invalid_arg "Slot_log.set: meta word";
  if i >= t.base then begin
    ensure t i;
    let p = i lsr page_bits and o = i land offset_mask in
    let words = t.words.(p) in
    if words.(o) = 0 then t.filled <- t.filled + 1 else clear_client t p o;
    words.(o) <- (meta lsl 1) lor 1;
    t.cmds.(p).(o) <- cmd;
    if i >= t.high then t.high <- i + 1;
    (* the watermark already passed this slot: the next [commit_below]
       must look at it again. Below the frontier it never will. *)
    if i < t.watermark && i >= t.frontier then push_late t i
  end
(* below [base]: the slot's effect is already folded into the
   snapshot — a late duplicate append carries no new information *)

let check_filled t i what =
  if word t i = 0 then invalid_arg ("Slot_log." ^ what ^ ": empty slot")

let set_meta t i meta =
  check_filled t i "set_meta";
  t.words.(i lsr page_bits).(i land offset_mask) <- (meta lsl 1) lor 1

let update t i ~meta cmd =
  set_meta t i meta;
  t.cmds.(i lsr page_bits).(i land offset_mask) <- cmd

let set_client t i addr =
  check_filled t i "set_client";
  let p = i lsr page_bits in
  if Array.length t.clients.(p) = 0 then
    t.clients.(p) <- Array.make (Array.length t.words.(p)) no_client;
  t.clients.(p).(i land offset_mask) <- Address.code addr

(* a client page is as long as its slot page, and a slot is filled
   wherever a client code is recorded *)
let client_code t i =
  if word t i = 0 then no_client
  else
    let c = Array.unsafe_get t.clients (i lsr page_bits) in
    if Array.length c = 0 then no_client else c.(i land offset_mask)

let take_client t i =
  let code = client_code t i in
  if code <> no_client then
    t.clients.(i lsr page_bits).(i land offset_mask) <- no_client;
  code

let next_slot t = t.high

let reserve t =
  let s = t.high in
  t.high <- t.high + 1;
  s

let exec_frontier t = t.frontier

(* The frontier passes a slot before [f] runs on it, so an [f] that
   commits and advances again continues from the next slot: every slot
   runs once, in order, however deeply the calls nest. *)
let advance_frontier t ~executable ~f =
  let continue = ref true in
  while !continue do
    let slot = t.frontier in
    let w = word t slot in
    if w <> 0 && executable (w lsr 1) then begin
      t.frontier <- slot + 1;
      f slot
    end
    else continue := false
  done

(* Mark slot [i] if it is filled and pending; whether it was. *)
let mark_slot t i ~pending ~mark =
  let w = word t i in
  if w <> 0 && pending (w lsr 1) then begin
    t.words.(i lsr page_bits).(i land offset_mask) <- (mark (w lsr 1) lsl 1) lor 1;
    true
  end
  else false

let commit_below t bound ~pending ~mark =
  let changed = ref false in
  (* drain the late slots below [bound], keep the rest in place *)
  let kept = ref 0 in
  for k = 0 to t.late_n - 1 do
    let i = t.late.(k) in
    if i >= bound then begin
      t.late.(!kept) <- i;
      incr kept
    end
    else if i >= t.frontier && mark_slot t i ~pending ~mark then changed := true
  done;
  t.late_n <- !kept;
  for i = Int.max t.frontier t.watermark to bound - 1 do
    if mark_slot t i ~pending ~mark then changed := true
  done;
  if bound > t.watermark then t.watermark <- bound;
  !changed

let iter_from t ~start ~f =
  for i = Int.max start 0 to t.high - 1 do
    if word t i <> 0 then f i
  done

let filled_count t = t.filled
let base t = t.base

let truncate t ~upto =
  if upto > t.base then begin
    for i = t.base to Int.min upto t.high - 1 do
      if word t i <> 0 then begin
        let p = i lsr page_bits and o = i land offset_mask in
        t.words.(p).(o) <- 0;
        t.cmds.(p).(o) <- Command.noop;
        clear_client t p o;
        t.filled <- t.filled - 1
      end
    done;
    (* every slot of these pages now reads empty: release them *)
    for p = 0 to Int.min (upto lsr page_bits) (Array.length t.words) - 1 do
      t.words.(p) <- [||];
      t.cmds.(p) <- [||];
      t.clients.(p) <- [||]
    done;
    t.base <- upto;
    if t.frontier < upto then t.frontier <- upto;
    if t.high < upto then t.high <- upto
  end
