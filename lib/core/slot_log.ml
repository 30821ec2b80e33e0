type 'a t = {
  mutable slots : 'a option array;
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
    slots = Array.make 64 None;
    high = 0;
    frontier = 0;
    filled = 0;
    base = 0;
    watermark = 0;
    late = [||];
    late_n = 0;
  }

let ensure t i =
  let cap = Array.length t.slots in
  if i >= cap then begin
    let ncap = ref (cap * 2) in
    while i >= !ncap do
      ncap := !ncap * 2
    done;
    let ns = Array.make !ncap None in
    Array.blit t.slots 0 ns 0 cap;
    t.slots <- ns
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

let get t i = if i < 0 || i >= Array.length t.slots then None else t.slots.(i)

let set t i v =
  if i < 0 then invalid_arg "Slot_log.set: negative slot";
  if i >= t.base then begin
    ensure t i;
    (match t.slots.(i) with None -> t.filled <- t.filled + 1 | Some _ -> ());
    t.slots.(i) <- Some v;
    if i >= t.high then t.high <- i + 1;
    (* the watermark already passed this slot: the next [commit_below]
       must look at it again. Below the frontier it never will. *)
    if i < t.watermark && i >= t.frontier then push_late t i
  end
  (* below [base]: the slot's effect is already folded into the
     snapshot — a late duplicate append carries no new information *)

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
    match get t slot with
    | Some v when executable v ->
        t.frontier <- slot + 1;
        f slot v
    | _ -> continue := false
  done

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
    else if i >= t.frontier then
      match t.slots.(i) with
      | Some v when pending v ->
          mark v;
          changed := true
      | _ -> ()
  done;
  t.late_n <- !kept;
  for i = Int.max t.frontier t.watermark to bound - 1 do
    match get t i with
    | Some v when pending v ->
        mark v;
        changed := true
    | _ -> ()
  done;
  if bound > t.watermark then t.watermark <- bound;
  !changed

let iter_filled t ~f =
  for i = 0 to t.high - 1 do
    match t.slots.(i) with Some v -> f i v | None -> ()
  done

let iter_from t ~start ~f =
  for i = (if start < 0 then 0 else start) to t.high - 1 do
    match t.slots.(i) with Some v -> f i v | None -> ()
  done

let filled_count t = t.filled
let base t = t.base

let truncate t ~upto =
  if upto > t.base then begin
    let hi = Int.min upto (Array.length t.slots) in
    for i = t.base to hi - 1 do
      match t.slots.(i) with
      | Some _ ->
          t.slots.(i) <- None;
          t.filled <- t.filled - 1
      | None -> ()
    done;
    t.base <- upto;
    if t.frontier < upto then t.frontier <- upto;
    if t.high < upto then t.high <- upto
  end
