(* Timer slots: every scheduled event owns a reusable slot in parallel
   arrays ([thunks]/[state]) instead of a per-event heap-allocated
   handle record. The heap and the zero-delay lane carry bare slot
   indices; a [handle] packs (generation, slot) into one immediate
   int, so scheduling and cancellation allocate nothing.

   [state.(slot)] packs [(gen lsl 2) lor (in_heap lsl 1) lor
   cancelled]. The generation is bumped whenever the slot is retired
   (its event fired, was skipped, or was cancelled out of the heap),
   which makes every outstanding handle for the old occupant stale:
   [cancel] compares the handle's generation against the slot's and
   ignores mismatches, so late cancels of already-fired timers are
   safe no-ops — callers keep a plain [handle] (or {!nil}) instead of
   a [handle option].

   Cancelling a heap entry removes it from the heap and retires its
   slot at once. A cancelled lane entry stays in the ring, marked, and
   is skipped when it reaches the front. *)

let nop () = ()

type handle = int

let nil : handle = -1
let is_nil h = h < 0

(* slot index in the low bits, generation above — 16M concurrent
   timers, ~2^37 reuses per slot *)
let slot_bits = Event_queue.slot_bits
let slot_mask = (1 lsl slot_bits) - 1

type t = {
  queue : Event_queue.t;
  (* timer slots *)
  mutable thunks : (unit -> unit) array;
  mutable state : int array;
  mutable free : int array; (* stack of retired slot indices *)
  mutable free_top : int;
  mutable n_slots : int;
  (* same-instant FIFO lane, a ring buffer over parallel arrays:
     every entry was scheduled at exactly the current clock
     ([schedule_immediate] / zero-delay [schedule_after]), so it fires
     before the clock can advance. Entries carry seqs from the heap's
     counter so the merged (time, seq) order is identical to pushing
     them on the heap. Capacity is a power of two. *)
  mutable lane_seqs : int array;
  mutable lane_slots : int array;
  mutable lane_head : int;
  mutable lane_len : int;
  mutable clock : float;
  mutable fired : int;
  mutable inlined : int;
  mutable horizon : float;
      (* upper bound on clock advancement for [try_inline]; only
         meaningful while [inline_ok]. *)
  mutable inline_ok : bool;
      (* true only inside [run]/[run_until]: [step]-driven harnesses
         expect one externally visible event per call, so inlining is
         disabled there. *)
  root_rng : Rng.t;
}

let create ?(seed = 42) () =
  {
    queue = Event_queue.create ();
    thunks = [||];
    state = [||];
    free = [||];
    free_top = 0;
    n_slots = 0;
    lane_seqs = [||];
    lane_slots = [||];
    lane_head = 0;
    lane_len = 0;
    clock = 0.0;
    fired = 0;
    inlined = 0;
    horizon = neg_infinity;
    inline_ok = false;
    root_rng = Rng.create ~seed;
  }

let now t = t.clock
let rng t = t.root_rng
let events_fired t = t.fired
let events_inlined t = t.inlined

(* ---- timer slots ---------------------------------------------------- *)

let grow_slots t =
  let cap = Array.length t.state in
  let ncap = if cap = 0 then 64 else cap * 2 in
  if ncap > slot_mask + 1 then failwith "Sim: timer slot space exhausted";
  let nt = Array.make ncap nop in
  let ns = Array.make ncap 0 in
  let nf = Array.make ncap 0 in
  Array.blit t.thunks 0 nt 0 t.n_slots;
  Array.blit t.state 0 ns 0 t.n_slots;
  Array.blit t.free 0 nf 0 t.free_top;
  t.thunks <- nt;
  t.state <- ns;
  t.free <- nf

let alloc_slot t thunk =
  let s =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free.(t.free_top)
    end
    else begin
      if t.n_slots >= Array.length t.state then grow_slots t;
      let s = t.n_slots in
      t.n_slots <- t.n_slots + 1;
      s
    end
  in
  t.thunks.(s) <- thunk;
  s

(* Bump the generation (staling every outstanding handle) and return
   the slot to the free stack. *)
let retire t s =
  t.thunks.(s) <- nop;
  t.state.(s) <- ((t.state.(s) lsr 2) + 1) lsl 2;
  t.free.(t.free_top) <- s;
  t.free_top <- t.free_top + 1

let handle_of t s = ((t.state.(s) lsr 2) lsl slot_bits) lor s

(* ---- lane ring ------------------------------------------------------ *)

let grow_lane t =
  let cap = Array.length t.lane_seqs in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let ns = Array.make ncap 0 in
  let nsl = Array.make ncap 0 in
  for i = 0 to t.lane_len - 1 do
    let j = (t.lane_head + i) land (cap - 1) in
    ns.(i) <- t.lane_seqs.(j);
    nsl.(i) <- t.lane_slots.(j)
  done;
  t.lane_seqs <- ns;
  t.lane_slots <- nsl;
  t.lane_head <- 0

let lane_push t ~seq ~slot =
  if t.lane_len >= Array.length t.lane_seqs then grow_lane t;
  let cap = Array.length t.lane_seqs in
  let i = (t.lane_head + t.lane_len) land (cap - 1) in
  t.lane_seqs.(i) <- seq;
  t.lane_slots.(i) <- slot;
  t.lane_len <- t.lane_len + 1

(* ---- scheduling ----------------------------------------------------- *)

let schedule_at t ~time thunk =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: time %g < now %g" time t.clock);
  let s = alloc_slot t thunk in
  if time = t.clock then
    lane_push t ~seq:(Event_queue.alloc_seq t.queue) ~slot:s
  else begin
    Event_queue.push t.queue ~time s;
    t.state.(s) <- t.state.(s) lor 2
  end;
  handle_of t s

let schedule_after t ~delay thunk =
  schedule_at t ~time:(t.clock +. Float.max 0.0 delay) thunk

let schedule_immediate t thunk =
  let s = alloc_slot t thunk in
  lane_push t ~seq:(Event_queue.alloc_seq t.queue) ~slot:s;
  handle_of t s

(* ---- cancellation --------------------------------------------------- *)

let live t h =
  h >= 0
  &&
  let s = h land slot_mask in
  s < t.n_slots
  &&
  let st = t.state.(s) in
  st lsr 2 = h lsr slot_bits && st land 1 = 0

let cancel t h =
  if h >= 0 then begin
    let s = h land slot_mask in
    if s < t.n_slots then begin
      let st = t.state.(s) in
      if st lsr 2 = h lsr slot_bits && st land 1 = 0 then
        if st land 2 <> 0 then begin
          Event_queue.remove t.queue s;
          retire t s
        end
        else t.state.(s) <- st lor 1
    end
  end

(* ---- execution ------------------------------------------------------ *)

let exec t time slot =
  t.clock <- time;
  let st = t.state.(slot) in
  let thunk = t.thunks.(slot) in
  retire t slot;
  if st land 1 = 0 then begin
    t.fired <- t.fired + 1;
    thunk ()
  end

let exec_lane_head t =
  let i = t.lane_head in
  let slot = t.lane_slots.(i) in
  t.lane_head <- (i + 1) land (Array.length t.lane_seqs - 1);
  t.lane_len <- t.lane_len - 1;
  exec t t.clock slot

let exec_heap_top t =
  let time = Event_queue.top_time t.queue in
  let slot = Event_queue.top_slot t.queue in
  Event_queue.drop_top t.queue;
  exec t time slot

(* Earliest event across the heap and the lane. Lane entries all sit
   at [t.clock]; a heap entry at the same time fires first iff its seq
   is smaller (it was scheduled earlier). *)
let heap_precedes_lane t =
  (not (Event_queue.is_empty t.queue))
  && Event_queue.top_time t.queue <= t.clock
  && Event_queue.top_seq t.queue < t.lane_seqs.(t.lane_head)

let run_until t horizon =
  let saved_ok = t.inline_ok and saved_h = t.horizon in
  t.inline_ok <- true;
  t.horizon <- horizon;
  let continue = ref true in
  while !continue do
    if t.lane_len > 0 then
      if heap_precedes_lane t then exec_heap_top t else exec_lane_head t
    else if
      (not (Event_queue.is_empty t.queue))
      && Event_queue.top_time t.queue <= horizon
    then exec_heap_top t
    else continue := false
  done;
  t.inline_ok <- saved_ok;
  t.horizon <- saved_h;
  if horizon > t.clock then t.clock <- horizon

let run t =
  let saved_ok = t.inline_ok and saved_h = t.horizon in
  t.inline_ok <- true;
  t.horizon <- infinity;
  let continue = ref true in
  while !continue do
    if t.lane_len > 0 then
      if heap_precedes_lane t then exec_heap_top t else exec_lane_head t
    else if not (Event_queue.is_empty t.queue) then exec_heap_top t
    else continue := false
  done;
  t.inline_ok <- saved_ok;
  t.horizon <- saved_h

let step t =
  if t.lane_len > 0 then begin
    if heap_precedes_lane t then exec_heap_top t else exec_lane_head t;
    true
  end
  else if not (Event_queue.is_empty t.queue) then begin
    exec_heap_top t;
    true
  end
  else false

let try_inline t ~time thunk =
  if
    t.inline_ok && time >= t.clock && time <= t.horizon && t.lane_len = 0
    && (Event_queue.is_empty t.queue || Event_queue.top_time t.queue > time)
  then begin
    (* No pending event precedes (time, fresh-seq), so running the
       thunk here with the clock advanced is observationally identical
       to scheduling it — same RNG stream, same order. Counted in
       [fired] so event totals match the non-inlined schedule. *)
    t.clock <- time;
    t.fired <- t.fired + 1;
    t.inlined <- t.inlined + 1;
    thunk ();
    true
  end
  else false

let pending t = Event_queue.length t.queue + t.lane_len
