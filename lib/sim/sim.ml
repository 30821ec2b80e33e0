(* Timer slots: every scheduled event owns a reusable slot in parallel
   arrays ([thunks]/[state]) instead of a per-event heap-allocated
   handle record. The heap and the zero-delay lane carry bare slot
   indices; a [handle] packs (generation, slot) into one immediate
   int, so scheduling and cancellation allocate nothing.

   [state.(slot)] packs [(gen lsl 4) lor (uncounted lsl 3) lor (agent
   lsl 2) lor (in_heap lsl 1) lor cancelled]. The generation is bumped
   whenever the slot is retired (its event fired, was skipped, or was
   cancelled out of the heap), which makes every outstanding handle
   for the old occupant stale: [cancel] compares the handle's
   generation against the slot's and ignores mismatches, so late
   cancels of already-fired timers are safe no-ops — callers keep a
   plain [handle] (or {!nil}) instead of a [handle option].

   Cancelling a heap entry removes it from the heap and retires its
   slot at once. A cancelled lane entry stays in the ring, marked, and
   is skipped when it reaches the front.

   An agent's slot is never retired: it keeps its thunk and sits in
   the heap whenever its owner has set it, at a key the owner chose,
   and leaves the heap when it fires or is put to rest. *)

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
  clock : float array;
      (* the virtual clock in a 1-slot float array: a mutable float
         field of this mixed record would box on every store *)
  mutable cur_seq : int;
      (* seq of the event running now (or last run by [step]); after
         [run]/[run_until], one above every seq claimed before *)
  mutable fired : int;
  mutable on_stop : (unit -> unit) list;
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
    clock = Array.make 1 0.0;
    cur_seq = -1;
    fired = 0;
    on_stop = [];
    root_rng = Rng.create ~seed;
  }

let now t = t.clock.(0)
let rng t = t.root_rng
let events_fired t = t.fired
let current_seq t = t.cur_seq
let alloc_seq t = Event_queue.alloc_seq t.queue
let on_stop t f = t.on_stop <- f :: t.on_stop

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
  t.state.(s) <- ((t.state.(s) lsr 4) + 1) lsl 4;
  t.free.(t.free_top) <- s;
  t.free_top <- t.free_top + 1

let handle_of t s = ((t.state.(s) lsr 4) lsl slot_bits) lor s

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
  if time < t.clock.(0) then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: time %g < now %g" time t.clock.(0));
  let s = alloc_slot t thunk in
  if time = t.clock.(0) then
    lane_push t ~seq:(Event_queue.alloc_seq t.queue) ~slot:s
  else begin
    Event_queue.push t.queue ~time s;
    t.state.(s) <- t.state.(s) lor 2
  end;
  handle_of t s

let schedule_after t ~delay thunk =
  schedule_at t ~time:(t.clock.(0) +. Float.max 0.0 delay) thunk

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
  st lsr 4 = h lsr slot_bits && st land 1 = 0

let cancel t h =
  if h >= 0 then begin
    let s = h land slot_mask in
    if s < t.n_slots then begin
      let st = t.state.(s) in
      if st lsr 4 = h lsr slot_bits && st land 1 = 0 then
        if st land 2 <> 0 then begin
          Event_queue.remove t.queue s;
          retire t s
        end
        else t.state.(s) <- st lor 1
    end
  end

(* ---- agents --------------------------------------------------------- *)

type agent = int

let agent ?(counted = true) t thunk =
  let s = alloc_slot t thunk in
  t.state.(s) <- t.state.(s) lor (if counted then 4 else 12);
  s

let wake t a ~time ~seq =
  let st = t.state.(a) in
  if st land 2 <> 0 then Event_queue.update t.queue a ~time ~seq
  else begin
    Event_queue.insert t.queue ~time ~seq a;
    t.state.(a) <- st lor 2
  end

let rest t a =
  let st = t.state.(a) in
  if st land 2 <> 0 then begin
    Event_queue.remove t.queue a;
    t.state.(a) <- st land lnot 2
  end

(* ---- execution ------------------------------------------------------ *)

(* Run [slot]'s event at position [seq]; the caller has set the clock
   to the event's time. *)
let exec t seq slot =
  t.cur_seq <- seq;
  let st = t.state.(slot) in
  let thunk = t.thunks.(slot) in
  if st land 4 <> 0 then begin
    t.state.(slot) <- st land lnot 2;
    if st land 8 = 0 then t.fired <- t.fired + 1;
    thunk ()
  end
  else begin
    retire t slot;
    if st land 1 = 0 then begin
      t.fired <- t.fired + 1;
      thunk ()
    end
  end

let exec_lane_head t =
  let i = t.lane_head in
  let slot = t.lane_slots.(i) in
  t.lane_head <- (i + 1) land (Array.length t.lane_seqs - 1);
  t.lane_len <- t.lane_len - 1;
  exec t t.lane_seqs.(i) slot

let exec_heap_top t =
  t.clock.(0) <- Event_queue.top_time t.queue;
  let seq = Event_queue.top_seq t.queue in
  let slot = Event_queue.top_slot t.queue in
  Event_queue.drop_top t.queue;
  exec t seq slot

(* Earliest event across the heap and the lane. Lane entries all sit
   at [t.clock]; a heap entry at the same time fires first iff its seq
   is smaller (it was scheduled earlier). *)
let heap_precedes_lane t =
  (not (Event_queue.is_empty t.queue))
  && Event_queue.top_time t.queue <= t.clock.(0)
  && Event_queue.top_seq t.queue < t.lane_seqs.(t.lane_head)

(* Every event up to the clock has run: the position is past every
   seq claimed so far. *)
let stop t =
  t.cur_seq <- Event_queue.alloc_seq t.queue;
  List.iter (fun f -> f ()) t.on_stop

let run_until t horizon =
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
  if horizon > t.clock.(0) then t.clock.(0) <- horizon;
  stop t

let run t =
  let continue = ref true in
  while !continue do
    if t.lane_len > 0 then
      if heap_precedes_lane t then exec_heap_top t else exec_lane_head t
    else if not (Event_queue.is_empty t.queue) then exec_heap_top t
    else continue := false
  done;
  stop t

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

let pending t = Event_queue.length t.queue + t.lane_len
