(* Per-crash-domain timer ownership registry.

   A nemesis crash must take down every timer the dead replica owns —
   election clocks, heartbeat loops, retransmit backoffs, lease
   renewals, storage fsync completions — or stale events fire into the
   recovered instance and corrupt its fresh state (the pre-PR-10
   "pause-not-crash" bug). The simulator's packed (generation, slot)
   handles make this cheap: the registry just remembers every handle
   its owner scheduled and mass-cancels the still-live ones at the
   crash edge. [Sim.cancel] takes each heap timer out of the heap at
   once (O(log heap) apiece), so even thousands of pending retransmit
   timers release their slots at the crash edge.

   Handles of events that already fired go stale on their own
   (generation bump at [retire]); [track] sweeps them out lazily when
   the vector fills, so steady-state loops (heartbeat, failover) keep
   the registry at O(live timers), not O(all timers ever). *)

type t = {
  sim : Sim.t;
  mutable handles : Sim.handle array;
  mutable len : int;
  mutable cancelled : int;
}

let create sim = { sim; handles = Array.make 16 Sim.nil; len = 0; cancelled = 0 }

(* Drop handles whose events already fired (or were cancelled). *)
let sweep t =
  let k = ref 0 in
  for i = 0 to t.len - 1 do
    let h = t.handles.(i) in
    if Sim.live t.sim h then begin
      t.handles.(!k) <- h;
      incr k
    end
  done;
  t.len <- !k

let track t h =
  if t.len >= Array.length t.handles then begin
    sweep t;
    (* still mostly live after the sweep: genuinely need more room *)
    if 2 * t.len >= Array.length t.handles then begin
      let grown = Array.make (2 * Array.length t.handles) Sim.nil in
      Array.blit t.handles 0 grown 0 t.len;
      t.handles <- grown
    end
  end;
  t.handles.(t.len) <- h;
  t.len <- t.len + 1;
  h

let cancel_all t =
  for i = 0 to t.len - 1 do
    let h = t.handles.(i) in
    if Sim.live t.sim h then begin
      Sim.cancel t.sim h;
      t.cancelled <- t.cancelled + 1
    end;
    t.handles.(i) <- Sim.nil
  done;
  t.len <- 0

let live_count t =
  let k = ref 0 in
  for i = 0 to t.len - 1 do
    if Sim.live t.sim t.handles.(i) then incr k
  done;
  !k

let cancelled_total t = t.cancelled
