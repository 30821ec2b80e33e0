(* Shared relay/aggregation machinery for PigPaxos-style phase-2 trees
   (DESIGN.md §12). Everything here is deterministic and allocation
   conscious: plans are pure functions of (n, leader, r, gen) memoized
   per replica, and aggregation state lives in pooled records whose
   ack bitmap is a single immediate int. *)

type plan = { groups : int array array; group_of : int array }

(* Followers in ascending id order, rotated by [gen], cut into [r]
   contiguous chunks with sizes differing by at most one (the first
   [(n-1) mod r] groups take the extra member). The rotation moves
   both relay duty (position 0 of each chunk) and group membership, so
   a persistently slow node neither stays a relay nor pins the same
   groupmates forever. Every replica — leader, relay, member — computes
   the identical plan from the same inputs, which is what lets a relay
   find its own group in a message that only carries [gen]. *)
let compute ~n ~leader ~r ~gen =
  if r < 1 || r > n - 1 then
    invalid_arg
      (Printf.sprintf "Relay.compute: r=%d out of range 1..%d" r (n - 1));
  let m = n - 1 in
  let followers = Array.make m 0 in
  let j = ref 0 in
  for id = 0 to n - 1 do
    if id <> leader then begin
      followers.(!j) <- id;
      incr j
    end
  done;
  let rot = ((gen mod m) + m) mod m in
  let base = m / r and extra = m mod r in
  let group_of = Array.make n (-1) in
  let start = ref 0 in
  let groups =
    Array.init r (fun g ->
        let size = if g < extra then base + 1 else base in
        let arr =
          Array.init size (fun i -> followers.((!start + i + rot) mod m))
        in
        start := !start + size;
        Array.iter (fun id -> group_of.(id) <- g) arr;
        arr)
  in
  { groups; group_of }

(* Plan cache keyed by (leader, gen) packed into one int; n and r are
   fixed for a run. Leaders fit in 10 bits (n <= 1024 everywhere near
   this code); generations advance once per [gen_window] rounds plus
   once per fallback, so the table stays tiny. *)
type plans = (int, plan) Hashtbl.t

let plans () : plans = Hashtbl.create 8

let find (t : plans) ~n ~leader ~r ~gen =
  let key = (gen lsl 10) lor leader in
  match Hashtbl.find_opt t key with
  | Some p -> p
  | None ->
      let p = compute ~n ~leader ~r ~gen in
      Hashtbl.add t key p;
      p

let gen_window = 1024
let gen_of_seq ~seq ~bump = (seq / gen_window) + bump
let full_mask k = (1 lsl k) - 1

type agg = {
  mutable a_leader : int;
  mutable a_gen : int;
  mutable a_group : int array;
  mutable a_mask : int;
  mutable a_bits : int;
  mutable a_tag : int;
  mutable a_aux : int;
  mutable a_complete : bool;
  mutable a_t0 : float;
  mutable a_flush : Paxi_sim.Sim.handle;
  mutable a_next : agg;
}

let rec agg_nil =
  {
    a_leader = -1;
    a_gen = 0;
    a_group = [||];
    a_mask = 0;
    a_bits = 0;
    a_tag = 0;
    a_aux = 0;
    a_complete = false;
    a_t0 = 0.0;
    a_flush = Paxi_sim.Sim.nil;
    a_next = agg_nil;
  }

type pool = { mutable free : agg }

let pool () = { free = agg_nil }

let alloc p ~leader ~gen ~group ~tag ~aux =
  let a =
    if p.free != agg_nil then begin
      let a = p.free in
      p.free <- a.a_next;
      a.a_next <- a;
      a
    end
    else
      let rec a =
        {
          a_leader = 0;
          a_gen = 0;
          a_group = [||];
          a_mask = 0;
          a_bits = 0;
          a_tag = 0;
          a_aux = 0;
                a_complete = false;
          a_t0 = 0.0;
          a_flush = Paxi_sim.Sim.nil;
          a_next = a;
        }
      in
      a
  in
  a.a_leader <- leader;
  a.a_gen <- gen;
  a.a_group <- group;
  a.a_mask <- full_mask (Array.length group);
  a.a_bits <- 0;
  a.a_tag <- tag;
  a.a_aux <- aux;
  a.a_complete <- false;
  a.a_t0 <- 0.0;
  a.a_flush <- Paxi_sim.Sim.nil;
  a

let release p a =
  a.a_group <- [||];
  a.a_next <- p.free;
  p.free <- a

let set_bit a i = a.a_bits <- a.a_bits lor (1 lsl i)
let complete a = a.a_bits land a.a_mask = a.a_mask

let position a id =
  let g = a.a_group in
  let n = Array.length g in
  let rec go i = if i >= n then -1 else if g.(i) = id then i else go (i + 1) in
  go 0
