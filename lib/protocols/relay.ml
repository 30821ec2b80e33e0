(* The relay layer of PigPaxos-style replication trees (DESIGN.md §12):
   everything about a relayed round that does not depend on the
   protocol. Deterministic and allocation conscious: plans are pure
   functions of (n, leader, r, gen) memoized per replica, and
   aggregation state lives in pooled records whose ack bitmap is a
   single immediate int. *)

type plan = {
  groups : int array array;
  group_of : int array;
  relays : int list;
}

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
  let relays = Array.to_list (Array.map (fun g -> g.(0)) groups) in
  { groups; group_of; relays }

let gen_window = 1024
let full_mask k = (1 lsl k) - 1

type agg = {
  mutable a_leader : int;
  mutable a_gen : int;
  mutable a_group : int array;
  mutable a_bits : int;
  mutable a_tag : int;
  mutable a_aux : int;
  mutable a_t0 : float;
  mutable a_flush : Sim.handle;
  mutable a_next : agg;
}

let fresh_agg () =
  let rec a =
    {
      a_leader = -1;
      a_gen = 0;
      a_group = [||];
      a_bits = 0;
      a_tag = 0;
      a_aux = 0;
      a_t0 = 0.0;
      a_flush = Sim.nil;
      a_next = a;
    }
  in
  a

let agg_nil = fresh_agg ()

type 'm t = {
  env : 'm Proto.env;
  r : int;
  ack : int -> agg -> 'm;
  mutable current : agg -> bool;
  plans : (int, plan) Hashtbl.t;
  aggs : (int, agg) Hashtbl.t;  (** relay side: in-flight records by key *)
  mutable free : agg;  (** pooled records, linked through [a_next] *)
  mutable seq : int;  (** leader: rounds routed (drives rotation) *)
  mutable bump : int;  (** leader: forced rotations after stalls *)
  mutable bypass_until : float;  (** leader: send direct until then *)
}

let create (env : 'm Proto.env) ~ack =
  {
    env;
    r = env.Proto.config.Config.relay_groups;
    ack;
    current = (fun _ -> true);
    plans = Hashtbl.create 8;
    aggs = Hashtbl.create 16;
    free = agg_nil;
    seq = 0;
    bump = 0;
    bypass_until = neg_infinity;
  }

let set_current t f = t.current <- f
let active t = t.r > 0

(* Generations are non-negative and leaders lie in [0, n), so
   [gen * n + leader] names each (leader, gen) pair exactly; n and r
   are fixed for a run. The table stays tiny: generations advance once
   per [gen_window] rounds plus once per stall. *)
let plan t ~leader ~gen =
  let key = (gen * t.env.Proto.n) + leader in
  match Hashtbl.find t.plans key with
  | p -> p
  | exception Not_found ->
      let p = compute ~n:t.env.Proto.n ~leader ~r:t.r ~gen in
      Hashtbl.add t.plans key p;
      p

(* ---- leader side ---- *)

let routing t = t.r > 0 && t.env.Proto.now () >= t.bypass_until

let route t =
  if routing t then begin
    let gen = (t.seq / gen_window) + t.bump in
    t.seq <- t.seq + 1;
    gen
  end
  else -1

let relays t ~gen = (plan t ~leader:t.env.Proto.id ~gen).relays

let fallback_ms t = t.env.Proto.config.Config.failover_timeout_ms /. 8.0

let stall t =
  t.bump <- t.bump + 1;
  t.bypass_until <-
    t.env.Proto.now () +. t.env.Proto.config.Config.failover_timeout_ms

let relay_group t ~src ~gen =
  let p = plan t ~leader:t.env.Proto.id ~gen in
  let gi = p.group_of.(src) in
  if gi >= 0 && p.groups.(gi).(0) = src then p.groups.(gi) else [||]

let covers group ~bits =
  let mask = full_mask (Array.length group) in
  bits land mask = mask

let acked ~bits i = bits land (1 lsl i) <> 0

(* ---- relay side ---- *)

(* Partial-flush cadence: match the retransmission base so a flush
   lands between the leader's retries, else the fallback interval. *)
let flush_ms t =
  match t.env.Proto.config.Config.retransmit with
  | Some r when r.Config.max_tries > 0 -> r.Config.base_ms
  | _ -> fallback_ms t

let alloc t ~leader ~gen ~group ~tag ~aux =
  let a =
    if t.free != agg_nil then begin
      let a = t.free in
      t.free <- a.a_next;
      a.a_next <- a;
      a
    end
    else fresh_agg ()
  in
  a.a_leader <- leader;
  a.a_gen <- gen;
  a.a_group <- group;
  a.a_bits <- 0;
  a.a_tag <- tag;
  a.a_aux <- aux;
  a.a_t0 <- 0.0;
  a.a_flush <- Sim.nil;
  a

let position a id =
  let g = a.a_group in
  let n = Array.length g in
  let rec go i = if i >= n then -1 else if g.(i) = id then i else go (i + 1) in
  go 0

let set_bit a i = a.a_bits <- a.a_bits lor (1 lsl i)

(* Every member acked. Bits only grow, and the ack leaves exactly when
   the bitmap fills, so a complete record has sent its full ack. *)
let complete a = covers a.a_group ~bits:a.a_bits
let lookup t key =
  match Hashtbl.find t.aggs key with
  | a -> a
  | exception Not_found -> agg_nil

let send_ack t key a = t.env.Proto.send a.a_leader (t.ack key a)

let drop t key a =
  if not (Sim.is_nil a.a_flush) then t.env.Proto.cancel a.a_flush;
  a.a_flush <- Sim.nil;
  Hashtbl.remove t.aggs key;
  a.a_group <- [||];
  a.a_next <- t.free;
  t.free <- a

(* Collect first, then drop: cancel order follows the table's fold
   order, which reaches the simulator's timer free list. *)
let reset t =
  if Hashtbl.length t.aggs > 0 then
    Hashtbl.fold (fun k a acc -> (k, a) :: acc) t.aggs []
    |> List.iter (fun (k, a) -> drop t k a)

let finalize t key a =
  if not (Sim.is_nil a.a_flush) then begin
    t.env.Proto.cancel a.a_flush;
    a.a_flush <- Sim.nil
  end;
  if t.env.Proto.obs.Proto.active then
    t.env.Proto.obs.Proto.on_relay ~start_ms:a.a_t0
      ~end_ms:(t.env.Proto.now ());
  send_ack t key a

(* Partial-ack flush: a group member is slow or dead — report the bits
   we do have so the leader's quorum can complete through the other
   groups, then keep waiting. Records the protocol no longer counts as
   current are dropped instead of re-armed. *)
let rec flush t key =
  let a = lookup t key in
  if a != agg_nil && not (complete a) then begin
    a.a_flush <- Sim.nil;
    if t.current a then begin
      send_ack t key a;
      a.a_flush <- t.env.Proto.schedule (flush_ms t) (fun () -> flush t key)
    end
    else drop t key a
  end

(* Completed records linger so a duplicate round (the leader's
   retransmission racing our ack) gets a full-ack resend; prune them
   once they fall below the protocol's mark, amortized behind a size
   threshold. *)
let prune t ~mark =
  if Hashtbl.length t.aggs > 128 then
    Hashtbl.fold
      (fun key a acc -> if key + a.a_aux <= mark then (key, a) :: acc else acc)
      t.aggs []
    |> List.iter (fun (key, a) -> drop t key a)

(* Send the round to every member whose bit is clear, in group order
   (the relay itself is member 0). *)
let fan t a ~size_bytes msg =
  let g = a.a_group in
  for i = 1 to Array.length g - 1 do
    if not (acked ~bits:a.a_bits i) then
      t.env.Proto.send_sized g.(i) ~size_bytes msg
  done

let start t ~key ~leader ~gen ~tag ~aux ~mark ~size_bytes msg =
  let old = lookup t key in
  if old != agg_nil then drop t key old;
  let p = plan t ~leader ~gen in
  let gi = p.group_of.(t.env.Proto.id) in
  if gi < 0 || p.groups.(gi).(0) <> t.env.Proto.id then false
  else begin
    let a = alloc t ~leader ~gen ~group:p.groups.(gi) ~tag ~aux in
    a.a_t0 <- t.env.Proto.now ();
    set_bit a 0 (* position 0 = self: our own accept *);
    Hashtbl.replace t.aggs key a;
    fan t a ~size_bytes msg;
    if complete a then finalize t key a
    else
      a.a_flush <- t.env.Proto.schedule (flush_ms t) (fun () -> flush t key);
    prune t ~mark;
    true
  end

let resend t key a ~size_bytes msg =
  if complete a then send_ack t key a else fan t a ~size_bytes msg

let absorb t key a ~src =
  let i = position a src in
  if i >= 0 && not (acked ~bits:a.a_bits i) then begin
    set_bit a i;
    if complete a then finalize t key a
  end
