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
  mutable a_key : int;
  mutable a_leader : int;
  mutable a_gen : int;
  mutable a_group : int array;
  mutable a_bits : int;
  mutable a_tag : int;
  mutable a_aux : int;
  a_t0 : float array;
  mutable a_flush : Sim.handle;
  mutable a_on_flush : unit -> unit;
  mutable a_next : agg;
  mutable a_epoch : int;
}

let fresh_agg () =
  let rec a =
    {
      a_key = 0;
      a_leader = -1;
      a_gen = 0;
      a_group = [||];
      a_bits = 0;
      a_tag = 0;
      a_aux = 0;
      a_t0 = [| 0.0 |];
      a_flush = Sim.nil;
      a_on_flush = ignore;
      a_next = a;
      a_epoch = 0;
    }
  in
  a

let agg_nil = fresh_agg ()

(* The live records, sorted by key in [keys.(0 .. len-1)] with the
   record of [keys.(i)] at [recs.(i)]: a lookup is a binary search, an
   insert or removal shifts the tail (rounds arrive in key order, so an
   insert lands at the end), and the arrays double only when a relay
   holds more records than ever before. *)
type 'm t = {
  env : 'm Proto.env;
  r : int;
  ack : int -> agg -> 'm;
  mutable current : agg -> bool;
  own : agg -> int -> unit;  (** {!own}: the epoch check, then {!absorb} *)
  plans : (int, plan) Hashtbl.t;
  mutable plan_key : int;  (** the last plan looked up, and its key *)
  mutable last_plan : plan;
  mutable keys : int array;
  mutable recs : agg array;
  mutable len : int;
  mutable free : agg;  (** pooled records, linked through [a_next] *)
  mutable seq : int;  (** leader: rounds routed (drives rotation) *)
  mutable bump : int;  (** leader: forced rotations after stalls *)
  mutable bypass_until : float;  (** leader: send direct until then *)
  fallback : float;  (** [fallback_ms] *)
  flush_delay : float;
      (** relay: the partial-flush cadence — the retransmission base,
          so a flush lands between the leader's retries, else the
          fallback interval. Both delays are computed once: a float
          computed per call is boxed on its way to [schedule]. *)
}

let set_current t f = t.current <- f
let active t = t.r > 0

(* Generations are non-negative and leaders lie in [0, n), so
   [gen * n + leader] names each (leader, gen) pair exactly; n and r
   are fixed for a run. The table stays tiny: generations advance once
   per [gen_window] rounds plus once per stall, so nearly every lookup
   asks for the plan asked for last. *)
let plan t ~leader ~gen =
  let key = (gen * t.env.Proto.n) + leader in
  if key = t.plan_key then t.last_plan
  else begin
    let p =
      match Hashtbl.find t.plans key with
      | p -> p
      | exception Not_found ->
          let p = compute ~n:t.env.Proto.n ~leader ~r:t.r ~gen in
          Hashtbl.add t.plans key p;
          p
    in
    t.plan_key <- key;
    t.last_plan <- p;
    p
  end

(* ---- leader side ---- *)

let routing t = t.r > 0 && Proto.local_now t.env.Proto.clock >= t.bypass_until

let route t =
  if routing t then begin
    let gen = (t.seq / gen_window) + t.bump in
    t.seq <- t.seq + 1;
    gen
  end
  else -1

let relays t ~gen = (plan t ~leader:t.env.Proto.id ~gen).relays

let fallback_ms t = t.fallback

let stall t =
  t.bump <- t.bump + 1;
  t.bypass_until <-
    Proto.local_now t.env.Proto.clock
    +. t.env.Proto.config.Config.failover_timeout_ms

let relay_group t ~src ~gen =
  let p = plan t ~leader:t.env.Proto.id ~gen in
  let gi = p.group_of.(src) in
  if gi >= 0 && p.groups.(gi).(0) = src then p.groups.(gi) else [||]

let covers group ~bits =
  let mask = full_mask (Array.length group) in
  bits land mask = mask

let acked ~bits i = bits land (1 lsl i) <> 0

(* ---- relay side ---- *)

(* The index of [key] in [keys.(lo .. hi-1)], or [-(i + 1)] where [i]
   is the position it would take. Top-level loops here and below: a
   local recursive function would build a closure per call. Their
   arguments are annotated [int]: left polymorphic, [=] and [<] would
   be calls into the runtime's generic compare. *)
let rec search_in (keys : int array) (key : int) lo hi =
  if lo >= hi then -(lo + 1)
  else
    let mid = (lo + hi) lsr 1 in
    let k = Array.unsafe_get keys mid in
    if k = key then mid
    else if k < key then search_in keys key (mid + 1) hi
    else search_in keys key lo mid

let search t key = search_in t.keys key 0 t.len

let lookup t key =
  let i = search t key in
  if i >= 0 then Array.unsafe_get t.recs i else agg_nil

let insert t a =
  let i = -(search t a.a_key + 1) in
  if t.len = Array.length t.keys then begin
    let cap = Int.max 16 (2 * t.len) in
    let keys = Array.make cap 0 and recs = Array.make cap agg_nil in
    Array.blit t.keys 0 keys 0 t.len;
    Array.blit t.recs 0 recs 0 t.len;
    t.keys <- keys;
    t.recs <- recs
  end;
  if i < t.len then begin
    Array.blit t.keys i t.keys (i + 1) (t.len - i);
    Array.blit t.recs i t.recs (i + 1) (t.len - i)
  end;
  t.keys.(i) <- a.a_key;
  t.recs.(i) <- a;
  t.len <- t.len + 1

let remove_at t i =
  Array.blit t.keys (i + 1) t.keys i (t.len - i - 1);
  Array.blit t.recs (i + 1) t.recs i (t.len - i - 1);
  t.len <- t.len - 1;
  t.recs.(t.len) <- agg_nil

(* Cancel the record's flush timer and put it back on the free list,
   numbering its next use; its table entry is the caller's to remove. *)
let recycle t a =
  if not (Sim.is_nil a.a_flush) then t.env.Proto.cancel a.a_flush;
  a.a_flush <- Sim.nil;
  a.a_group <- [||];
  a.a_epoch <- a.a_epoch + 1;
  a.a_next <- t.free;
  t.free <- a

let drop t a =
  let i = search t a.a_key in
  if i >= 0 && Array.unsafe_get t.recs i == a then remove_at t i;
  recycle t a

(* Drop every record with [key + aux <= mark], in key order,
   compacting the survivors in place. *)
let drop_below t ~mark =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let a = t.recs.(i) in
    if a.a_key + a.a_aux <= mark then recycle t a
    else begin
      t.keys.(!j) <- t.keys.(i);
      t.recs.(!j) <- a;
      incr j
    end
  done;
  Array.fill t.recs !j (t.len - !j) agg_nil;
  t.len <- !j

let reset t = drop_below t ~mark:max_int

let rec position_from (g : int array) (id : int) i =
  if i >= Array.length g then -1
  else if Array.unsafe_get g i = id then i
  else position_from g id (i + 1)

let set_bit a i = a.a_bits <- a.a_bits lor (1 lsl i)

(* Every member acked. Bits only grow, and the ack leaves exactly when
   the bitmap fills, so a complete record has sent its full ack. *)
let complete a = covers a.a_group ~bits:a.a_bits

let send_ack t a = t.env.Proto.send a.a_leader (t.ack a.a_key a)

let finalize t a =
  if not (Sim.is_nil a.a_flush) then begin
    t.env.Proto.cancel a.a_flush;
    a.a_flush <- Sim.nil
  end;
  if t.env.Proto.obs.Proto.active then
    t.env.Proto.obs.Proto.on_relay ~start_ms:a.a_t0.(0)
      ~end_ms:(Proto.local_now t.env.Proto.clock);
  send_ack t a

(* Partial-ack flush, the record's prebuilt [a_on_flush]: a group
   member is slow or dead — report the bits we do have so the leader's
   quorum can complete through the other groups, then keep waiting.
   Records the protocol no longer counts as current are dropped
   instead of re-armed. The timer fires only while [a] is live under
   its key: removing a record, and completing it, cancel it. *)
let flush t a =
  if not (complete a) then begin
    a.a_flush <- Sim.nil;
    if t.current a then begin
      send_ack t a;
      a.a_flush <- t.env.Proto.schedule t.flush_delay a.a_on_flush
    end
    else drop t a
  end

let absorb t a ~src =
  let i = position_from a.a_group src 0 in
  if i >= 0 && not (acked ~bits:a.a_bits i) then begin
    set_bit a i;
    if complete a then finalize t a
  end

let alloc t ~key ~leader ~gen ~group ~tag ~aux =
  let a =
    if t.free != agg_nil then begin
      let a = t.free in
      t.free <- a.a_next;
      a.a_next <- a;
      a
    end
    else begin
      let a = fresh_agg () in
      a.a_on_flush <- (fun () -> flush t a);
      a
    end
  in
  a.a_key <- key;
  a.a_leader <- leader;
  a.a_gen <- gen;
  a.a_group <- group;
  a.a_bits <- 0;
  a.a_tag <- tag;
  a.a_aux <- aux;
  a.a_flush <- Sim.nil;
  a

(* Completed records linger so a duplicate round (the leader's
   retransmission racing our ack) gets a full-ack resend; prune them
   once they fall below the protocol's mark, amortized behind a size
   threshold. *)
let prune t ~mark =
  if t.len > 128 then drop_below t ~mark

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
  if old != agg_nil then drop t old;
  let p = plan t ~leader ~gen in
  let gi = p.group_of.(t.env.Proto.id) in
  if gi < 0 || p.groups.(gi).(0) <> t.env.Proto.id then agg_nil
  else begin
    let a = alloc t ~key ~leader ~gen ~group:p.groups.(gi) ~tag ~aux in
    a.a_t0.(0) <- Proto.local_now t.env.Proto.clock;
    insert t a;
    fan t a ~size_bytes msg;
    (* a group of one completes on the relay's own vote alone *)
    if Array.length a.a_group > 1 then
      a.a_flush <- t.env.Proto.schedule t.flush_delay a.a_on_flush;
    prune t ~mark;
    a
  end

let resend t a ~size_bytes msg =
  if complete a then send_ack t a else fan t a ~size_bytes msg

(* Below {!absorb}, which a relay's own vote calls. *)
let create (env : 'm Proto.env) ~ack =
  let config = env.Proto.config in
  let fallback = config.Config.failover_timeout_ms /. 8.0 in
  let rec t =
    {
      env;
      r = config.Config.relay_groups;
      ack;
      current = (fun _ -> true);
      own =
        (fun a epoch -> if a.a_epoch = epoch then absorb t a ~src:env.Proto.id);
      plans = Hashtbl.create 8;
      plan_key = -1;
      last_plan = { groups = [||]; group_of = [||]; relays = [] };
      keys = [||];
      recs = [||];
      len = 0;
      free = agg_nil;
      seq = 0;
      bump = 0;
      bypass_until = neg_infinity;
      fallback;
      flush_delay =
        (match config.Config.retransmit with
        | Some r when r.Config.max_tries > 0 -> r.Config.base_ms
        | _ -> fallback);
    }
  in
  t

let own t = t.own
