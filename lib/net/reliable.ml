type policy = { base_ms : float; max_ms : float; max_tries : int }

let inert = { base_ms = 0.; max_ms = 0.; max_tries = 0 }

type ack_mode = Piggyback | Explicit

type 'p packet =
  | Payload of { key : int; frontier : int; ack : ack_mode; msg : 'p }
  | Ack of { key : int }

(* An ack is a key and some framing; charge it like a minimal wire
   message rather than the transport's default command size. *)
let ack_size_bytes = 32

(* Open posts are pooled on an intrusive free list ([next_free];
   pointing at itself marks a detached record) so the loss-free fast
   path — post, arm, ack, settle — recycles one record and one
   pre-built timer thunk ([retransmit], allocated once per record
   and reused across every re-arm and every reuse of the record)
   instead of allocating a record, a closure and a handle per post. *)
type ('p, 'm) post = {
  mutable packet : 'm; (* the injected [Payload], reusable verbatim on resend *)
  mutable size_bytes : int; (* -1 = transport default *)
  mutable remaining : Address.t list;
  mutable tries : int;
  mutable timer : Sim.handle;
  mutable pkey : int;
  mutable retransmit : unit -> unit;
  mutable next_free : ('p, 'm) post;
}

type ('p, 'm) t = {
  transport : 'm Transport.t;
  sim : Sim.t;
  self : Address.t;
  policy : policy;
  inject : 'p packet -> 'm;
  dummy_packet : 'm; (* resets recycled [packet] fields *)
  posts : (int, ('p, 'm) post) Hashtbl.t;
  (* receiver-side dedup for explicit-ack posts, keyed by packed
     (sender, key) ints — [Address.hash] is injective, so
     [(hash src lsl 32) lor key] collides never (keys are per-run
     counters, far below 2^32). *)
  seen : (int, unit) Hashtbl.t;
  (* per-sender floors learned from the [frontier] field of incoming
     payloads: every key below the floor is fully settled at the
     sender and can never be retransmitted again, so its [seen] entry
     is pruned and late stray copies are dropped as duplicates. Dense
     int array indexed by [Address.hash src]. *)
  mutable floors : int array;
  mutable pool : ('p, 'm) post; (* free-list head; [sentinel] = empty *)
  sentinel : ('p, 'm) post;
  (* every key below [frontier] is closed (settled, withdrawn or
     given up) — advertised on outgoing payloads, advanced whenever
     the smallest open key closes. Amortized O(1): each key is swept
     exactly once over the endpoint's lifetime. *)
  mutable frontier : int;
  mutable next_key : int;
  mutable retransmits : int;
  mutable dup_drops : int;
}

let create ~transport ~self ~policy ~inject =
  let dummy_packet = inject (Ack { key = 0 }) in
  let rec sentinel =
    {
      packet = dummy_packet;
      size_bytes = -1;
      remaining = [];
      tries = 0;
      timer = Sim.nil;
      pkey = 0;
      retransmit = ignore;
      next_free = sentinel;
    }
  in
  {
    transport;
    sim = Transport.sim transport;
    self;
    policy;
    inject;
    dummy_packet;
    posts = Hashtbl.create 64;
    seen = Hashtbl.create 256;
    floors = [||];
    pool = sentinel;
    sentinel;
    frontier = 1;
    next_key = 0;
    retransmits = 0;
    dup_drops = 0;
  }

let enabled t = t.policy.max_tries > 0

let fresh t =
  t.next_key <- t.next_key + 1;
  t.next_key

let send_packet t ~dsts ~size_bytes packet =
  Transport.multicast t.transport ~src:t.self ~dsts ?size_bytes packet

let resend t post =
  if post.size_bytes < 0 then
    Transport.multicast t.transport ~src:t.self ~dsts:post.remaining
      post.packet
  else
    Transport.multicast t.transport ~src:t.self ~dsts:post.remaining
      ~size_bytes:post.size_bytes post.packet

let backoff t ~tries =
  Float.min t.policy.max_ms
    (t.policy.base_ms *. Float.pow 2. (float_of_int tries))

let advance_frontier t =
  while t.frontier <= t.next_key && not (Hashtbl.mem t.posts t.frontier) do
    t.frontier <- t.frontier + 1
  done

(* Close a post: drop it from the table, advance the settled frontier
   past it, and recycle the record. *)
let free_post t post =
  Hashtbl.remove t.posts post.pkey;
  advance_frontier t;
  post.packet <- t.dummy_packet;
  post.remaining <- [];
  post.timer <- Sim.nil;
  post.next_free <- t.pool;
  t.pool <- post

let rec on_timer t post =
  post.timer <- Sim.nil;
  post.tries <- post.tries + 1;
  if post.tries > t.policy.max_tries || post.remaining = [] then
    free_post t post
  else begin
    t.retransmits <- t.retransmits + List.length post.remaining;
    resend t post;
    arm t post
  end

and arm t post =
  let delay = backoff t ~tries:post.tries in
  post.timer <- Sim.schedule_after t.sim ~delay post.retransmit

let alloc_post t =
  if t.pool != t.sentinel then begin
    let p = t.pool in
    t.pool <- p.next_free;
    p.next_free <- p;
    p
  end
  else begin
    let rec p =
      {
        packet = t.dummy_packet;
        size_bytes = -1;
        remaining = [];
        tries = 0;
        timer = Sim.nil;
        pkey = 0;
        retransmit = ignore;
        next_free = p;
      }
    in
    p.retransmit <- (fun () -> on_timer t p);
    p
  end

let post_multi t ?key ?size_bytes ~ack ~dsts msg =
  let key = match key with Some k -> k | None -> fresh t in
  if enabled t && ack = Explicit && key < t.frontier then
    invalid_arg
      "Reliable.post_multi: explicit post reuses a key below the settled \
       frontier (receivers would drop it as a duplicate)";
  let packet = t.inject (Payload { key; frontier = t.frontier; ack; msg }) in
  send_packet t ~dsts ~size_bytes packet;
  if enabled t && dsts <> [] then begin
    match Hashtbl.find_opt t.posts key with
    | Some post ->
        (* key reuse: fold the new destinations into the open post *)
        post.remaining <-
          post.remaining
          @ List.filter
              (fun d -> not (List.exists (Address.equal d) post.remaining))
              dsts
    | None ->
        let post = alloc_post t in
        post.packet <- packet;
        post.size_bytes <- (match size_bytes with Some s -> s | None -> -1);
        post.remaining <- dsts;
        post.tries <- 0;
        post.pkey <- key;
        Hashtbl.add t.posts key post;
        arm t post
  end;
  key

let post t ?key ?size_bytes ~ack ~dst msg =
  post_multi t ?key ?size_bytes ~ack ~dsts:[ dst ] msg

let settle t ~dst ~key =
  match Hashtbl.find_opt t.posts key with
  | None -> ()
  | Some post ->
      (match post.remaining with
      | [ d ] when Address.equal d dst -> post.remaining <- []
      | rem ->
          post.remaining <-
            List.filter (fun d -> not (Address.equal d dst)) rem);
      if post.remaining = [] then begin
        Sim.cancel t.sim post.timer;
        free_post t post
      end

let settle_all t ~key =
  match Hashtbl.find_opt t.posts key with
  | None -> ()
  | Some post ->
      Sim.cancel t.sim post.timer;
      free_post t post

let unpost_all t =
  let open_posts = Hashtbl.fold (fun _ p acc -> p :: acc) t.posts [] in
  List.iter
    (fun p ->
      Sim.cancel t.sim p.timer;
      free_post t p)
    open_posts

(* A crash wipes the endpoint's volatile state: open posts (and their
   timers) die with the sender, and the receiver-side dedup memory is
   gone — duplicates arriving after recovery re-run their (idempotent)
   handlers, exactly as a process restart would behave. What must NOT
   reset is [next_key] and [frontier]: receivers remember floors
   learned from our pre-crash frontier advertisements, so restarting
   keys from 0 would make every post-recovery explicit post look like
   a settled duplicate and wedge the channel. The counters model a
   monotonic session epoch, not durable storage. *)
let crash_reset t =
  unpost_all t;
  Hashtbl.reset t.seen;
  t.floors <- [||]

(* ---- receiver side -------------------------------------------------- *)

let floor_of t code = if code < Array.length t.floors then t.floors.(code) else 1

(* A payload advertised the sender's settled frontier: raise our floor
   for that sender and prune the dedup entries below it. The sweep
   visits each key at most once over the run, so [seen] stays bounded
   by the sender's open posts instead of growing monotonically. *)
let note_frontier t ~code frontier =
  let old = floor_of t code in
  if frontier > old then begin
    if code >= Array.length t.floors then begin
      let n = Array.make (code + 8) 1 in
      Array.blit t.floors 0 n 0 (Array.length t.floors);
      t.floors <- n
    end;
    let base = code lsl 32 in
    for k = old to frontier - 1 do
      Hashtbl.remove t.seen (base lor k)
    done;
    t.floors.(code) <- frontier
  end

let on_packet t ~src ~deliver = function
  | Payload { msg; _ } when not (enabled t) ->
      (* inert: no acks, no dedup — indistinguishable from a plain send *)
      deliver ~src msg
  | Payload { ack = Piggyback; frontier; msg; _ } ->
      (* duplicates re-run the (idempotent) handler: that is what
         regenerates the lost natural reply *)
      note_frontier t ~code:(Address.hash src) frontier;
      deliver ~src msg
  | Payload { key; frontier; ack = Explicit; msg } ->
      (* re-ack every receipt — the previous ack may be the loss *)
      Transport.send t.transport ~src:t.self ~dst:src
        ~size_bytes:ack_size_bytes
        (t.inject (Ack { key }));
      let code = Address.hash src in
      note_frontier t ~code frontier;
      if key < floor_of t code then t.dup_drops <- t.dup_drops + 1
      else begin
        let packed = (code lsl 32) lor key in
        if Hashtbl.mem t.seen packed then t.dup_drops <- t.dup_drops + 1
        else begin
          Hashtbl.add t.seen packed ();
          deliver ~src msg
        end
      end
  | Ack { key } -> settle t ~dst:src ~key

let outstanding t = Hashtbl.length t.posts
let retransmits t = t.retransmits
let dup_drops t = t.dup_drops
let dedup_entries t = Hashtbl.length t.seen
let frontier t = t.frontier
