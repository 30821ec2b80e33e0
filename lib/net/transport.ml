type 'm handler = src:Address.t -> 'm -> unit

(* Tracing taps. Both callbacks fire after the procq mutation with the
   values the transport already computed — they must not draw RNG or
   schedule events, so installing an observer cannot perturb a run. *)
type 'm observer = {
  on_delivery :
    src:Address.t ->
    dst:Address.t ->
    size_bytes:int ->
    sent_ms:float ->
    arrival_ms:float ->
    wait_ms:float ->
    service_ms:float ->
    ready_ms:float ->
    'm ->
    unit;
  on_transmit :
    src:Address.t ->
    now_ms:float ->
    wait_ms:float ->
    service_ms:float ->
    copies:int ->
    size_bytes:int ->
    unit;
}

(* One destination's delivery queue (DESIGN.md §6). A message costs
   one global event, its handler call: the node's agent sits in the
   scheduler at the (ready time, send seq) of the node's next handler
   call. Arrivals are not events. They wait in [fl], a binary min-heap
   of delivery ids by (arrival time, send seq), until the node
   {e commits} them: in that order, each takes its place in the
   node's [Procq] at its arrival time and moves to [ring], the FIFO of
   committed messages whose handlers are still to run. A node commits
   every arrival before the current position — before it occupies its
   queue for a send and before its next handler runs, and when a run
   stops or its queue is read — so its queue sees incoming and
   outgoing work in the same (time, seq) order as when each arrival
   was an event of its own. *)
type 'm node = {
  addr : Address.t;
  q : Procq.t;
  mutable handler : 'm handler option;
  agent : Sim.agent;
  mutable fl : int array;
  mutable fl_n : int;
  mutable ring : int array; (* capacity a power of two *)
  mutable r_head : int;
  mutable r_n : int;
}

type 'm t = {
  sim : Sim.t;
  topology : Topology.t;
  faults : Faults.t;
  default_size_bytes : int;
  rng : Rng.t;
  (* replica addresses are dense ints — O(1) array lookup on the
     delivery hot path; clients (sparse ids) stay in a hashtable. *)
  mutable r_nodes : 'm node option array;
  c_nodes : 'm node Address.Table.t;
  make_procq : int -> Procq.t;
  (* per-source broadcast destination lists, rebuilt only when the
     topology's replica count changes. *)
  mutable peers : Address.t list array;
  mutable peers_n : int;
  (* messages in flight, by delivery id: parallel arrays with a free
     stack, so queueing a message allocates nothing *)
  mutable d_src : Address.t array;
  mutable d_msg : 'm array;
      (* a free slot holds [d_msg.(0)], so it keeps no message of its
         own alive *)
  mutable d_size : int array;
  mutable d_seq : int array;
  mutable d_sent : float array;
  mutable d_arrival : float array;
  mutable d_ready : float array; (* set when committed *)
  mutable d_free : int array;
  mutable d_free_n : int;
  mutable d_cap : int;
  (* copies that arrive at a destination crashed at their arrival
     time, as (arrival, seq) in that order: they never reach a queue,
     and [doom_agent], an uncounted agent at the first of them, drops
     each at its place in the order *)
  mutable doomed : (float * int) list;
  doom_agent : Sim.agent;
  departure : float array; (* the sender's departure time, per send *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable observer : 'm observer option;
}

let sim t = t.sim
let set_observer t obs = t.observer <- obs

(* ---- delivery slab -------------------------------------------------- *)

(* [msg], the message being queued, fills the new slots of the first
   growth: the slab has no message of its own before it. *)
let grow_deliveries t msg =
  let cap = t.d_cap in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let g a fill =
    let na = Array.make ncap fill in
    Array.blit a 0 na 0 cap;
    na
  in
  t.d_src <- g t.d_src (Address.replica 0);
  t.d_msg <- g t.d_msg (if cap = 0 then msg else t.d_msg.(0));
  t.d_size <- g t.d_size 0;
  t.d_seq <- g t.d_seq 0;
  t.d_sent <- g t.d_sent 0.0;
  t.d_arrival <- g t.d_arrival 0.0;
  t.d_ready <- g t.d_ready 0.0;
  t.d_free <- g t.d_free 0;
  (* the new ids, lowest on top *)
  for id = ncap - 1 downto cap do
    t.d_free.(t.d_free_n) <- id;
    t.d_free_n <- t.d_free_n + 1
  done;
  t.d_cap <- ncap

let alloc_delivery t msg =
  if t.d_free_n = 0 then grow_deliveries t msg;
  t.d_free_n <- t.d_free_n - 1;
  t.d_free.(t.d_free_n)

let free_delivery t id =
  t.d_msg.(id) <- t.d_msg.(0);
  t.d_free.(t.d_free_n) <- id;
  t.d_free_n <- t.d_free_n + 1

(* ---- per-node in-flight heap and committed ring ---------------------- *)

(* Does delivery [a] arrive before delivery [b]? *)
let[@inline] earlier t a b =
  let ta = t.d_arrival.(a) and tb = t.d_arrival.(b) in
  ta < tb || (ta = tb && t.d_seq.(a) < t.d_seq.(b))

let fl_push t n id =
  if n.fl_n >= Array.length n.fl then begin
    let na = Array.make (2 * Array.length n.fl) 0 in
    Array.blit n.fl 0 na 0 n.fl_n;
    n.fl <- na
  end;
  let fl = n.fl in
  let i = ref n.fl_n in
  n.fl_n <- n.fl_n + 1;
  while !i > 0 && earlier t id fl.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    fl.(!i) <- fl.(p);
    i := p
  done;
  fl.(!i) <- id

let fl_pop t n =
  let fl = n.fl in
  let top = fl.(0) in
  let last = n.fl_n - 1 in
  n.fl_n <- last;
  if last > 0 then begin
    let id = fl.(last) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let c = (2 * !i) + 1 in
      if c >= last then continue := false
      else begin
        let c = if c + 1 < last && earlier t fl.(c + 1) fl.(c) then c + 1 else c in
        if earlier t fl.(c) id then begin
          fl.(!i) <- fl.(c);
          i := c
        end
        else continue := false
      end
    done;
    fl.(!i) <- id
  end;
  top

let ring_push n id =
  let cap = Array.length n.ring in
  if n.r_n >= cap then begin
    let na = Array.make (2 * cap) 0 in
    for k = 0 to n.r_n - 1 do
      na.(k) <- n.ring.((n.r_head + k) land (cap - 1))
    done;
    n.ring <- na;
    n.r_head <- 0
  end;
  n.ring.((n.r_head + n.r_n) land (Array.length n.ring - 1)) <- id;
  n.r_n <- n.r_n + 1

let ring_pop n =
  let id = n.ring.(n.r_head) in
  n.r_head <- (n.r_head + 1) land (Array.length n.ring - 1);
  n.r_n <- n.r_n - 1;
  id

(* ---- commit and the node's agent ------------------------------------ *)

(* Commit every arrival at [n] up to the simulator's position: its
   clock and the running event's seq. *)
let commit t n =
  let now = Sim.now t.sim and seq = Sim.current_seq t.sim in
  while
    n.fl_n > 0
    &&
    let id = n.fl.(0) in
    let a = t.d_arrival.(id) in
    a < now || (a = now && t.d_seq.(id) <= seq)
  do
    let id = fl_pop t n in
    (match t.observer with
    | None ->
        t.d_ready.(id) <-
          Procq.occupy_incoming n.q ~now_ms:t.d_arrival.(id)
            ~size_bytes:t.d_size.(id)
    | Some obs -> (
        let arrival = t.d_arrival.(id) in
        let ready, wait, service =
          Procq.occupy_incoming_split n.q ~now_ms:arrival
            ~size_bytes:t.d_size.(id)
        in
        t.d_ready.(id) <- ready;
        obs.on_delivery ~src:t.d_src.(id) ~dst:n.addr ~size_bytes:t.d_size.(id)
          ~sent_ms:t.d_sent.(id) ~arrival_ms:arrival ~wait_ms:wait
          ~service_ms:service ~ready_ms:ready t.d_msg.(id)));
    ring_push n id
  done

(* Set [n]'s agent to its next handler call: the committed head, or
   else the earliest arrival at the ready time committing it would
   give. The queue as it stands is the one that arrival will join: a
   send of the node's own before it commits first and reschedules. *)
let resched t n =
  if n.r_n > 0 then begin
    let id = n.ring.(n.r_head) in
    Sim.wake t.sim n.agent ~time:t.d_ready.(id) ~seq:t.d_seq.(id)
  end
  else if n.fl_n > 0 then begin
    let id = n.fl.(0) in
    Sim.wake t.sim n.agent
      ~time:
        (Procq.incoming_ready n.q ~now_ms:t.d_arrival.(id)
           ~size_bytes:t.d_size.(id))
      ~seq:t.d_seq.(id)
  end
  else Sim.rest t.sim n.agent

(* The agent's event: run the handler of the node's next message. The
   message is taken off the node, and the agent set to the one after,
   before the handler runs — a handler that sends sees a settled
   queue. *)
let fire t n =
  commit t n;
  let id = ring_pop n in
  resched t n;
  let src = t.d_src.(id) and msg = t.d_msg.(id) in
  free_delivery t id;
  if Faults.is_crashed t.faults ~now_ms:(Sim.now t.sim) n.addr then
    t.dropped <- t.dropped + 1
  else
    match n.handler with
    | Some handler ->
        t.delivered <- t.delivered + 1;
        handler ~src msg
    | None -> t.dropped <- t.dropped + 1

let make_node t addr q =
  let self = ref None in
  let agent =
    Sim.agent t.sim (fun () ->
        match !self with Some n -> fire t n | None -> ())
  in
  let n =
    {
      addr;
      q;
      handler = None;
      agent;
      fl = Array.make 8 0;
      fl_n = 0;
      ring = Array.make 8 0;
      r_head = 0;
      r_n = 0;
    }
  in
  self := Some n;
  n

let node t addr =
  match addr with
  | Address.Replica i -> (
      if i >= Array.length t.r_nodes then begin
        let na = Array.make (i + 1) None in
        Array.blit t.r_nodes 0 na 0 (Array.length t.r_nodes);
        t.r_nodes <- na
      end;
      match t.r_nodes.(i) with
      | Some n -> n
      | None ->
          let n = make_node t addr (t.make_procq i) in
          t.r_nodes.(i) <- Some n;
          n)
  | Address.Client _ -> (
      match Address.Table.find t.c_nodes addr with
      | n -> n
      | exception Not_found ->
          let n = make_node t addr (Procq.zero ()) in
          Address.Table.add t.c_nodes addr n;
          n)

(* ---- settling ------------------------------------------------------ *)

let settle t =
  Array.iter (function Some n -> commit t n | None -> ()) t.r_nodes;
  Address.Table.iter (fun _ n -> commit t n) t.c_nodes

let wake_doom t =
  match t.doomed with
  | (time, seq) :: _ -> Sim.wake t.sim t.doom_agent ~time ~seq
  | [] -> ()

let doom t ~arrival ~seq =
  let rec insert = function
    | ((a, s) as d) :: rest when a < arrival || (a = arrival && s < seq) ->
        d :: insert rest
    | rest -> (arrival, seq) :: rest
  in
  t.doomed <- insert t.doomed;
  wake_doom t

let drop_doomed t =
  match t.doomed with
  | _ :: rest ->
      t.dropped <- t.dropped + 1;
      t.doomed <- rest;
      wake_doom t
  | [] -> ()

let create ~sim ~topology ?(faults = Faults.create ())
    ?(default_size_bytes = 128) ?processing () =
  let make_procq =
    match processing with Some f -> f | None -> fun _ -> Procq.create ()
  in
  let n = Topology.n_replicas topology in
  let self = ref None in
  let doom_agent =
    Sim.agent ~counted:false sim (fun () ->
        match !self with Some t -> drop_doomed t | None -> ())
  in
  let t =
    {
      sim;
      topology;
      faults;
      default_size_bytes;
      rng = Rng.split (Sim.rng sim);
      r_nodes = Array.make n None;
      c_nodes = Address.Table.create 32;
      make_procq;
      peers = [||];
      peers_n = -1;
      d_src = [||];
      d_msg = [||];
      d_size = [||];
      d_seq = [||];
      d_sent = [||];
      d_arrival = [||];
      d_ready = [||];
      d_free = [||];
      d_free_n = 0;
      d_cap = 0;
      doomed = [];
      doom_agent;
      departure = Array.make 1 0.0;
      sent = 0;
      delivered = 0;
      dropped = 0;
      observer = None;
    }
  in
  self := Some t;
  Sim.on_stop sim (fun () -> settle t);
  t

let procq t addr =
  let n = node t addr in
  commit t n;
  n.q

let register t addr handler = (node t addr).handler <- Some handler

(* ---- sending -------------------------------------------------------- *)

(* Occupy [src]'s queue for one outgoing batch now, after committing
   what arrived before it; the departure time lands in
   [t.departure.(0)]. The send path reads the clock where it uses it,
   since a float passed to a call that is not inlined is boxed. *)
let occupy_outgoing t src ~copies ~size_bytes =
  let now = Sim.now t.sim in
  let n = node t src in
  commit t n;
  (match t.observer with
  | None ->
      t.departure.(0) <-
        Procq.occupy_outgoing n.q ~now_ms:now ~copies ~size_bytes
  | Some obs ->
      let departure, wait, service =
        Procq.occupy_outgoing_split n.q ~now_ms:now ~copies ~size_bytes
      in
      obs.on_transmit ~src ~now_ms:now ~wait_ms:wait ~service_ms:service
        ~copies ~size_bytes;
      t.departure.(0) <- departure);
  (* the next arrival's ready time may have moved with the queue *)
  if n.r_n = 0 && n.fl_n > 0 then resched t n

(* Queue one copy for [dst], arriving at [arrival]. The seq claimed
   here is the one the arrival would hold as an event of its own. *)
let deliver t ~src ~dst ~size_bytes msg ~arrival =
  let seq = Sim.alloc_seq t.sim in
  if
    (not (Faults.is_empty t.faults))
    && Faults.is_crashed t.faults ~now_ms:arrival dst
  then doom t ~arrival ~seq
  else begin
    let n = node t dst in
    let id = alloc_delivery t msg in
    t.d_src.(id) <- src;
    t.d_msg.(id) <- msg;
    t.d_size.(id) <- size_bytes;
    t.d_seq.(id) <- seq;
    t.d_sent.(id) <- Sim.now t.sim;
    t.d_arrival.(id) <- arrival;
    fl_push t n id;
    if n.r_n = 0 && n.fl.(0) = id then resched t n
  end

(* One copy on the wire: drop draw, delay draw, extra-delay draw, in
   that order, after the sender's queue gave its departure time. *)
let transmit t ~src ~dst ~size_bytes msg =
  let now = Sim.now t.sim in
  t.sent <- t.sent + 1;
  if Faults.should_drop t.faults t.rng ~now_ms:now ~src ~dst then
    t.dropped <- t.dropped + 1
  else begin
    let delay = Topology.sample_delay t.topology t.rng src dst in
    let extra = Faults.extra_delay t.faults t.rng ~now_ms:now ~src ~dst in
    deliver t ~src ~dst ~size_bytes msg
      ~arrival:(t.departure.(0) +. delay +. extra)
  end

(* Single-destination fast path: most traffic — client requests,
   replies, forwards, acks — has one destination. Accounting and draw
   order are [dispatch ~dsts:[dst]]'s. *)
let send_one t ~src ~dst ~size_bytes msg =
  if Faults.is_crashed t.faults ~now_ms:(Sim.now t.sim) src then begin
    (* a crashed sender still "attempts" the send: count it in [sent]
       exactly like the live path so sent = delivered + dropped +
       in-flight holds on both paths. *)
    t.sent <- t.sent + 1;
    t.dropped <- t.dropped + 1
  end
  else begin
    occupy_outgoing t src ~copies:1 ~size_bytes;
    transmit t ~src ~dst ~size_bytes msg
  end

let rec dispatch t ~src ~dsts ~size_bytes msg =
  match dsts with
  | [] -> ()
  | [ dst ] -> send_one t ~src ~dst ~size_bytes msg
  | dsts ->
      let copies = List.length dsts in
      if Faults.is_crashed t.faults ~now_ms:(Sim.now t.sim) src then begin
        t.sent <- t.sent + copies;
        t.dropped <- t.dropped + copies
      end
      else begin
        occupy_outgoing t src ~copies ~size_bytes;
        transmit_all t ~src ~size_bytes msg dsts
      end

and transmit_all t ~src ~size_bytes msg = function
  | [] -> ()
  | dst :: rest ->
      transmit t ~src ~dst ~size_bytes msg;
      transmit_all t ~src ~size_bytes msg rest

let send_sized t ~src ~dst ~size_bytes msg = send_one t ~src ~dst ~size_bytes msg

let send t ~src ~dst ?size_bytes msg =
  let size_bytes = Option.value size_bytes ~default:t.default_size_bytes in
  send_one t ~src ~dst ~size_bytes msg

let peers_of t src =
  let n = Topology.n_replicas t.topology in
  if n <> t.peers_n then begin
    t.peers <-
      Array.init n (fun s ->
          let dsts = ref [] in
          for i = n - 1 downto 0 do
            if i <> s then dsts := Address.replica i :: !dsts
          done;
          !dsts);
    t.peers_n <- n
  end;
  match src with
  | Address.Replica i when i < n -> t.peers.(i)
  | _ ->
      (* non-replica broadcaster: no cached list; build once *)
      let dsts = ref [] in
      for i = n - 1 downto 0 do
        let a = Address.replica i in
        if not (Address.equal a src) then dsts := a :: !dsts
      done;
      !dsts

let broadcast_sized t ~src ~size_bytes msg =
  dispatch t ~src ~dsts:(peers_of t src) ~size_bytes msg

let broadcast t ~src ?size_bytes msg =
  let size_bytes = Option.value size_bytes ~default:t.default_size_bytes in
  broadcast_sized t ~src ~size_bytes msg

let multicast_sized t ~src ~dsts ~size_bytes msg =
  dispatch t ~src ~dsts ~size_bytes msg

let multicast t ~src ~dsts ?size_bytes msg =
  let size_bytes = Option.value size_bytes ~default:t.default_size_bytes in
  dispatch t ~src ~dsts ~size_bytes msg

let sent_count t = t.sent
let delivered_count t = t.delivered

let dropped_count t = t.dropped
