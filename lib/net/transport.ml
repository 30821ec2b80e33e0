(* Reference switch for the collapsed-delivery optimisation: with the
   ref flipped to false (tests only) every delivery schedules its
   queue-ready completion as a real sim event, as before the collapse.
   Results must be identical either way — the determinism suite pins
   that. *)
let inline_delivery = ref true

(* Reference switch for the in-flight delivery record pool (the same
   convention as [Reliable.pooling]): flipped to false, every delivery
   allocates fresh records and thunks. Results must be identical
   either way — the determinism suite pins that. *)
let pooling = ref true

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

(* One message in flight, from its arrival event to its queue-ready
   completion. Records are recycled on an intrusive free list
   ([d_next]; pointing at itself marks a detached record), each with
   its two event thunks ([arrive], [complete]) built once and reused
   for every message the record ever carries — the per-message wire
   path allocates one [Some msg] cell instead of two closures. *)
type 'm delivery = {
  mutable d_src : Address.t;
  mutable d_dst : Address.t;
  mutable d_size : int;
  mutable d_sent : float;
  mutable d_msg : 'm option; (* [None] while pooled, releasing the payload *)
  mutable arrive : unit -> unit;
  mutable complete : unit -> unit;
  mutable d_next : 'm delivery;
}

type 'm t = {
  sim : Sim.t;
  topology : Topology.t;
  faults : Faults.t;
  default_size_bytes : int;
  rng : Rng.t;
  (* replica addresses are dense ints — O(1) array lookup on the
     delivery hot path; clients (sparse ids) stay in hashtables. *)
  mutable r_handlers : 'm handler option array;
  mutable r_queues : Procq.t option array;
  c_handlers : 'm handler Address.Table.t;
  c_queues : Procq.t Address.Table.t;
  make_procq : int -> Procq.t;
  (* per-source broadcast destination lists, rebuilt only when the
     topology's replica count changes. *)
  mutable peers : Address.t list array;
  mutable peers_n : int;
  mutable dpool : 'm delivery; (* free-list head; [dsentinel] = empty *)
  dsentinel : 'm delivery;
  (* single-slot out-parameter for the [_into] procq/topology calls on
     the hot path: float-array stores and loads are unboxed, where a
     boxed float return would allocate per message. Each value is read
     back out before the next [_into] call overwrites the slot. *)
  scratch : float array;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable observer : 'm observer option;
}

let create ~sim ~topology ?(faults = Faults.create ())
    ?(default_size_bytes = 128) ?processing () =
  let make_procq =
    match processing with Some f -> f | None -> fun _ -> Procq.create ()
  in
  let n = Topology.n_replicas topology in
  let rec dsentinel =
    {
      d_src = Address.replica 0;
      d_dst = Address.replica 0;
      d_size = 0;
      d_sent = 0.0;
      d_msg = None;
      arrive = ignore;
      complete = ignore;
      d_next = dsentinel;
    }
  in
  {
    sim;
    topology;
    faults;
    default_size_bytes;
    rng = Rng.split (Sim.rng sim);
    r_handlers = Array.make n None;
    r_queues = Array.make n None;
    c_handlers = Address.Table.create 32;
    c_queues = Address.Table.create 32;
    make_procq;
    peers = [||];
    peers_n = -1;
    dpool = dsentinel;
    dsentinel;
    scratch = Array.make 1 0.0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    observer = None;
  }

let sim t = t.sim
let set_observer t obs = t.observer <- obs

let grow_replica_arrays t n =
  let grow1 arr =
    let na = Array.make n None in
    Array.blit arr 0 na 0 (Array.length arr);
    na
  in
  t.r_handlers <- grow1 t.r_handlers;
  t.r_queues <- grow1 t.r_queues

let procq t addr =
  match addr with
  | Address.Replica i ->
      if i >= Array.length t.r_queues then grow_replica_arrays t (i + 1);
      (match t.r_queues.(i) with
      | Some q -> q
      | None ->
          let q = t.make_procq i in
          t.r_queues.(i) <- Some q;
          q)
  | Address.Client _ -> (
      match Address.Table.find_opt t.c_queues addr with
      | Some q -> q
      | None ->
          let q = Procq.zero () in
          Address.Table.add t.c_queues addr q;
          q)

let register t addr handler =
  match addr with
  | Address.Replica i ->
      if i >= Array.length t.r_handlers then grow_replica_arrays t (i + 1);
      t.r_handlers.(i) <- Some handler
  | Address.Client _ -> Address.Table.replace t.c_handlers addr handler

let handler_for t addr =
  match addr with
  | Address.Replica i ->
      if i < Array.length t.r_handlers then t.r_handlers.(i) else None
  | Address.Client _ -> Address.Table.find_opt t.c_handlers addr

let release_delivery t d =
  d.d_msg <- None;
  if !pooling then begin
    d.d_next <- t.dpool;
    t.dpool <- d
  end

(* Queue-ready completion: the handler runs with the message. The
   record is released first (with everything it carried read out), so
   a handler that sends — almost all of them — immediately reuses it
   for its own outbound messages. *)
let complete_delivery t d =
  let now = Sim.now t.sim in
  if Faults.is_crashed t.faults ~now_ms:now d.d_dst then begin
    t.dropped <- t.dropped + 1;
    release_delivery t d
  end
  else begin
    let src = d.d_src in
    let handler = handler_for t d.d_dst in
    let msg = d.d_msg in
    release_delivery t d;
    match (handler, msg) with
    | Some handler, Some msg ->
        t.delivered <- t.delivered + 1;
        handler ~src msg
    | _ -> t.dropped <- t.dropped + 1
  end

let arrival_delivery t d =
  let now = Sim.now t.sim in
  if Faults.is_crashed t.faults ~now_ms:now d.d_dst then begin
    t.dropped <- t.dropped + 1;
    release_delivery t d
  end
  else begin
    let q = procq t d.d_dst in
    let ready =
      match t.observer with
      | None ->
          Procq.occupy_incoming_into q ~now_ms:now ~size_bytes:d.d_size
            t.scratch;
          t.scratch.(0)
      | Some obs ->
          let ready, wait, service =
            Procq.occupy_incoming_split q ~now_ms:now ~size_bytes:d.d_size
          in
          (match d.d_msg with
          | Some msg ->
              obs.on_delivery ~src:d.d_src ~dst:d.d_dst ~size_bytes:d.d_size
                ~sent_ms:d.d_sent ~arrival_ms:now ~wait_ms:wait
                ~service_ms:service ~ready_ms:ready msg
          | None -> ());
          ready
    in
    (* Collapsed delivery: when no pending event precedes [ready] the
       queue-ready completion runs inline inside this arrival event
       instead of being scheduled. All RNG draws happened at send time
       and [complete] draws none, so the stream and the firing order
       are bit-identical to the scheduled path. *)
    if not (!inline_delivery && Sim.try_inline t.sim ~time:ready d.complete)
    then ignore @@ Sim.schedule_at t.sim ~time:ready d.complete
  end

let alloc_delivery t =
  let d = t.dpool in
  if !pooling && d != t.dsentinel then begin
    t.dpool <- d.d_next;
    d.d_next <- d;
    d
  end
  else begin
    let rec d =
      {
        d_src = Address.replica 0;
        d_dst = Address.replica 0;
        d_size = 0;
        d_sent = 0.0;
        d_msg = None;
        arrive = ignore;
        complete = ignore;
        d_next = d;
      }
    in
    d.arrive <- (fun () -> arrival_delivery t d);
    d.complete <- (fun () -> complete_delivery t d);
    d
  end

let deliver t ~src ~dst ~size_bytes ~sent msg ~arrival =
  let d = alloc_delivery t in
  d.d_src <- src;
  d.d_dst <- dst;
  d.d_size <- size_bytes;
  d.d_sent <- sent;
  d.d_msg <- Some msg;
  ignore @@ Sim.schedule_at t.sim ~time:arrival d.arrive

(* Single-destination fast path. Most traffic — client requests,
   replies, forwards, acks — has exactly one destination, so skip the
   list length/iter machinery of the general [dispatch]. Accounting
   and RNG draw order are identical to [dispatch ~dsts:[dst]]: crash
   check, outgoing occupancy for one copy, drop draw, delay draw,
   extra-delay draw. *)
let send_one t ~src ~dst ~size_bytes msg =
  let now = Sim.now t.sim in
  if Faults.is_crashed t.faults ~now_ms:now src then begin
    (* a crashed sender still "attempts" the send: count it in [sent]
       exactly like the live path so sent = delivered + dropped +
       in-flight holds on both paths. *)
    t.sent <- t.sent + 1;
    t.dropped <- t.dropped + 1
  end
  else begin
    let q = procq t src in
    let departure =
      match t.observer with
      | None ->
          Procq.occupy_outgoing_into q ~now_ms:now ~copies:1 ~size_bytes
            t.scratch;
          t.scratch.(0)
      | Some obs ->
          let departure, wait, service =
            Procq.occupy_outgoing_split q ~now_ms:now ~copies:1 ~size_bytes
          in
          obs.on_transmit ~src ~now_ms:now ~wait_ms:wait ~service_ms:service
            ~copies:1 ~size_bytes;
          departure
    in
    t.sent <- t.sent + 1;
    if Faults.should_drop t.faults t.rng ~now_ms:now ~src ~dst then
      t.dropped <- t.dropped + 1
    else begin
      Topology.sample_delay_into t.topology t.rng src dst t.scratch;
      let delay = t.scratch.(0) in
      let extra = Faults.extra_delay t.faults t.rng ~now_ms:now ~src ~dst in
      deliver t ~src ~dst ~size_bytes ~sent:now msg
        ~arrival:(departure +. delay +. extra)
    end
  end

let dispatch t ~src ~dsts ~size_bytes msg =
  match dsts with
  | [] -> ()
  | [ dst ] -> send_one t ~src ~dst ~size_bytes msg
  | dsts ->
      let now = Sim.now t.sim in
      if Faults.is_crashed t.faults ~now_ms:now src then begin
        let copies = List.length dsts in
        t.sent <- t.sent + copies;
        t.dropped <- t.dropped + copies
      end
      else begin
        let copies = List.length dsts in
        let q = procq t src in
        let departure =
          match t.observer with
          | None ->
              Procq.occupy_outgoing_into q ~now_ms:now ~copies ~size_bytes
                t.scratch;
              t.scratch.(0)
          | Some obs ->
              let departure, wait, service =
                Procq.occupy_outgoing_split q ~now_ms:now ~copies ~size_bytes
              in
              obs.on_transmit ~src ~now_ms:now ~wait_ms:wait
                ~service_ms:service ~copies ~size_bytes;
              departure
        in
        List.iter
          (fun dst ->
            t.sent <- t.sent + 1;
            if Faults.should_drop t.faults t.rng ~now_ms:now ~src ~dst then
              t.dropped <- t.dropped + 1
            else begin
              Topology.sample_delay_into t.topology t.rng src dst t.scratch;
              let delay = t.scratch.(0) in
              let extra =
                Faults.extra_delay t.faults t.rng ~now_ms:now ~src ~dst
              in
              deliver t ~src ~dst ~size_bytes ~sent:now msg
                ~arrival:(departure +. delay +. extra)
            end)
          dsts
      end

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

let broadcast t ~src ?size_bytes msg =
  let size_bytes = Option.value size_bytes ~default:t.default_size_bytes in
  dispatch t ~src ~dsts:(peers_of t src) ~size_bytes msg

let multicast t ~src ~dsts ?size_bytes msg =
  let size_bytes = Option.value size_bytes ~default:t.default_size_bytes in
  dispatch t ~src ~dsts ~size_bytes msg

let sent_count t = t.sent
let delivered_count t = t.delivered
let dropped_count t = t.dropped
