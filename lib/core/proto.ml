type reply = {
  command : Command.t;
  read : Command.value option;
  replier : int;
  leader_hint : int option;
}

(* Reliable-delivery operations over the cluster's shared
   {!Paxi_net.Reliable} endpoint: post a message under an ack key and
   the substrate retransmits it (per [Config.retransmit]) until every
   destination settles. Inert when retransmission is disabled
   ([active = false]): posts degrade to plain sends and settles are
   no-ops, so protocols can call these unconditionally. *)
type 'm rel = {
  active : bool;
  fresh : unit -> int;
  post : ?key:int -> ?size_bytes:int -> ack:Reliable.ack_mode -> int -> 'm -> int;
  post_multi :
    ?key:int -> ?size_bytes:int -> ack:Reliable.ack_mode -> int list -> 'm -> int;
  post_all : ?key:int -> ?size_bytes:int -> ack:Reliable.ack_mode -> 'm -> int;
  settle : dst:int -> key:int -> unit;
  settle_all : key:int -> unit;
  unpost_all : unit -> unit;
}

(* A fully inert [rel] for harness env stubs that also stub out the
   plain send operations: posts go nowhere and settles are no-ops,
   but keys are still unique. *)
let null_rel () =
  let next = ref 0 in
  let fresh () =
    incr next;
    !next
  in
  {
    active = false;
    fresh;
    post = (fun ?key ?size_bytes:_ ~ack:_ _ _ ->
        match key with Some k -> k | None -> fresh ());
    post_multi = (fun ?key ?size_bytes:_ ~ack:_ _ _ ->
        match key with Some k -> k | None -> fresh ());
    post_all = (fun ?key ?size_bytes:_ ~ack:_ _ ->
        match key with Some k -> k | None -> fresh ());
    settle = (fun ~dst:_ ~key:_ -> ());
    settle_all = (fun ~key:_ -> ());
    unpost_all = (fun () -> ());
  }

(* Tracing hooks a replica calls at the two protocol-level milestones
   the transport cannot see: a command being assigned a slot, and that
   slot's quorum being satisfied. Plain closures so protocols stay
   decoupled from the observability layer; no-ops when tracing is off
   ([active = false]). *)
type obs = {
  active : bool;
  on_propose : slot:int -> cmd:Command.t -> unit;
  on_quorum : slot:int -> unit;
  on_read : unit -> unit;
  on_relay : start_ms:float -> end_ms:float -> unit;
      (** a relay finished aggregating one round's group acks
          ([start_ms] = round received, [end_ms] = combined ack sent) *)
}

let null_obs =
  {
    active = false;
    on_propose = (fun ~slot:_ ~cmd:_ -> ());
    on_quorum = (fun ~slot:_ -> ());
    on_read = (fun () -> ());
    on_relay = (fun ~start_ms:_ ~end_ms:_ -> ());
  }

(* A replica's local clock as data: [local_now] inlines into its
   caller, so a stamp stored into a float slot boxes nothing, where a
   call of the [now] closure returns a boxed float. *)
type clock = { sim : Sim.t; faults : Faults.t; node : Address.t }

let local_now c =
  let t0 = Sim.now c.sim in
  t0 +. Faults.clock_offset c.faults ~now_ms:t0 c.node

let sim_clock sim ~id = { sim; faults = Faults.create (); node = Address.replica id }

(* [Some] wire sizes of rounds of 0 .. max_batch commands (0 .. 1
   without batching), built once per replica: posting a round passes
   a prebuilt option to [rel] instead of boxing its size. *)
let round_sizes config =
  let most =
    match config.Config.batching with Some b -> b.Config.max_batch | None -> 1
  in
  Array.init (most + 1) (fun k -> Some (k * config.Config.msg_size_bytes))

let round_size sizes config count =
  if count >= 0 && count < Array.length sizes then Array.unsafe_get sizes count
  else Some (count * config.Config.msg_size_bytes)

type 'm env = {
  id : int;
  n : int;
  config : Config.t;
  topology : Topology.t;
  rng : Rng.t;
  now : unit -> float;
  clock : clock;
  schedule : float -> (unit -> unit) -> Sim.handle;
  cancel : Sim.handle -> unit;
  send : int -> 'm -> unit;
  broadcast : 'm -> unit;
  multicast : int list -> 'm -> unit;
  send_sized : int -> size_bytes:int -> 'm -> unit;
  broadcast_sized : size_bytes:int -> 'm -> unit;
  multicast_sized : int list -> size_bytes:int -> 'm -> unit;
  reply : Address.t -> reply -> unit;
  forward : int -> client:Address.t -> Command.t -> unit;
  rel : 'm rel;
  obs : obs;
  storage : Storage.t option;
}

module type PROTOCOL = sig
  type message
  type replica

  val name : string
  val message_label : message -> string
  val create : message env -> replica
  val on_request : replica -> client:Address.t -> Command.t -> unit
  val on_message : replica -> src:int -> message -> unit
  val on_start : replica -> unit
  val on_recover : replica -> unit
  val leader_of_key : replica -> Command.key -> int option
  val executor : replica -> Executor.t
end

module type RUNNABLE = sig
  include PROTOCOL

  val cpu_factor : Config.t -> float
end
