(** Virtual-time message transport with the Send / Broadcast /
    Multicast interface of the Paxi networking module (§4.1).

    A transport is polymorphic in the protocol's message type: each
    cluster instantiates one transport for its own message variant, so
    no serialization is needed inside the simulation; serialization
    {e cost} is still charged through the {!Procq} node model.

    Delivery of [send src dst m] at time [t]:
    + the sender's queue serializes the message ([t_out] + NIC time),
    + the link adds a sampled one-way delay (plus fault-injected slow
      delay), unless a drop/crash/partition rule discards the message,
    + the receiver's queue deserializes ([t_in] + NIC time), and the
      registered handler runs when that completes.

    A message costs one scheduler event, its handler call: each node
    keeps its in-flight arrivals and the messages already in its queue,
    and one {!Sim.agent} at its next handler call. The node's queue
    takes each arrival in the same (time, seq) order relative to the
    node's own sends as if the arrival were an event of its own, so
    every ready time, {!Procq} statistic and counter is the same.

    The fault timeline must be installed before the messages it
    affects are sent: whether a destination is crashed at a message's
    arrival time is decided when the message is sent. *)

type 'm t

(** Tracing taps for the observability layer. [on_delivery] fires when
    a message enters the destination's processing queue (before its
    handler runs), carrying the send time, arrival time, and the
    message's own queueing-wait / service split; [on_transmit] fires
    when a sender's queue serializes an outgoing message or batch.
    Callbacks receive only values the transport already computed —
    they draw no randomness and schedule no events, so installing an
    observer never changes simulation results. *)
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

val set_observer : 'm t -> 'm observer option -> unit
(** Install (or clear) the tracing observer. With [None] — the default
    — the instrumented code paths are skipped entirely. *)

val create :
  sim:Sim.t ->
  topology:Topology.t ->
  ?faults:Faults.t ->
  ?default_size_bytes:int ->
  ?processing:(int -> Procq.t) ->
  unit ->
  'm t
(** [processing i] supplies replica [i]'s node queue (defaults to
    {!Procq.create} defaults); clients always get a free queue.
    [default_size_bytes] defaults to 128, a small command. *)

val sim : 'm t -> Sim.t

val procq : 'm t -> Address.t -> Procq.t
(** The node's queue, with every arrival before the current position
    taken into it. *)

val register : 'm t -> Address.t -> (src:Address.t -> 'm -> unit) -> unit
(** Install the message handler for an address (replaces any previous
    one). *)

val send : 'm t -> src:Address.t -> dst:Address.t -> ?size_bytes:int -> 'm -> unit

val broadcast : 'm t -> src:Address.t -> ?size_bytes:int -> 'm -> unit
(** Send to every replica except [src]; the CPU serializes once and the
    NIC transmits per copy (§5.2, footnote 2). *)

val multicast :
  'm t -> src:Address.t -> dsts:Address.t list -> ?size_bytes:int -> 'm -> unit

(** {2 Sized forms}

    The same three calls with the wire size as a plain int: a caller
    that always knows the size passes it without building a [Some]. *)

val send_sized : 'm t -> src:Address.t -> dst:Address.t -> size_bytes:int -> 'm -> unit
val broadcast_sized : 'm t -> src:Address.t -> size_bytes:int -> 'm -> unit

val multicast_sized :
  'm t -> src:Address.t -> dsts:Address.t list -> size_bytes:int -> 'm -> unit

val sent_count : 'm t -> int
val delivered_count : 'm t -> int

val dropped_count : 'm t -> int
(** Copies dropped so far: at the sender, at a destination crashed
    when the copy arrived, or at one crashed or without a handler when
    its handler was due. *)
