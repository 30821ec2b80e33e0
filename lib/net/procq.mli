(** Single-queue node processing model (paper §3.2).

    The paper treats each node as one queue combining CPU and NIC: an
    incoming message waits for prior work to clear, is deserialized and
    handled by the CPU, then responses are serialized once and pushed
    through the NIC per copy. The service-time accounting matches §3.3:

    - incoming message: [t_in + size/bandwidth]
    - outgoing batch of [copies] messages: [t_out + copies*size/bandwidth]
      (CPU serializes a broadcast once; the NIC transmits each copy).

    Utilization statistics feed the busiest-node load analysis of §6. *)

type t

val create :
  ?t_in_ms:float ->
  ?t_out_ms:float ->
  ?bandwidth_mbps:float ->
  unit ->
  t
(** Defaults are calibrated to an m5.large-class node: [t_in = 0.012 ms],
    [t_out = 0.008 ms], 10 Gbit/s NIC. *)

val zero : unit -> t
(** A free queue (used for clients, which the paper does not model). *)

val occupy_incoming : t -> now_ms:float -> size_bytes:int -> float
(** Enqueue one incoming message arriving at [now_ms]; returns the
    virtual time at which its handler may run. *)

val occupy_outgoing : t -> now_ms:float -> copies:int -> size_bytes:int -> float
(** Serialize-and-transmit a batch; returns the departure time of the
    copies. *)

val occupy_incoming_split :
  t -> now_ms:float -> size_bytes:int -> float * float * float
(** Like {!occupy_incoming}, also splitting the message's own
    [(ready, wait, service)]: [ready = now + wait + service], with the
    same arithmetic (and the same [ready]) as the unsplit form — the
    tracing layer's per-hop wait/occupancy attribution. *)

val occupy_outgoing_split :
  t -> now_ms:float -> copies:int -> size_bytes:int -> float * float * float
(** Like {!occupy_outgoing}, split as [(departure, wait, service)]. *)

val incoming_ready : t -> now_ms:float -> size_bytes:int -> float
(** The ready time {!occupy_incoming} would return for the same
    arguments, bit for bit, without occupying the queue or counting
    the message. *)

val busy_until : t -> float
val busy_time : t -> float
(** Total occupied time, for utilization = busy_time / elapsed. *)

val messages_processed : t -> int
val reset : t -> unit
