(** Per-run latency-dissection collector (paper §3, Fig. 5–8).

    A trace attributes each request's end-to-end latency to the
    telescoping phases of its round:

    {v
    submit ──A──▸ arrival ──Bw──▸ start ──Bs──▸ handled ──G1──▸ proposed
           ──C──▸ quorum ──G2──▸ reply sent ──E──▸ reply delivered
    v}

    - [net_in] (A): client→ingress one-way network delay;
    - [wait_in] (Bw): queueing wait of the request in the ingress
      replica's processing queue — the measured counterpart of the
      model's M/D/1 [Wq];
    - [service_in] (Bs): the request's own deserialize+handle
      occupancy at the ingress queue;
    - [propose_gap] (G1): handled→proposed (forwarding, batching
      delay; 0 when the ingress replica proposes immediately);
    - [quorum_wait] (C): proposed→quorum-satisfied — the measured
      counterpart of the order-statistic [DQ];
    - [exec_reply] (G2): quorum→reply-serialized (execution and the
      reply's outgoing occupancy);
    - [net_out] (E): reply network delay back to the client.

    The phases are exact: A+Bw+Bs+G1+C+G2+E = end-to-end by
    construction. When a protocol does not report propose/quorum
    events, G1+C+G2 collapse into the single [server_residency]
    component (handled→reply-sent).

    Every hook only reads virtual-time stamps the simulator already
    computed — a trace draws no randomness and schedules no events, so
    enabling it cannot perturb a run (pinned in [test_hotpath]). All
    hooks are O(1) no-ops when the trace is disabled.

    The tracing-on hot path is (near-)allocation-free: in-flight
    request records are recycled on a free list and spans are stored
    as parallel scalar arrays — span names (and their [Span.t]
    wrappers) are only materialized at {!to_chrome_json} export. *)

type t

val create : ?window_ms:float -> ?max_spans:int -> enabled:bool -> unit -> t
(** [window_ms] (default 100) sizes the throughput/latency time-series
    buckets; [max_spans] (default 200_000) caps retained Chrome-trace
    spans; later spans are dropped. *)

val enabled : t -> bool

val set_window : t -> from_ms:float -> until_ms:float -> unit
(** Measurement window: component statistics and per-node accumulators
    only admit requests submitted at or after [from_ms] and completed
    at or before [until_ms] — the benchmark runner sets this to its
    post-warmup window so warmup transients never pollute the
    dissection. Spans and the time series keep the whole run. *)

val window : t -> float * float

(** {2 Hooks} — called by the cluster engine and transport observer. *)

val on_submit :
  t -> client:int -> cmd_id:int -> is_read:bool -> now_ms:float -> unit
(** A client handed a command to the cluster. Re-submissions of the
    same (client, cmd_id) — client retries — keep the original
    timestamps, matching the runner's latency accounting. [is_read]
    routes the request's end-to-end sample into {!read_e2e} or
    {!write_e2e}. *)

val on_fast_read : t -> unit
(** A read was served off the fast path (lease / ABD quorum / chain
    tail) — it consumes no slot, so [on_propose] never fires for it;
    this counter is how a dissection knows reads bypassed the log. *)

val on_relay_hop : t -> start_ms:float -> end_ms:float -> unit
(** A relay (Config.relay_groups > 0) finished aggregating one round's
    group acks: [start_ms] is when the wrapped round reached the relay,
    [end_ms] when the combined bitmap ack left it. Feeds {!relay_hops}
    / {!relay_hop_ms} and records a ["relay:aggregate"] span. *)

val on_request_arrival :
  t ->
  client:int ->
  cmd_id:int ->
  arrival_ms:float ->
  wait_ms:float ->
  service_ms:float ->
  ready_ms:float ->
  unit
(** The request reached a replica's processing queue. Only the first
    arrival counts as ingress; a forwarded copy lands in [propose_gap]. *)

val on_propose : t -> slot:int -> client:int -> cmd_id:int -> now_ms:float -> unit
(** A leader assigned the command a slot and started its quorum round. *)

val on_quorum : t -> slot:int -> now_ms:float -> unit
(** The round for [slot] reached its quorum. *)

val on_reply : t -> client:int -> cmd_id:int -> sent_ms:float -> ready_ms:float -> unit
(** The reply was delivered: closes the request, records every phase
    (window permitting), appends its spans and feeds the time series. *)

val on_hop : t -> node:int -> now_ms:float -> wait_ms:float -> service_ms:float -> unit
(** Any message occupied replica [node]'s queue (incoming or outgoing):
    accumulate its queueing wait and occupancy into the per-node
    window totals. *)

val count_msg : t -> string -> unit
(** Bump the per-message-type counter for [label]. *)

(** {2 Results} *)

val e2e : t -> Stats.t
val net_in : t -> Stats.t
val wait_in : t -> Stats.t
val service_in : t -> Stats.t
val propose_gap : t -> Stats.t
val quorum_wait : t -> Stats.t
val exec_reply : t -> Stats.t
val net_out : t -> Stats.t

val server_residency : t -> Stats.t
(** handled→reply-sent, recorded for every request (= G1+C+G2). *)

val read_e2e : t -> Stats.t
(** End-to-end latency of in-window [Get] requests only. *)

val write_e2e : t -> Stats.t
(** End-to-end latency of in-window write requests only. *)

val fast_reads : t -> int
(** Reads served off the fast path (see {!on_fast_read}). *)

val relay_hops : t -> int
(** Relay aggregation rounds completed (see {!on_relay_hop}). *)

val relay_hop_ms : t -> Stats.t
(** In-window relay aggregation durations. NOT part of {!components}:
    the hop overlaps [quorum_wait], so it reports the relay tree's
    internal latency without disturbing the telescoping split. *)

val components : t -> (string * Stats.t) list
(** The telescoping decomposition, in phase order: the 7-way split
    when propose/quorum events were reported, else the 5-way split
    with [server_residency] in the middle. Component means sum to the
    [e2e] mean exactly (modulo float rounding). *)

val node_ids : t -> int list
(** Replicas that processed at least one in-window message, sorted. *)

val node_wait_ms : t -> int -> float
(** Total in-window queueing wait accumulated at a replica. *)

val node_busy_ms : t -> int -> float
(** Total in-window processing occupancy of a replica. *)

val node_msgs : t -> int -> int

val message_counts : t -> (string * int) list
(** Per-message-type send counts, sorted by label. *)

val series : t -> (float * int * float) list
(** [(bucket_start_ms, completions, mean_latency_ms)] per non-empty
    bucket over the whole run (warmup included), sorted — the
    warmup-aware throughput/latency time series. *)

val span_count : t -> int

val to_chrome_json : t -> Json.t
(** The retained spans as a Chrome-trace (chrome://tracing /
    Perfetto) document: [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)
