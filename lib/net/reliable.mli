(** Reliable-delivery channel layered on {!Transport}: at-least-once
    outbound delivery with exponential-backoff retransmission,
    receiver-side deduplication, and cancel-on-ack.

    Every replica owns one endpoint. An outbound message registered
    under an ack key ({!post} / {!post_multi}) is retransmitted to
    its still-unacked destinations on a backoff timer until every
    destination settles, the post is withdrawn, or the policy's try
    budget runs out. Settling happens two ways, chosen per post:

    - {e Piggyback}: the protocol already answers the message with a
      reply of its own (P2b to a P2a, AppendReply to AppendEntries).
      The layer adds no traffic and never suppresses duplicates —
      handlers are idempotent and re-answering a duplicate is exactly
      what regenerates a lost reply. The protocol calls {!settle}
      when the natural reply arrives.
    - {e Explicit}: the message has no natural reply (a chain hop, a
      token grant). The receiving endpoint acknowledges every receipt
      with an [Ack] packet, suppresses re-delivery of duplicates
      (counted in {!dup_drops}), and the sending endpoint settles
      itself when the ack arrives.

    The whole layer is {e inert} when [policy.max_tries = 0] (the
    default configuration): posts degrade to plain transport sends
    with identical queue occupancy and RNG draws, no state is kept,
    no timers are scheduled, and no acks are emitted — fixed-seed
    fault-free statistics are byte-identical to a build without the
    layer. With retransmission enabled but no loss, every timer is
    cancelled before it fires; cancelled events are skipped by {!Sim}
    without counting or drawing randomness, so piggyback-mode traffic
    is still byte-identical to the inert path.

    The per-post hot path is (near-)allocation-free: post records are
    recycled on a free list with a pre-built retransmit thunk each,
    receiver dedup uses packed
    [(sender, key)] int keys over an int-keyed table, and every
    payload advertises the sender's settled {e frontier} — the key
    below which every post has closed — so receivers prune dedup
    entries (and drop late stray copies) instead of remembering every
    key forever. *)

type policy = { base_ms : float; max_ms : float; max_tries : int }
(** Retransmit after [base_ms], then doubling up to [max_ms], at most
    [max_tries] times per post. [max_tries = 0] disables the layer. *)

val inert : policy
(** [{ base_ms = 0.; max_ms = 0.; max_tries = 0 }]. *)

type ack_mode = Piggyback | Explicit

type 'p packet =
  | Payload of { key : int; frontier : int; ack : ack_mode; msg : 'p }
      (** [frontier] is the sender's settled frontier at send time:
          every key below it is closed, so the receiver may forget
          (and refuse) those keys. *)
  | Ack of { key : int }
      (** Ack keys are scoped by the (sender, receiver) pair: the
          receiving endpoint settles post [key] for the ack's source. *)

type ('p, 'm) t
(** An endpoint shipping ['p] protocol messages over an ['m]-typed
    transport (['m] is the cluster's envelope type). *)

val create :
  transport:'m Transport.t ->
  self:Address.t ->
  policy:policy ->
  inject:('p packet -> 'm) ->
  ('p, 'm) t
(** [inject] wraps a packet into the transport's message type; the
    cluster unwraps on receipt and hands the packet to {!on_packet}. *)

val fresh : _ t -> int
(** A key never handed out by this endpoint before. Keys only need to
    be unique per sender — the wire scopes them by source. *)

val post :
  ('p, 'm) t ->
  ?key:int ->
  ?size_bytes:int ->
  ack:ack_mode ->
  dst:Address.t ->
  'p ->
  int
(** Send [msg] to [dst] and keep retransmitting until settled.
    Returns the key (a {!fresh} one unless [?key] pins it — reusing a
    live key adds [dst] to that post's outstanding set). Pinning a
    key below the settled frontier raises [Invalid_argument] for
    explicit-ack posts: receivers have already been told to forget
    it. *)

val post_multi :
  ('p, 'm) t ->
  ?key:int ->
  ?size_bytes:int ->
  ack:ack_mode ->
  dsts:Address.t list ->
  'p ->
  int
(** Like {!post} for a destination set: the initial transmission is a
    single multicast (one serialization, one queue occupation for all
    copies — identical accounting to {!Transport.multicast}), and
    each destination is then settled independently. *)

val settle : _ t -> dst:Address.t -> key:int -> unit
(** Mark [dst] as having received post [key]; the timer dies when the
    last destination settles. Unknown keys are ignored (late acks,
    inert mode). *)

val settle_all : _ t -> key:int -> unit
(** Withdraw the post entirely, e.g. when a quorum made the remaining
    destinations irrelevant or leadership moved on. *)

val unpost_all : _ t -> unit
(** Withdraw every open post (step-down, ownership loss). *)

val crash_reset : _ t -> unit
(** Crash edge: withdraw every open post and forget all receiver-side
    dedup state (duplicates arriving after recovery re-run their
    idempotent handlers, as a real process restart would). The key
    counter and settled frontier survive — they model a monotonic
    session epoch, and resetting them would collide with floors other
    endpoints already learned and wedge the channel. *)

val on_packet :
  ('p, 'm) t ->
  src:Address.t ->
  deliver:(src:Address.t -> 'p -> unit) ->
  'p packet ->
  unit
(** Receiver path. [Payload] packets run the ack-mode policy above
    and hand [msg] to [deliver] (unless suppressed as a duplicate);
    [Ack] packets settle the matching post. *)

val outstanding : _ t -> int
(** Open posts (each may cover several unsettled destinations). *)

val retransmits : _ t -> int
(** Message copies re-sent by backoff timers at this endpoint. *)

val dup_drops : _ t -> int
(** Duplicate explicit-ack payloads suppressed at this endpoint. *)

val dedup_entries : _ t -> int
(** Receiver-side dedup keys currently remembered. Bounded by the
    senders' open posts (frontier advertisements prune settled keys),
    not by run length. *)

val frontier : _ t -> int
(** This endpoint's settled frontier: every key below it is closed. *)
