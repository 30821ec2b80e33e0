(** The zone groups of the hierarchical protocols (WanKeeper's and
    VPaxos's per-region Paxos groups, §2): one unmodified {!Paxos}
    replica per zone member, behind a member-restricted environment.

    Local ids [0 .. k-1] are the positions in [members] and [n = k];
    every id crossing the adapter (send, forward and reliable
    destinations, a delivered message's source, a reply's [replier] and
    [leader_hint]) is mapped. Broadcasts and [post_all] reach only the
    zone's other members, and a paxos step-down ([rel.unpost_all])
    withdraws only the posts made through the adapter. So the group has
    paxos's phase 1, failover and durable storage: the first member
    leads at start, and the next to time out replaces a dead leader.

    The enclosing protocol keeps its own state (tokens, ownership) in
    the group's store, as claims and records, so a new leader finds it
    there. A member counts as the leader
    ({!is_leader}) only once it has executed every slot of earlier
    terms: before that its store may miss state an earlier leader
    committed. *)

type t

type committed =
  | Claim of int  (** the object's new claim (see {!claim}) *)
  | Record of int  (** the object's new record *)

val create :
  env:'outer Proto.env ->
  wrap:(Paxos.message -> 'outer) ->
  members:int list ->
  on_committed:(Command.key -> committed -> unit) ->
  on_lead:(unit -> unit) ->
  t
(** [members] are global ids in zone order and must include [env.id]
    ([Invalid_argument] otherwise). [on_committed key c] runs when a
    {!take}, {!give} or {!record} on [key] executes at the member that
    proposed it as leader: the proposing member, or the leader a
    non-leader forwarded it to (so what it does must follow from [key]
    and [c] alone). [on_lead ()] runs each time this member becomes the
    leader of a new term: the enclosing protocol drops the leader-local
    state of earlier terms. *)

val is_leader : t -> bool
(** This member leads the group and has executed every earlier term's
    slots, so its store holds every committed zone-internal command. *)

val leader : t -> int option
(** The leader this member knows of (global id); [None] while there is
    none, or this member is still a candidate or catching up. *)

val executor : t -> Executor.t
val value : t -> Command.key -> Command.value option

val admit : t -> client:Address.t -> Command.t -> bool
(** The ingress of a request that reached this member: [true] when this
    member is the leader and the enclosing protocol handles the request
    itself; [false] when the adapter took it — a zone-internal command
    forwarded by a member's paxos is proposed, and a client request
    goes to the leader, or waits until one is known (this member, once
    caught up: it then comes back through [env.forward] to itself). *)

val propose : t -> client:Address.t -> Command.t -> unit
(** Hand a client command to the group's paxos. *)

val on_message : t -> src:int -> Paxos.message -> unit
val on_start : t -> unit
val on_recover : t -> unit

(** {2 Claims and records}

    What the enclosing protocol must find after a leader change is
    committed in the group, per object (client keys are non-negative).
    The claim says whether the zone holds the object: [2g + 1] once it
    took generation [g] over, [2g] once it gave [g] away. The record is
    one value of the protocol's own (who holds a token, an assignment).
    Each call is one zone-internal command named by its object,
    generation and step, so a repeated call applies once, even across
    crashes and leader changes; a name must stand for one content. *)

val claim : t -> Command.key -> int option
(** The object's claim in this member's store; [None] before any. *)

val take : t -> Command.key -> gen:int -> Command.value option -> unit
(** Take generation [gen] over with the object's latest value:
    re-commit the value unless the store holds it, then claim [2 gen +
    1]. The enclosing protocol runs the object's commands only after
    [on_committed] reports the claim, so none commits before it. *)

val give : t -> Command.key -> gen:int -> unit
(** Give generation [gen] away: claim [2 gen]. It orders after every
    command the zone ran on the object, so once [on_committed] reports
    it, the store's value is final. *)

val record : t -> Command.key -> gen:int -> int -> unit
val recorded : t -> Command.key -> int option

val taken : t -> Command.key list
(** Objects whose claim in this member's store is a taken generation. *)

(** {2 Zones}

    The zones of the topology, and per zone the replica that last spoke
    for it: the enclosing protocol addresses a remote zone's leader
    through it, and a member that is no longer leader relays. *)

type zones

val zones : 'm Proto.env -> zones
val my_zone : zones -> int
val count : zones -> int
val members : zones -> int -> int list

val address : zones -> int -> int
(** The replica that last spoke for the zone; its first member until
    one has. *)

val heard : zones -> zone:int -> src:int -> unit
(** [src] spoke for [zone]; ignored unless [src] is one of its members. *)
