(** The command log of the multi-Paxos slot protocols — paxos, wpaxos
    (one log per object) and mencius: a {!Slot_log} of commands and the
    four rules every one of them applies to it. Paxos (per replica) and
    wpaxos (per object) also run one {!instance} over it: the ballot,
    phase-1 and forwarding rules. A protocol keeps its messages, quorum
    specs, phase-2 rounds, and its policy for a slot a report says
    committed ({!elect}).

    A slot is no record: its accepted ballot ({!Ballot.pack}) and its
    commit bit share the slot's meta word, its command sits in the
    page beside it, and its client, if this replica proposed it, in a
    client page only the proposer allocates (DESIGN.md §10). Accept,
    commit and execute read and write those words in place and
    allocate nothing but the replies they send; an {!entry} is a view
    built only for phase 1 and recovery ({!get}, {!iter_from}).

    Displaced clients: a slot records the client its proposer answers
    once the slot executes. When an accept or a learned commit puts a
    different command in the slot, that client is dropped: its command
    did not take the slot, and it must never receive another command's
    result. It retries, and the executor's memo answers a command
    decided twice. *)

type entry = {
  ballot : Ballot.t;  (** of the accepted command *)
  cmd : Command.t;
  committed : bool;
}
(** A view of one slot, built on demand. *)

type t

val create : Executor.t -> _ Proto.env -> t
(** An empty log that applies commands through the executor and
    answers clients through the env's [reply], as its replica. *)

val set_leading : t -> (unit -> bool) -> unit
(** Whether the replica leads right now; {!execute}'s replies then
    name it as the leader. Never, by default. *)

val set_apply : t -> (int -> Command.t -> Command.value option -> unit) -> unit
(** A hook {!execute} runs on each slot right after applying its
    command and before answering its client; it may take the client
    ({!take_client}) to answer it later. None by default. *)

val get : t -> int -> entry option
val mem : t -> int -> bool

val command : t -> int -> Command.t
(** The slot's command; {!Command.noop} for an empty slot. *)

val committed : t -> int -> bool
(** The slot is filled and committed. *)

val take_client : t -> int -> Address.t option
(** Remove and return the client the slot answers, if any. *)

val exec_frontier : t -> int
val next_slot : t -> int

type report = (int * entry) list
(** The filled slots a promise or a candidacy reports, highest first. *)

val report : t -> start:int -> report
(** Every filled slot from [start] up. *)

val propose :
  t -> int -> ballot:Ballot.t -> client:Address.t -> Command.t -> unit
(** A fresh proposal at an unused slot, answered to [client]. *)

val accept : t -> int -> ballot:Ballot.t -> Command.t -> bool
(** Accept a command at [ballot] unless the slot is committed
    ([false], nothing changes). A different command already there is
    displaced. *)

val learn : t -> int -> ballot:Ballot.t -> Command.t -> unit
(** The slot committed this command (which displaces a different one);
    [ballot] is recorded only for a slot the log lacked. *)

val commit : t -> int -> bool
(** The slot's phase-2 quorum is complete: mark its accepted command
    committed. [false] when the slot is empty or was committed. *)

val commit_below : t -> int -> bool
(** Mark committed every accepted slot below a commit frontier the
    leader advertised ({!Slot_log.commit_below}); whether any was. *)

val execute : t -> unit
(** Apply the committed prefix in slot order, answering each recorded
    client once. Nothing else executes; re-entrant calls from a hook
    or a reply continue at the next slot. *)

(** {2 One multi-Paxos instance}

    The ballot, leadership, phase-1 and request-queue state paxos keeps
    per replica and wpaxos per object, and the rules over it. *)

type candidacy = {
  tracker : Quorum.t;  (** the phase-1 quorum's promises *)
  mutable reports : report;  (** the promises' reports, latest first *)
  rkey : int;  (** reliable-delivery key of the P1a *)
}

type instance = {
  log : t;
  self : int;
  forward : int -> client:Address.t -> Command.t -> unit;  (** the env's *)
  mutable ballot : Ballot.t;  (** the highest promised or accepted *)
  mutable leading : bool;  (** phase 1 at [ballot] completed here *)
  mutable candidacy : candidacy option;  (** phase 1 run here *)
  pending : (Address.t * Command.t) Queue.t;  (** requests held *)
  mutable propose : client:Address.t -> Command.t -> unit;
      (** how the leader proposes a held request; set once *)
}

val instance :
  Executor.t -> _ Proto.env -> ballot:Ballot.t -> leading:bool -> instance

val defer : instance -> Ballot.t -> unit
(** Step down to a ballot, kept when not higher. *)

val promises : instance -> src:int -> Ballot.t -> bool
(** The promise rule: a higher ballot, or the held one from its owner. *)

val accepts : instance -> Ballot.t -> bool
(** The accept rule: no higher ballot was promised. *)

val admit : instance -> Ballot.t -> bool
(** Hold an accepted ballot; another owner's ends this replica's
    leadership and candidacy. Whether it ended a leadership. *)

val stand : instance -> Quorum.spec -> rkey:int -> candidacy
(** Run phase 1 at the next ballot this replica owns, with its own
    promise and report. *)

val promised : candidacy -> src:int -> report -> bool
(** Count a promise; whether the quorum is complete. *)

val elect :
  instance ->
  candidacy ->
  adopt:(int -> Command.t -> committed:bool -> unit) ->
  unit
(** Lead, and merge the reports: per slot the highest ballot wins (the
    first, on a tie), a gap is a no-op, and a slot is committed if any
    report says so. Each merged slot from the execution frontier up is
    accepted at [ballot] and, unless committed locally, adopted. *)

val route : instance -> client:Address.t -> Command.t -> unit
(** The forward-or-hold rule, off the leader: forward to the held
    ballot's owner when it is another replica and no candidacy runs
    here; hold otherwise. *)

val drain : instance -> unit
(** Propose the held requests while leading, or forward them where
    {!route} would. *)
