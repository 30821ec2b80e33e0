type message =
  | RequestVote of { term : int; last_index : int; last_term : int }
  | VoteReply of { term : int; granted : bool }
  | AppendEntries of {
      term : int;
      prev_index : int;
      prev_term : int;
      terms : int array;
      cmds : Command.t array;
          (** entry [prev_index + 1 + i] is command [cmds.(i)] of term
              [terms.(i)] *)
      leader_commit : int;
    }
  | AppendReply of { term : int; success : bool; match_index : int }
  | RelayAppend of { gen : int; inner : message }
      (** leader → relay (Config.relay_groups > 0): apply the inner
          AppendEntries locally, fan it to the rotation group, and
          aggregate the group's replies into one [RelayAppendAck] *)
  | FanAppend of { origin : int; inner : message }
      (** relay → group member: process [inner] as if it came from
          leader [origin] (leader identity, lease grant), but reply to
          the relay so it can aggregate *)
  | RelayAppendAck of { term : int; gen : int; expected : int; bits : int }
      (** aggregated success replies for the round that establishes
          match index [expected]; bit i = plan-group member i accepted *)
  | InstallSnapshot of {
      term : int;
      last_index : int;
      last_term : int;
      image : Command.t array;
    }
      (** leader → lagging follower whose next_index fell below the
          leader's compacted log base: the applied-command image
          through [last_index] (exclusive), replayed to rebuild the
          follower's state machine; answered with an ordinary
          [AppendReply] at [last_index] *)

let name = "raft"
let cpu_factor (_ : Config.t) = 1.0

let message_label = function
  | RequestVote _ -> "RequestVote"
  | VoteReply _ -> "VoteReply"
  | AppendEntries _ -> "AppendEntries"
  | AppendReply _ -> "AppendReply"
  | RelayAppend _ -> "RelayAppend"
  | FanAppend _ -> "FanAppend"
  | RelayAppendAck _ -> "RelayAppendAck"
  | InstallSnapshot _ -> "InstallSnapshot"

type role = Follower | Candidate | Leader

type replica = {
  env : message Proto.env;
  dev : Storage.t; (* [env.storage], or the volatile device *)
  mutable term : int;
  mutable voted_for : int option;
  mutable state : role;
  mutable leader_id : int option;
  log : Slot_log.t; (* meta word = the entry's term *)
  mutable commit_index : int; (* one past last committed slot *)
  exec : Executor.t;
  mutable next_index : int array;
  mutable match_index : int array; (* one past last known replicated *)
  mutable votes : Quorum.t option;
  mutable election_deadline : float;
  pending : (Address.t * Command.t) Queue.t;
  (* leader command batching (Config.batching): entries appended since
     the last replication round, and the pending deferred-flush timer *)
  mutable unflushed : int;
  mutable flush_timer : Sim.handle; (* Sim.nil when no flush is pending *)
  (* reliable-delivery bookkeeping: the key of the open append post
     covering each follower (0 = none) and the match_index that post
     expects back — a success reply at or past it is the ack *)
  mutable append_key : int array;
  mutable inflight_match : int array;
  (* Leader-lease read path (config.read_path = Lease; PR 7). The
     lease rides on the append traffic: every outgoing AppendEntries
     is a probe, and any reply of the current term proves the follower
     reset its election timer (and granted) after the probe left.
     [probe_sent_at.(i)] is the send time of the oldest unanswered
     probe to i (0 = none outstanding); [acked_at.(i)] the latest such
     proven-contact time. The lease extends to the majority-th largest
     acked_at plus the minimum election delay. *)
  lease : Lease.t;
  mutable probe_sent_at : float array;
  mutable acked_at : float array;
  (* ---- relay trees (Config.relay_groups > 0; DESIGN.md §12) ---- *)
  relay : message Relay.t;
      (* relay records are keyed by the match index their round
         establishes (strictly increasing, so keys never collide) *)
  sizes : int option array; (* [Proto.round_sizes], for posted appends *)
  mutable relay_akey : int; (* leader: open relay-round post (0 = none) *)
  mutable relay_expected : int; (* match index that round establishes *)
  mutable relay_fb : Sim.handle; (* leader: relay fallback timer *)
  (* ---- stable storage + log compaction (Config.storage; §14) ---- *)
  mutable snap : (int * int * Command.t array) option;
      (* latest snapshot taken or installed here: (one past last
         included index, last included term, applied-command image) *)
  mutable snap_term : int; (* term of the entry at [log base - 1] *)
  mutable snapshots : int; (* snapshots taken locally *)
  mutable own_match : int -> int -> unit;
      (* [own_match term top]: {!own_match} on this replica, built once *)
}

let all_ids (t : replica) = List.init t.env.n (fun i -> i)

(* A relay's combined reply for the round establishing [expected]. *)
let relay_ack expected (a : Relay.agg) =
  RelayAppendAck
    {
      term = a.Relay.a_tag;
      gen = a.Relay.a_gen;
      expected;
      bits = a.Relay.a_bits;
    }

let role t = t.state
let current_term t = t.term
let commit_index t = t.commit_index
let executor t = t.exec
let log_length t = Slot_log.next_slot t.log
let local_reads_served t = Lease.served t.lease
let log_base t = Slot_log.base t.log
let snapshots_taken t = t.snapshots

(* A follower that heard from the leader waits at least
   [base + U(0, base)] before standing for election, so [base] is the
   window a proven contact buys — the same length the follower grants
   and refuses foreign votes for. *)
let lease_window t = t.env.Proto.config.Config.failover_timeout_ms
let lease_valid t = Lease.valid t.lease

let log_term_at t i =
  if Slot_log.mem t.log i then Some (Slot_log.meta t.log i) else None

let leader_of_key t (_ : Command.key) = t.leader_id

let last_index t = Slot_log.next_slot t.log - 1

let term_at t i =
  if i < 0 then 0
  else if i = Slot_log.base t.log - 1 then
    (* the slot right below the compacted base: its term survives in
       the snapshot record so consistency checks still line up *)
    t.snap_term
  else Slot_log.meta t.log i

(* ---- stable storage (DESIGN.md §14) --------------------------------
   Register 0 holds the durable term, register 1 the durable vote
   ([voted_for + 1]; 0 = none). The durable log holds every appended
   (slot, term, command); snapshots compact it below the applied
   frontier. Votes, append acks and the leader's own match wait for
   the fsync covering their records ({!Storage.after}). A memory-only
   replica runs the same code on {!Storage.volatile}, which records
   nothing, runs each continuation at once and never snapshots. *)

let write_term t =
  Storage.set_reg t.dev 0 t.term;
  Storage.set_reg t.dev 1 (match t.voted_for with Some v -> v + 1 | None -> 0)

let write_entry t ~slot ~term cmd =
  Storage.append t.dev ~index:slot ~a:term ~b:0 cmd

let reset_election_timer t =
  let base = t.env.config.Config.failover_timeout_ms in
  t.election_deadline <-
    t.env.now () +. base +. Rng.float t.env.rng base

(* Threshold log compaction (Raft §7): once the applied prefix since
   the last compaction reaches [snapshot_threshold], capture the
   state-machine image, persist it with a [truncate] record, and drop the
   in-memory slots below the frontier. The in-memory log truncates
   immediately (it is volatile either way); durability of the
   snapshot rides the next fsync, and a crash before it completes
   simply recovers from the previous image plus the longer log. *)
let maybe_snapshot t =
  let thr = Storage.snapshot_threshold t.dev in
  let applied = Slot_log.exec_frontier t.log in
  if thr > 0 && applied - Slot_log.base t.log >= thr then begin
    let image = Executor.image t.exec in
    t.snap_term <- term_at t (applied - 1);
    t.snap <- Some (applied, t.snap_term, image);
    Storage.write_snapshot t.dev ~last_index:applied ~a:t.snap_term image;
    Storage.truncate t.dev ~upto:applied;
    Storage.sync t.dev ignore;
    Slot_log.truncate t.log ~upto:applied;
    t.snapshots <- t.snapshots + 1
  end

(* Apply committed entries in order; leaders answer recorded clients. *)
let apply_committed t =
  Slot_log.advance_frontier t.log
    ~executable:(fun _ -> Slot_log.exec_frontier t.log < t.commit_index)
    ~f:(fun i ->
      let cmd = Slot_log.cmd t.log i in
      let read = Executor.execute t.exec cmd in
      let client = Slot_log.take_client t.log i in
      if client <> Slot_log.no_client then
        t.env.reply (Address.of_code client)
          {
            Proto.command = cmd;
            read;
            replier = t.env.id;
            leader_hint = t.leader_id;
          });
  maybe_snapshot t

(* Every append (probe) may extend the lease once answered; remember
   the oldest outstanding send time per follower — conservative, since
   the follower's grant starts no earlier than the probe that reached
   it. *)
let note_probe t dsts =
  if Lease.on t.lease then
    let now = t.env.now () in
    List.iter
      (fun f -> if t.probe_sent_at.(f) = 0.0 then t.probe_sent_at.(f) <- now)
      dsts

(* The lease holds as long as a majority (self included) was in
   contact within the last window: sort contact times ascending and
   take the majority-th largest — that instant plus the window is the
   earliest any majority member could start helping a rival. The
   leader's own contact is always now, so at n = 1 it alone renews
   the window (DESIGN.md §11). *)
let recompute_lease t =
  if Lease.on t.lease && t.state = Leader then begin
    let contact = Array.copy t.acked_at in
    contact.(t.env.id) <- t.env.now ();
    Array.sort Float.compare contact;
    let pivot = contact.(t.env.n - Config.majority t.env.config) in
    Lease.extend t.lease ~until:(pivot +. lease_window t)
  end

(* With batching on, an AppendEntries carrying k entries costs k
   message sizes on the wire (but still one t_in/t_out) — without it,
   sends keep the flat per-message default so unbatched runs are
   bit-identical to the pre-batching simulator. *)
let append_count t cmds =
  match t.env.config.Config.batching with
  | Some _ -> Stdlib.max 1 (Array.length cmds)
  | None -> 1

let append_size t cmds = append_count t cmds * t.env.config.Config.msg_size_bytes

(* The same size as a prebuilt option, for the reliable posts. *)
let append_size_opt t cmds =
  Proto.round_size t.sizes t.env.config (append_count t cmds)

(* ---- relay trees (Config.relay_groups = r > 0; DESIGN.md §12) ----

   A uniform replication round is wrapped in [RelayAppend] and posted
   to one relay per rotation group; relays apply it locally, fan
   [FanAppend] to their group, and aggregate the members'
   AppendReplies into one [RelayAppendAck] bitmap. The
   protocol-independent parts live in {!Relay}; raft keeps its one
   outstanding relayed round, the uniform-next_index rule and the
   lease probe credit. *)

(* A member's success reply arriving at its relay: fold it into the
   aggregation bitmap. Returns [false] when the reply is not ours to
   absorb — the caller runs the normal leader-side path. Failure
   replies are never absorbed; a diverged member heals through the
   leader's direct keepalive path. *)
let relay_absorb_reply t ~src ~term ~success ~match_index =
  t.state <> Leader && Relay.active t.relay && success
  &&
  let a = Relay.lookup t.relay match_index in
  a != Relay.agg_nil && a.Relay.a_tag = term
  && begin
       Relay.absorb t.relay a ~src;
       true
     end

(* A follower's next_index fell below our compacted base: the slots it
   needs are gone, so ship the state-machine image instead. Answered
   with an ordinary AppendReply at the image's frontier; a lost copy
   re-triggers through the usual nack/backoff path. *)
let send_install_snapshot t ~dsts =
  match t.snap with
  | None -> ()
  | Some (last, last_term, image) ->
      let size_bytes =
        Stdlib.max 1 (Array.length image) * t.env.config.Config.msg_size_bytes
      in
      note_probe t dsts;
      t.env.multicast_sized dsts ~size_bytes
        (InstallSnapshot { term = t.term; last_index = last; last_term; image })

(* The filled slots from [next] on: their terms and commands. *)
let tail_from t next =
  let k = ref 0 in
  Slot_log.iter_from t.log ~start:next ~f:(fun _ -> incr k);
  let terms = Array.make !k 0 and cmds = Array.make !k Command.noop in
  k := 0;
  Slot_log.iter_from t.log ~start:next ~f:(fun i ->
      terms.(!k) <- Slot_log.meta t.log i;
      cmds.(!k) <- Slot_log.cmd t.log i;
      incr k);
  (terms, cmds)

let append_msg t ~next (terms, cmds) =
  let prev_index = next - 1 in
  AppendEntries
    {
      term = t.term;
      prev_index;
      prev_term = term_at t prev_index;
      terms;
      cmds;
      leader_commit = t.commit_index;
    }

(* Withdraw the open append post covering follower [f], if any. *)
let settle_append t f =
  if t.append_key.(f) <> 0 then begin
    t.env.rel.settle ~dst:f ~key:t.append_key.(f);
    t.append_key.(f) <- 0;
    t.inflight_match.(f) <- 0
  end

(* Ship the tail from [next] to [dsts] (who all share that
   next_index). A non-empty tail goes through the reliable layer: any
   post still covering a destination is superseded first (settled and
   re-posted with the current tail), so at most one append post is
   open per follower and it always carries the freshest state. An
   empty tail is a plain probe — nothing to recover. *)
let post_append_tail t ~dsts ~next =
  let ((_, cmds) as entries) = tail_from t next in
  let msg = append_msg t ~next entries in
  note_probe t dsts;
  List.iter (settle_append t) dsts;
  if Array.length cmds = 0 then
    t.env.multicast_sized dsts ~size_bytes:(append_size t cmds) msg
  else begin
    let key =
      t.env.rel.post_multi ?size_bytes:(append_size_opt t cmds)
        ~ack:Reliable.Piggyback dsts msg
    in
    let expected = next + Array.length cmds in
    List.iter
      (fun f ->
        t.append_key.(f) <- key;
        t.inflight_match.(f) <- expected)
      dsts
  end

let post_append t ~dsts ~next =
  if next < Slot_log.base t.log then send_install_snapshot t ~dsts
  else post_append_tail t ~dsts ~next

let send_append t follower =
  post_append t ~dsts:[ follower ] ~next:t.next_index.(follower)

(* Withdraw the open relayed round: its post and its fallback timer. *)
let relay_withdraw t =
  if t.relay_akey <> 0 then begin
    t.env.rel.settle_all ~key:t.relay_akey;
    t.relay_akey <- 0
  end;
  if not (Sim.is_nil t.relay_fb) then begin
    t.env.Proto.cancel t.relay_fb;
    t.relay_fb <- Sim.nil
  end

(* Followers grouped by next_index, so the CPU serializes each
   group's message once (etcd replicates a shared log the same way);
   stragglers with a lagging next_index get tailored sends. *)
let followers_by_next t =
  let groups = Hashtbl.create 4 in
  for i = 0 to t.env.n - 1 do
    if i <> t.env.id then begin
      let next = t.next_index.(i) in
      let members = Option.value (Hashtbl.find_opt groups next) ~default:[] in
      Hashtbl.replace groups next (i :: members)
    end
  done;
  groups

let rec broadcast_append t =
  (* every replication round ships the full unreplicated tail, so any
     deferred batch flush is satisfied by it *)
  t.unflushed <- 0;
  t.env.Proto.cancel t.flush_timer;
  t.flush_timer <- Sim.nil;
  if not (relay_broadcast_append t) then
    Hashtbl.iter
      (fun next members -> post_append t ~dsts:members ~next)
      (followers_by_next t)

(* Route one replication round through the relays. Applies only when
   every follower shares the same next_index — so one wrapped
   AppendEntries serves every group — and the tail is non-empty;
   stragglers and keepalives always go direct. Returns whether the
   round was routed. *)
and relay_broadcast_append t =
  Relay.routing t.relay
  &&
  let next = t.next_index.((t.env.id + 1) mod t.env.n) in
  let uniform = ref (last_index t >= next) in
  for i = 0 to t.env.n - 1 do
    if i <> t.env.id && t.next_index.(i) <> next then uniform := false
  done;
  !uniform
  && begin
       (* supersede the previous relay round and any direct posts *)
       relay_withdraw t;
       for f = 0 to t.env.n - 1 do
         if f <> t.env.id then settle_append t f
       done;
       let ((_, cmds) as entries) = tail_from t next in
       (* every follower is probed through its relay this round *)
       if Lease.on t.lease then
         note_probe t (List.filter (fun i -> i <> t.env.id) (all_ids t));
       let gen = Relay.route t.relay in
       t.relay_akey <-
         t.env.rel.post_multi ?size_bytes:(append_size_opt t cmds)
           ~ack:Reliable.Piggyback
           (Relay.relays t.relay ~gen)
           (RelayAppend { gen; inner = append_msg t ~next entries });
       t.relay_expected <- next + Array.length cmds;
       t.relay_fb <-
         t.env.schedule (Relay.fallback_ms t.relay) (fun () ->
             relay_fallback t);
       true
     end

(* The leader gave a relay round [Relay.fallback_ms] and the round's
   match index still has not committed: withdraw the post, rotate the
   plan, and re-ship the tail direct for a bypass window. *)
and relay_fallback t =
  t.relay_fb <- Sim.nil;
  if t.state = Leader && t.relay_akey <> 0 then begin
    relay_withdraw t;
    if t.commit_index < t.relay_expected then begin
      Relay.stall t.relay;
      broadcast_append t
    end
  end

(* The beat when there is nothing to flush: empty appends grouped by
   next_index. They keep election timers quiet and carry the commit
   frontier; lost-append recovery is the reliable layer's job, so the
   beat no longer re-ships the unreplicated tail. *)
let broadcast_keepalive t =
  Hashtbl.iter
    (fun next members ->
      note_probe t members;
      t.env.multicast_sized members ~size_bytes:(append_size t [||])
        (append_msg t ~next ([||], [||])))
    (followers_by_next t)

(* Leadership changed hands (or is being contested): the open relayed
   round and every relay record belong to the old leadership. The
   post itself is already withdrawn, or was never opened. *)
let relay_clear_leader t =
  if Relay.active t.relay then begin
    relay_withdraw t;
    Relay.reset t.relay
  end

let advance_commit t =
  (* Largest index replicated on a majority with an entry of the
     current term (Raft's commit rule). *)
  let sorted = Array.copy t.match_index in
  Array.sort Int.compare sorted;
  (* the majority-th smallest match: at least majority replicas have
     match_index >= this value *)
  let majority_match = sorted.(t.env.n - Config.majority t.env.config) in
  if majority_match > t.commit_index && term_at t (majority_match - 1) = t.term
  then begin
    let old = t.commit_index in
    t.commit_index <- majority_match;
    for slot = old to majority_match - 1 do
      t.env.obs.Proto.on_quorum ~slot
    done;
    apply_committed t;
    (* the barrier committing may unblock queued lease reads *)
    Lease.drain t.lease
  end

(* The leader's entries below [top] are on disk: they count as its own
   match unless it lost the [term] it appended them in. *)
let own_match t term top =
  if t.state = Leader && t.term = term then begin
    if top > t.match_index.(t.env.id) then t.match_index.(t.env.id) <- top;
    advance_commit t
  end

let create env =
  let exec = Executor.create () in
  let t =
    {
      env;
      dev = Option.value env.Proto.storage ~default:Storage.volatile;
      term = 0;
      voted_for = None;
      state = Follower;
      leader_id = None;
      log = Slot_log.create ();
      commit_index = 0;
      exec;
      next_index = Array.make env.Proto.n 0;
      match_index = Array.make env.Proto.n 0;
      votes = None;
      election_deadline = 0.0;
      pending = Queue.create ();
      unflushed = 0;
      flush_timer = Sim.nil;
      append_key = Array.make env.Proto.n 0;
      inflight_match = Array.make env.Proto.n 0;
      lease = Lease.create env exec;
      probe_sent_at = Array.make env.Proto.n 0.0;
      acked_at = Array.make env.Proto.n neg_infinity;
      relay = Relay.create env ~ack:relay_ack;
      sizes = Proto.round_sizes env.Proto.config;
      relay_akey = 0;
      relay_expected = 0;
      relay_fb = Sim.nil;
      snap = None;
      snap_term = 0;
      snapshots = 0;
      own_match = (fun _ _ -> ());
    }
  in
  t.own_match <- own_match t;
  (* a relay record is current while we follow in its term *)
  Relay.set_current t.relay (fun a ->
      a.Relay.a_tag = t.term && t.state <> Leader);
  (* lease reads wait for the term's no-op barrier to commit *)
  Lease.set_progress t.lease (fun () -> t.commit_index);
  t

let become_leader t =
  t.state <- Leader;
  t.leader_id <- Some t.env.id;
  t.votes <- None;
  relay_clear_leader t;
  let len = Slot_log.next_slot t.log in
  t.next_index <- Array.make t.env.n len;
  t.match_index <- Array.make t.env.n 0;
  t.append_key <- Array.make t.env.n 0;
  t.inflight_match <- Array.make t.env.n 0;
  t.probe_sent_at <- Array.make t.env.n 0.0;
  t.acked_at <- Array.make t.env.n neg_infinity;
  (* No-op barrier: an entry of the new term lets the leader commit
     any uncommitted tail from previous terms (Raft §5.4.2). Lease
     reads additionally wait for it to commit (the lease barrier), so a
     fresh leader never serves a read before applying every write its
     predecessors could have acknowledged. *)
  let barrier = Slot_log.reserve t.log in
  Slot_log.set t.log barrier ~meta:t.term Command.noop;
  Lease.lead t.lease ~barrier:(barrier + 1);
  write_entry t ~slot:barrier ~term:t.term Command.noop;
  broadcast_append t;
  while not (Queue.is_empty t.pending) do
    let client, cmd = Queue.pop t.pending in
    let slot = Slot_log.reserve t.log in
    Slot_log.set t.log slot ~meta:t.term cmd;
    Slot_log.set_client t.log slot client;
    write_entry t ~slot ~term:t.term cmd
  done;
  (* the leader's own match counts only once its entries are on disk;
     one fsync covers the barrier and the drained backlog (a cluster
     of one then commits alone) *)
  Storage.after t.dev t.own_match t.term (Slot_log.next_slot t.log);
  if Slot_log.next_slot t.log > len then broadcast_append t;
  recompute_lease t

let become_follower t ~term =
  if term > t.term then begin
    t.term <- term;
    t.voted_for <- None
  end;
  t.state <- Follower;
  t.votes <- None;
  t.unflushed <- 0;
  t.env.Proto.cancel t.flush_timer;
  t.flush_timer <- Sim.nil;
  (* queued lease reads go back to [pending] and get forwarded *)
  Lease.revoke t.lease ~pending:t.pending;
  (* open append posts belong to a leadership this replica just lost *)
  t.env.rel.unpost_all ();
  relay_clear_leader t;
  reset_election_timer t

let start_election t =
  t.term <- t.term + 1;
  t.state <- Candidate;
  t.voted_for <- Some t.env.id;
  t.leader_id <- None;
  t.env.rel.unpost_all ();
  relay_clear_leader t;
  let tracker = Quorum.create (Quorum.Majority (all_ids t)) in
  Quorum.ack tracker t.env.id;
  t.votes <- Some tracker;
  reset_election_timer t;
  (* with a majority of one (n = 1) the self-vote alone elects us *)
  let solicit () =
    if Quorum.satisfied tracker then become_leader t
    else
      t.env.broadcast
        (RequestVote
           {
             term = t.term;
             last_index = last_index t;
             last_term = term_at t (last_index t);
           })
  in
  (* the candidacy's term and self-vote bind across crashes: the
     solicitation leaves only once they are on disk *)
  let term = t.term in
  write_term t;
  Storage.sync t.dev (fun () ->
      if t.state = Candidate && t.term = term then solicit ())

let on_request t ~client (cmd : Command.t) =
  match t.state with
  | Leader when Lease.on t.lease && Command.is_read cmd ->
      Lease.read t.lease ~client cmd
  | Leader -> (
      let slot = Slot_log.reserve t.log in
      Slot_log.set t.log slot ~meta:t.term cmd;
      Slot_log.set_client t.log slot client;
      t.env.obs.Proto.on_propose ~slot ~cmd:cmd;
      (* the leader's own match counts only once the entry's fsync
         completes — by then leadership may have moved on *)
      write_entry t ~slot ~term:t.term cmd;
      Storage.after t.dev t.own_match t.term (slot + 1);
      match t.env.config.Config.batching with
      | None -> broadcast_append t
      | Some b ->
          (* defer replication until the batch fills or the wait timer
             fires; the next AppendEntries then carries the whole tail
             in one message per follower *)
          t.unflushed <- t.unflushed + 1;
          if t.unflushed >= b.Config.max_batch then broadcast_append t
          else if Sim.is_nil t.flush_timer then
            t.flush_timer <-
              t.env.schedule b.Config.max_wait_ms (fun () ->
                  t.flush_timer <- Sim.nil;
                  if t.state = Leader && t.unflushed > 0 then
                    broadcast_append t))
  | Follower | Candidate -> (
      match t.leader_id with
      | Some l when l <> t.env.id -> t.env.forward l ~client cmd
      | _ -> Queue.push (client, cmd) t.pending)

let drain_pending_to_leader t =
  match t.leader_id with
  | Some l when l <> t.env.id && t.state <> Leader ->
      while not (Queue.is_empty t.pending) do
        let client, cmd = Queue.pop t.pending in
        t.env.forward l ~client cmd
      done
  | _ -> ()

let on_request_vote t ~src ~term ~last_index:cand_last ~last_term =
  if term > t.term then become_follower t ~term;
  let up_to_date =
    last_term > term_at t (last_index t)
    || (last_term = term_at t (last_index t) && cand_last >= last_index t)
  in
  (* Lease safety: having accepted an AppendEntries grants its sender
     a window during which this replica helps no other candidate win —
     the counterpart of the leader's {!recompute_lease} bound. *)
  let lease_blocks = Lease.refuses t.lease src in
  let granted =
    (not lease_blocks)
    && term = t.term
    && up_to_date
    && match t.voted_for with None -> true | Some v -> v = src
  in
  if granted then begin
    t.voted_for <- Some src;
    reset_election_timer t
  end;
  let reply = VoteReply { term = t.term; granted } in
  if granted then begin
    (* the vote binds across crashes: it leaves only after term and
       voted_for are on disk *)
    write_term t;
    Storage.after t.dev t.env.send src reply
  end
  else t.env.send src reply

let on_vote_reply t ~src ~term ~granted =
  if term > t.term then become_follower t ~term
  else if t.state = Candidate && term = t.term && granted then
    match t.votes with
    | Some tracker ->
        Quorum.ack tracker src;
        if Quorum.satisfied tracker then become_leader t
    | None -> ()

(* Follower side of an append [msg]: from [leader] direct ([gen = -1],
   [src = leader]), fanned out by relay [src] (the reply goes back to
   it, to aggregate), or routed to us as a relay at plan [gen]. An
   accepted append that carries entries votes once they are durable:
   with an AppendReply, or, as the relay of our group under that plan,
   as bit 0 of the group's aggregate after fanning [msg] out (a plan
   that raced a bump leaves us no group: we reply directly). *)
let on_append_entries t ~src ~leader ~gen msg =
  match msg with
  | AppendEntries { term; prev_index; prev_term; terms; cmds; leader_commit }
    ->
      let success, match_index =
        if term < t.term then (false, 0)
        else begin
          if term > t.term || t.state <> Follower then become_follower t ~term;
          t.leader_id <- Some leader;
          reset_election_timer t;
          (* the accepted append doubles as the lease grant; the reply (of
             either polarity) is the leader's proof of it *)
          Lease.grant t.lease ~holder:leader ~window:(lease_window t);
          drain_pending_to_leader t;
          let consistent = prev_index < 0 || term_at t prev_index = prev_term in
          if not consistent then
            (false, Int.min prev_index (Slot_log.next_slot t.log))
          else begin
            (* Append, overwriting conflicting suffixes. *)
            for off = 0 to Array.length cmds - 1 do
              let i = prev_index + 1 + off and term = terms.(off) in
              if not (Slot_log.mem t.log i && Slot_log.meta t.log i = term)
              then begin
                Slot_log.set t.log i ~meta:term cmds.(off);
                write_entry t ~slot:i ~term cmds.(off)
              end
            done;
            let match_index = prev_index + 1 + Array.length cmds in
            if leader_commit > t.commit_index then begin
              t.commit_index <- Int.min leader_commit match_index;
              apply_committed t
            end;
            (true, match_index)
          end
        end
      in
      if not (success && Array.length cmds > 0) then
        t.env.send src (AppendReply { term = t.term; success; match_index })
      else
        let a =
          if gen < 0 then Relay.agg_nil
          else
            Relay.start t.relay ~key:match_index ~leader ~gen ~tag:term ~aux:0
              ~mark:t.commit_index ~size_bytes:(append_size t cmds)
              (FanAppend { origin = leader; inner = msg })
        in
        if a != Relay.agg_nil then
          Storage.after t.dev (Relay.own t.relay) a a.Relay.a_epoch
        else
          Storage.after t.dev t.env.send src
            (AppendReply { term = t.term; success; match_index })
  | _ -> ()

(* Snapshot install (Raft §7): replace the state machine with the
   shipped image, drop the log below its frontier, and answer with an
   ordinary AppendReply so the leader's match/next bookkeeping needs
   no special case. A stale image (we already applied past it) only
   refreshes leader identity and the election timer. *)
let on_install_snapshot t ~src ~term ~last_index ~last_term ~image =
  if term < t.term then
    t.env.send src
      (AppendReply
         {
           term = t.term;
           success = false;
           match_index = Slot_log.next_slot t.log;
         })
  else begin
    if term > t.term || t.state <> Follower then become_follower t ~term;
    t.leader_id <- Some src;
    reset_election_timer t;
    Lease.grant t.lease ~holder:src ~window:(lease_window t);
    drain_pending_to_leader t;
    let reply_term = t.term in
    if last_index > Slot_log.exec_frontier t.log then begin
      Executor.install t.exec image;
      Slot_log.truncate t.log ~upto:last_index;
      t.snap_term <- last_term;
      t.snap <- Some (last_index, last_term, image);
      if last_index > t.commit_index then t.commit_index <- last_index;
      Storage.write_snapshot t.dev ~last_index ~a:last_term image;
      Storage.truncate t.dev ~upto:last_index;
      Storage.after t.dev t.env.send src
        (AppendReply
           { term = reply_term; success = true; match_index = last_index })
    end
    else
      t.env.send src
        (AppendReply
           {
             term = reply_term;
             success = true;
             match_index = Int.max last_index (Slot_log.exec_frontier t.log);
           })
  end

(* The leader routed a round through us: a retransmission re-sends
   our group's completed ack or re-fans to its silent members; a new
   round is accepted as a relay. A round we cannot accept (stale term
   or log inconsistency) is nacked straight back to the leader, which
   handles it exactly like a direct nack. *)
let on_relay_append t ~src ~gen ~inner =
  match inner with
  | AppendEntries { term; prev_index; cmds; _ } ->
      let a = Relay.lookup t.relay (prev_index + 1 + Array.length cmds) in
      if a != Relay.agg_nil && a.Relay.a_tag = term && a.Relay.a_leader = src
      then
        Relay.resend t.relay a ~size_bytes:(append_size t cmds)
          (FanAppend { origin = src; inner })
      else on_append_entries t ~src ~leader:src ~gen inner
  | _ -> ()

(* One aggregated bitmap covers a whole rotation group: credit every
   bit's member with the round's match index, settle the relay's post
   once its group is complete, and advance the commit frontier. *)
let on_relay_append_ack t ~src ~term ~gen ~expected ~bits =
  if term > t.term then become_follower t ~term
  else if t.state = Leader && term = t.term && Relay.active t.relay then begin
    let group = Relay.relay_group t.relay ~src ~gen in
    if Array.length group > 0 then begin
      if
        t.relay_akey <> 0 && expected = t.relay_expected
        && Relay.covers group ~bits
      then t.env.rel.settle ~dst:src ~key:t.relay_akey;
      let lease = Lease.on t.lease in
      for i = 0 to Array.length group - 1 do
        if Relay.acked ~bits i then begin
          let m = group.(i) in
          (* the member accepted the append — its relayed reply proves
             the probe contact just like a direct reply would *)
          if lease && t.probe_sent_at.(m) > 0.0 then begin
            if t.probe_sent_at.(m) > t.acked_at.(m) then
              t.acked_at.(m) <- t.probe_sent_at.(m);
            t.probe_sent_at.(m) <- 0.0
          end;
          t.match_index.(m) <- Int.max t.match_index.(m) expected;
          t.next_index.(m) <- Int.max t.next_index.(m) expected
        end
      done;
      if lease then recompute_lease t;
      advance_commit t;
      if t.commit_index >= t.relay_expected && not (Sim.is_nil t.relay_fb)
      then begin
        t.env.Proto.cancel t.relay_fb;
        t.relay_fb <- Sim.nil
      end
    end
  end

let on_append_reply t ~src ~term ~success ~match_index =
  if relay_absorb_reply t ~src ~term ~success ~match_index then ()
  else if term > t.term then become_follower t ~term
  else if t.state = Leader && term = t.term then begin
    (* Either polarity of a current-term reply proves the follower
       accepted an append of ours sent no earlier than the recorded
       probe time — it reset its election timer and granted then — so
       the probe round-trip extends the lease. *)
    if Lease.on t.lease && t.probe_sent_at.(src) > 0.0 then begin
      if t.probe_sent_at.(src) > t.acked_at.(src) then
        t.acked_at.(src) <- t.probe_sent_at.(src);
      t.probe_sent_at.(src) <- 0.0;
      recompute_lease t
    end;
    if success then begin
      (* the open post's ack: a success at or past the match it was
         shipped to establish (an older reply leaves it posted) *)
      if match_index >= t.inflight_match.(src) then settle_append t src;
      t.match_index.(src) <- Int.max t.match_index.(src) match_index;
      t.next_index.(src) <- Int.max t.next_index.(src) match_index;
      advance_commit t
    end
    else begin
      (* Fast backoff to the follower's hinted match point. *)
      t.next_index.(src) <- Int.max 0 (Int.min match_index (t.next_index.(src) - 1));
      send_append t src
    end
  end

let on_message t ~src = function
  | RequestVote { term; last_index; last_term } ->
      on_request_vote t ~src ~term ~last_index ~last_term
  | VoteReply { term; granted } -> on_vote_reply t ~src ~term ~granted
  | AppendEntries _ as msg ->
      on_append_entries t ~src ~leader:src ~gen:(-1) msg
  | FanAppend { origin; inner } ->
      on_append_entries t ~src ~leader:origin ~gen:(-1) inner
  | AppendReply { term; success; match_index } ->
      on_append_reply t ~src ~term ~success ~match_index
  | RelayAppend { gen; inner } -> on_relay_append t ~src ~gen ~inner
  | RelayAppendAck { term; gen; expected; bits } ->
      on_relay_append_ack t ~src ~term ~gen ~expected ~bits
  | InstallSnapshot { term; last_index; last_term; image } ->
      on_install_snapshot t ~src ~term ~last_index ~last_term ~image

let rec heartbeat_loop t =
  let period = t.env.config.Config.failover_timeout_ms /. 4.0 in
  ignore
  @@ t.env.schedule period (fun () ->
         (if t.state = Leader then begin
            if t.unflushed > 0 then broadcast_append t
            else broadcast_keepalive t;
            recompute_lease t
          end);
         heartbeat_loop t)

let rec election_loop t =
  let period = t.env.config.Config.failover_timeout_ms /. 4.0 in
  ignore
  @@ t.env.schedule period (fun () ->
         (if t.state <> Leader && t.env.now () > t.election_deadline then
            start_election t);
         election_loop t)

let on_start t =
  (* Deterministic fast start: replica 0 stands for election right
     away so the common case elects it immediately, as with etcd's
     initial election. *)
  let base = t.env.config.Config.failover_timeout_ms in
  if t.env.id = 0 then
    ignore
      (t.env.schedule 1.0 (fun () ->
           if t.state = Follower && t.leader_id = None then start_election t))
  else t.election_deadline <- t.env.now () +. base +. Rng.float t.env.rng base;
  heartbeat_loop t;
  election_loop t

(* Boot a FRESH replica instance from durable state after a crash (the
   cluster engine swaps instances at the recovery edge). Volatile
   state — role, leader identity, commit index beyond the snapshot,
   match/next bookkeeping, leases — is gone by construction; the
   durable term, vote, snapshot and log survive. The replica restarts
   as a follower with a full election timeout: even a pre-crash leader
   must win a fresh election (or hear from the incumbent) before it
   touches the log again. *)
let on_recover t =
  t.term <- Storage.reg t.dev 0;
  let v = Storage.reg t.dev 1 in
  t.voted_for <- (if v > 0 then Some (v - 1) else None);
  (match Storage.snapshot t.dev with
  | Some (last, last_term, image) ->
      Executor.install t.exec image;
      Slot_log.truncate t.log ~upto:last;
      t.snap_term <- last_term;
      t.snap <- Some (last, last_term, image);
      t.commit_index <- last
  | None -> ());
  Storage.iter_entries t.dev ~f:(fun slot ~a ~b:_ cmd ->
      if slot >= Slot_log.base t.log then Slot_log.set t.log slot ~meta:a cmd);
  reset_election_timer t;
  heartbeat_loop t;
  election_loop t
