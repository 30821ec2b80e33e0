type message =
  | P1a of { ballot : Ballot.t; frontier : int }
  | P1b of {
      ballot : Ballot.t;
      ok : bool;
      accepted : (int * Ballot.t * Command.t) list;
    }
  | P2a of {
      ballot : Ballot.t;
      first_slot : int;
      cmds : Command.t array;
      commit_up_to : int;
    }
      (** one phase-2 round for [Array.length cmds] contiguous slots
          starting at [first_slot] (one slot when batching is off);
          wire size is the sum of the commands' sizes, so the receiver
          pays one [t_in] for the whole round *)
  | P2b of { ballot : Ballot.t; first_slot : int; count : int; ok : bool }
  | Commit of { slot : int; cmd : Command.t }
  | Heartbeat of { ballot : Ballot.t; commit_up_to : int; epoch : int }
      (** [epoch] numbers lease-renewal rounds (0 and unacked when the
          lease read path is off) *)
  | HeartbeatAck of { ballot : Ballot.t; epoch : int }
      (** lease grant: the follower promises not to promise a foreign
          phase-1 for the serve window; only sent in lease mode *)
  | CommitAck of { slot : int }
      (** quorum-read mode: a follower applied this slot — the leader
          defers the client's write ack until a majority did *)
  | Read of Abd_round.message
      (** quorum-read mode: one message of an ABD read round over the
          shadow registers *)
  | RelayRound of { gen : int; inner : message }
      (** leader → relay (Config.relay_groups > 0): apply [inner] (a
          P2a) locally, fan it out to the relay's rotation group, and
          aggregate the group's acks into one [RelayAck]; [gen] names
          the rotation plan every replica derives identically
          (DESIGN.md §12) *)
  | RelayAck of {
      round : int;
      owner : int;
          (** the round's ballot, as the relay's record holds it *)
      gen : int;
      first_slot : int;
      count : int;
      bits : int;
          (** positional ack bitmap over the plan's group array — bit i
              set = group member i accepted, so quorum accounting stays
              exact: each bit maps back to a replica id *)
    }

let name = "paxos"
let cpu_factor (_ : Config.t) = 1.0

let message_label = function
  | P1a _ -> "P1a"
  | P1b _ -> "P1b"
  | P2a _ -> "P2a"
  | P2b _ -> "P2b"
  | Commit _ -> "Commit"
  | Heartbeat _ -> "Heartbeat"
  | HeartbeatAck _ -> "HeartbeatAck"
  | CommitAck _ -> "CommitAck"
  | Read m -> Abd_round.message_label m
  | RelayRound _ -> "RelayRound"
  | RelayAck _ -> "RelayAck"

type phase1_state = {
  tracker : Quorum.t;
  mutable recovered : (int * Ballot.t * Command.t) list;
  rkey : int;  (** reliable-delivery key of the P1a broadcast *)
}

(* One in-flight phase-2 round: a single quorum covers the slot range
   [first, first + count). Records are pooled per replica: a round
   takes one from [free] and resets it, and its tracker (the same spec
   every round), fallback thunk and self-vote are built once per
   record. *)
type batch_state = {
  mutable bballot : Ballot.t;
  mutable first : int;
  mutable count : int;
  tracker : Quorum.t;
  mutable rkey : int;
      (** reliable-delivery key of the round's P2a — settled per
          acceptor as P2bs arrive, re-posted by a relay fallback *)
  mutable fb : Sim.handle;
      (** relay-mode fallback timer: if the round is still uncommitted
          when it fires, the leader re-sends direct and rotates the
          relay plan ([Sim.nil] outside relay rounds) *)
  mutable on_fb : unit -> unit;  (** the timer's thunk, built once *)
  mutable on_vote : int -> unit -> unit;
      (** [on_vote epoch ()]: the leader's own vote, if the record still
          holds round [epoch]; built once *)
  mutable epoch : int;
      (** bumped whenever the record opens a round: a late callback
          (an fsync completion) names the round it was made for *)
  mutable orphan : bool;
      (** dropped from [batches] while its fallback timer was pending:
          the timer returns the record to the pool when it fires *)
  mutable next_free : batch_state;
}

let no_batch =
  let rec b =
    {
      bballot = Ballot.zero;
      first = 0;
      count = 0;
      tracker = Quorum.create (Quorum.Count { members = []; threshold = 1 });
      rkey = 0;
      fb = Sim.nil;
      on_fb = ignore;
      on_vote = (fun _ () -> ());
      epoch = 0;
      orphan = false;
      next_free = b;
    }
  in
  b

type replica = {
  env : message Proto.env;
  dev : Storage.t;  (* [env.storage], or the volatile device *)
  ids : int list Lazy.t;
      (* [0 .. n-1] for the quorum trackers, built once and only on a
         replica that runs a round: followers never need it *)
  mutable ballot : Ballot.t;
  mutable active : bool; (* self is the established leader *)
  log : Cmd_log.t;
  exec : Executor.t;
  mutable p1 : phase1_state option;
  pending : (Address.t * Command.t) Queue.t;
  last_heard : float array;
      (* one slot, stamped through [Proto.local_now]: no box per stamp *)
  (* leader command batching (Config.batching) *)
  batch_buf : (Address.t * Command.t) Queue.t;
  mutable flush_timer : Sim.handle; (* Sim.nil when no flush is pending *)
  batches : (int, batch_state) Hashtbl.t;
      (* in-flight phase-2 rounds keyed by first_slot *)
  mutable free : batch_state;  (* pooled round records; [no_batch] = none *)
  sizes : int option array;  (* [Proto.round_sizes]: wire sizes of rounds *)
  (* ---- read path: leader leases (Config.read_path = Lease) ---- *)
  lease : Lease.t;
  mutable lease_epoch : int; (* leader: renewal round counter *)
  mutable lease_sent_at : float; (* leader: local clock at renewal send *)
  mutable lease_acks : Quorum.t option; (* leader: grants for lease_epoch *)
  (* ---- read path: quorum reads (Config.read_path = Quorum) ---- *)
  abd : Abd_round.t;
      (* ABD read rounds over shadow registers: per key, (tag = (slot,
         0), value) of the freshest locally applied write; fed only in
         quorum mode, never touches the KV *)
  held : (int, Address.t * Command.t * Command.value option) Hashtbl.t;
      (* leader: write replies deferred until a majority applied *)
  commit_acks : (int, Quorum.t) Hashtbl.t; (* slot -> applied-at votes *)
  relay : message Relay.t;
      (* relay trees (Config.relay_groups > 0; DESIGN.md §12); relay
         records are keyed by the round's first slot *)
}

let all_ids (t : replica) = Lazy.force t.ids

(* Stamp [last_heard] with the local clock; nothing is boxed. *)
let stamp t = t.last_heard.(0) <- Proto.local_now t.env.Proto.clock

let q2_size (t : replica) = Config.phase2_quorum_size t.env.config

let q1_size (t : replica) =
  match t.env.config.Config.q2_size with
  | Some q2 -> t.env.n - q2 + 1
  | None -> Config.majority t.env.config

(* Followers the leader contacts in phase-2: everyone, or with the
   thrifty optimization only the Q2-1 closest peers. *)
let phase2_peers (t : replica) =
  let others = List.filter (fun i -> i <> t.env.id) (all_ids t) in
  if not t.env.config.Config.thrifty then others
  else begin
    let my_region = Topology.region_of_replica t.env.topology t.env.id in
    let dist i =
      Topology.rtt_mean t.env.topology my_region
        (Topology.region_of_replica t.env.topology i)
    in
    let sorted =
      List.sort (fun a b -> Float.compare (dist a) (dist b)) others
    in
    List.filteri (fun rank _ -> rank < q2_size t - 1) sorted
  end

(* A relay's combined reply for the round starting at [first_slot]. *)
let relay_ack first_slot (a : Relay.agg) =
  RelayAck
    {
      round = a.Relay.a_tag;
      owner = a.Relay.a_leader;
      gen = a.Relay.a_gen;
      first_slot;
      count = a.Relay.a_aux;
      bits = a.Relay.a_bits;
    }

(* A quorum read's round finished at its coordinator: answer it. *)
let quorum_read_done (env : message Proto.env) ~client command read =
  env.Proto.obs.Proto.on_read ();
  env.Proto.reply client
    { Proto.command; read; replier = env.Proto.id; leader_hint = None }

let quorum_mode t =
  match t.env.config.Config.read_path with
  | Some Config.Quorum -> true
  | _ -> false

let commit_tracker t slot =
  match Hashtbl.find_opt t.commit_acks slot with
  | Some q -> q
  | None ->
      let q = Quorum.create (Quorum.Majority (all_ids t)) in
      Hashtbl.add t.commit_acks slot q;
      q

(* Release a deferred write ack once a majority applied the slot. The
   tracker is a plain majority — NOT q2: the quorum a read queries is
   a majority, and only majorities are guaranteed to intersect it. *)
let maybe_release_held t slot =
  match Hashtbl.find_opt t.commit_acks slot with
  | Some q when Quorum.satisfied q -> (
      Hashtbl.remove t.commit_acks slot;
      match Hashtbl.find_opt t.held slot with
      | Some (client, cmd, read) ->
          Hashtbl.remove t.held slot;
          t.env.reply client
            {
              Proto.command = cmd;
              read;
              replier = t.env.id;
              leader_hint = (if t.active then Some t.env.id else None);
            }
      | None -> ())
  | _ -> ()

(* Quorum-read mode's per-slot apply hook: every apply feeds the
   per-key shadow register, and the leader takes the slot's client to
   hold its reply until a majority acks application. *)
let quorum_apply t slot cmd read =
  (if Command.is_write cmd then
     let value =
       match cmd.Command.op with
       | Command.Put (_, v) -> Some v
       | _ -> None
     in
     Abd_round.adopt t.abd (Command.key cmd) ~tag:(slot, 0) value);
  if t.active then begin
    (match Cmd_log.take_client t.log slot with
    | Some client -> Hashtbl.replace t.held slot (client, cmd, read)
    | None -> ());
    Quorum.ack (commit_tracker t slot) t.env.id;
    maybe_release_held t slot
  end
  else begin
    (* A deposed proposer must not ack its recorded client here: the
       write may not be majority-applied yet, and a quorum read could
       miss it. The client's retry reaches the new leader, which
       re-proposes and defers the ack properly. *)
    ignore (Cmd_log.take_client t.log slot);
    if t.ballot.Ballot.round > 0 && t.ballot.Ballot.owner <> t.env.id then
      t.env.send t.ballot.Ballot.owner (CommitAck { slot })
  end

let create env =
  let exec = Executor.create () in
  let t =
    {
      env;
      dev = Option.value env.Proto.storage ~default:Storage.volatile;
      ids = lazy (List.init env.Proto.n Fun.id);
      ballot = Ballot.zero;
      active = false;
      log = Cmd_log.create exec env;
      exec;
      p1 = None;
      pending = Queue.create ();
      last_heard = [| 0.0 |];
      batch_buf = Queue.create ();
      flush_timer = Sim.nil;
      batches = Hashtbl.create 16;
      free = no_batch;
      sizes = Proto.round_sizes env.Proto.config;
      lease = Lease.create env exec;
      lease_epoch = 0;
      lease_sent_at = neg_infinity;
      lease_acks = None;
      abd =
        Abd_round.create ~env
          ~wrap:(fun m -> Read m)
          ~finish:(quorum_read_done env);
      held = Hashtbl.create 32;
      commit_acks = Hashtbl.create 32;
      relay = Relay.create env ~ack:relay_ack;
    }
  in
  (* a relay record is current while it belongs to our ballot *)
  Relay.set_current t.relay (fun a ->
      a.Relay.a_tag = t.ballot.Ballot.round
      && a.Relay.a_leader = t.ballot.Ballot.owner);
  (* lease reads wait for the term's barrier slot to execute *)
  Lease.set_progress t.lease (fun () -> Cmd_log.exec_frontier t.log);
  (* replies hint this replica while it leads *)
  Cmd_log.set_leading t.log (fun () -> t.active);
  if quorum_mode t then Cmd_log.set_apply t.log (quorum_apply t);
  t

let is_leader t = t.active
let current_ballot t = t.ballot
let commit_frontier t = Cmd_log.exec_frontier t.log
let last_proposed_slot t = Cmd_log.next_slot t.log - 1
let executor t = t.exec
let local_reads_served t = Lease.served t.lease
let quorum_reads_served t = Abd_round.completed t.abd
let lease_valid t = Lease.valid t.lease

(* A follower that granted a lease holds its own phase-1 for at least
   the minimum staggered failover timeout (base × 1.5, replica id 0),
   measured on its local clock from heartbeat receipt. The leader's
   serve window runs from the earlier *send* instant on its own clock,
   so with clocks within [margin/2] the serve window ends strictly
   inside every grantor's hold window (DESIGN.md §11). *)
let serve_window t = t.env.config.Config.failover_timeout_ms *. 1.5

let leader_of_key t (_ : Command.key) =
  if t.ballot.Ballot.round > 0 then Some t.ballot.Ballot.owner else None

(* Execute committed slots in order (answering or holding clients),
   then serve the lease reads waiting on the frontier. *)
let advance t =
  Cmd_log.execute t.log;
  Lease.drain t.lease

let commit_up_to t bound = if Cmd_log.commit_below t.log bound then advance t

(* ---- relay trees (Config.relay_groups > 0; DESIGN.md §12) ----
   The leader wraps a phase-2 round in [RelayRound] and multicasts it
   to one relay per rotation group; relays accept locally, fan the
   plain inner round out to their group, and aggregate the group's
   P2bs into one [RelayAck] bitmap. The protocol-independent parts
   live in {!Relay}; paxos keeps its per-round fallback and the
   ballot/slot-range rules. *)

(* The open round at [first_slot], or [no_batch]; no [Some] built. *)
let find_batch t first_slot =
  match Hashtbl.find t.batches first_slot with
  | bs -> bs
  | exception Not_found -> no_batch

(* Is [bs] still this leader's open round [epoch]: same term, and
   neither committed nor abandoned (step-down) since it was posted?
   Late callbacks — an fsync completion, a relay fallback — act only
   on live rounds. *)
let round_live t (bs : batch_state) ~epoch =
  bs.epoch = epoch && t.active
  && Ballot.equal t.ballot bs.bballot
  && find_batch t bs.first == bs

(* A round record leaves [batches]: back to the pool, unless its
   fallback timer is still pending — then the timer's thunk, which
   must not fire on a later round, returns it when it fires. *)
let release t (bs : batch_state) =
  if Sim.is_nil bs.fb then begin
    bs.next_free <- t.free;
    t.free <- bs
  end
  else bs.orphan <- true

(* Abandon every open round (a new term, or a step-down). *)
let drop_batches t =
  Hashtbl.iter (fun _ bs -> release t bs) t.batches;
  Hashtbl.reset t.batches

(* The relayed round was still uncommitted after [Relay.fallback_ms]:
   rotate the plan, open the bypass window, and re-post it direct. *)
let relay_fallback t (bs : batch_state) =
  bs.fb <- Sim.nil;
  if bs.orphan then begin
    bs.orphan <- false;
    release t bs
  end
  else if round_live t bs ~epoch:bs.epoch then begin
    Relay.stall t.relay;
    t.env.rel.settle_all ~key:bs.rkey;
    let first_slot = bs.first in
    let cmds =
      Array.init bs.count (fun i -> Cmd_log.command t.log (first_slot + i))
    in
    (* in place: the storage sync callback finds its round by
       physical identity and epoch *)
    bs.rkey <-
      t.env.rel.post_all
        ?size_bytes:(Proto.round_size t.sizes t.env.config bs.count)
        ~ack:Reliable.Piggyback
        (P2a
           {
             ballot = t.ballot;
             first_slot;
             cmds;
             commit_up_to = Cmd_log.exec_frontier t.log;
           })
  end

(* The relay record for this exact round: same ballot, same range. *)
let relay_record_is ~(ballot : Ballot.t) ~count (a : Relay.agg) =
  a.Relay.a_tag = ballot.Ballot.round
  && a.Relay.a_leader = ballot.Ballot.owner
  && a.Relay.a_aux = count

(* A member's ack arriving at its relay: fold it into the aggregation
   bitmap instead of the (absent) leader-side tracker. Returns [false]
   when the ack is not ours to absorb — the caller runs the normal
   path. *)
let relay_absorb_p2b t ~src ~ballot ~first_slot ~count ~ok =
  (not t.active) && Relay.active t.relay
  &&
  let a = Relay.lookup t.relay first_slot in
  if a == Relay.agg_nil then false
  else if ok && relay_record_is ~ballot ~count a then begin
    Relay.absorb t.relay a ~src;
    true
  end
  else begin
    if (not ok) && a.Relay.a_aux = count then begin
      (* the member knows a higher ballot: relay the nok to the
         round's leader (it must step down), then take the normal nok
         path ourselves *)
      t.env.send a.Relay.a_leader
        (P2b { ballot; first_slot; count; ok = false });
      Relay.drop t.relay a
    end;
    false
  end

(* ---- stable storage (DESIGN.md §14) --------------------------------
   Registers 0/1 hold the durable promised ballot (round, owner); the
   durable log holds every accepted (slot, ballot, command). Acks that
   Paxos safety rests on — the P1b promise, the P2b accept,
   and the leader's own phase-2 vote — wait for the fsync covering
   their records ({!Storage.after}). A memory-only replica runs the
   same code on {!Storage.volatile}, which records nothing and runs
   each ack at once. *)

let write_ballot t (b : Ballot.t) =
  Storage.set_reg t.dev 0 b.Ballot.round;
  Storage.set_reg t.dev 1 b.Ballot.owner

let write_accept t ~slot ~(ballot : Ballot.t) cmd =
  Storage.append t.dev ~index:slot ~a:ballot.Ballot.round
    ~b:ballot.Ballot.owner cmd

let commit_batch t (bs : batch_state) =
  let first_slot = bs.first and count = bs.count in
  Hashtbl.remove t.batches first_slot;
  t.env.rel.settle_all ~key:bs.rkey;
  if not (Sim.is_nil bs.fb) then begin
    t.env.Proto.cancel bs.fb;
    bs.fb <- Sim.nil
  end;
  release t bs;
  for slot = first_slot to first_slot + count - 1 do
    if Cmd_log.commit t.log slot then t.env.obs.Proto.on_quorum ~slot
  done;
  advance t;
  (* quorum-read mode forces the explicit commit broadcast even under
     piggybacking: followers must learn commits promptly, because the
     client's ack is waiting on their CommitAcks *)
  if (not t.env.config.Config.piggyback_commit) || quorum_mode t then
    for slot = first_slot to first_slot + count - 1 do
      if Cmd_log.mem t.log slot then
        t.env.broadcast (Commit { slot; cmd = Cmd_log.command t.log slot })
    done

(* The leader's own phase-2 vote; with [q2 = 1] it alone commits. *)
let self_vote t (bs : batch_state) =
  Quorum.ack bs.tracker t.env.id;
  if Quorum.satisfied bs.tracker then commit_batch t bs

(* A pooled round record reset for a new round, or a fresh one with
   its tracker and fallback thunk. *)
let take_batch t =
  if t.free != no_batch then begin
    let bs = t.free in
    t.free <- bs.next_free;
    bs.next_free <- no_batch;
    Quorum.reset bs.tracker;
    bs.epoch <- bs.epoch + 1;
    bs
  end
  else begin
    let bs =
      {
        no_batch with
        tracker =
          Quorum.create
            (Quorum.Count { members = all_ids t; threshold = q2_size t });
        next_free = no_batch;
      }
    in
    bs.on_fb <- (fun () -> relay_fallback t bs);
    bs.on_vote <-
      (fun epoch () -> if round_live t bs ~epoch then self_vote t bs);
    bs
  end

(* Open the phase-2 round for the already-logged slots [first_slot,
   first_slot + Array.length cmds): a single shared quorum tracker and
   one serialized message per peer whose wire size is the sum of the
   commands' sizes (one [occupy_outgoing], one [t_in] at each
   acceptor). The round goes through the relay tree or to the thrifty
   peers when configured, unless [direct]. The caller casts the
   leader's own vote. *)
let open_round t ~direct first_slot cmds =
  let count = Array.length cmds in
  let size_bytes = Proto.round_size t.sizes t.env.config count in
  let msg =
    P2a
      {
        ballot = t.ballot;
        first_slot;
        cmds;
        commit_up_to = Cmd_log.exec_frontier t.log;
      }
  in
  let bs = take_batch t in
  bs.bballot <- t.ballot;
  bs.first <- first_slot;
  bs.count <- count;
  bs.rkey <- 0;
  (if direct then
     bs.rkey <- t.env.rel.post_all ?size_bytes ~ack:Reliable.Piggyback msg
   else
     let gen = Relay.route t.relay in
     if gen >= 0 then begin
       bs.rkey <-
         t.env.rel.post_multi ?size_bytes ~ack:Reliable.Piggyback
           (Relay.relays t.relay ~gen)
           (RelayRound { gen; inner = msg });
       bs.fb <- t.env.schedule (Relay.fallback_ms t.relay) bs.on_fb
     end
     else
       bs.rkey <-
         (if t.env.config.Config.thrifty then
            t.env.rel.post_multi ?size_bytes ~ack:Reliable.Piggyback
              (phase2_peers t) msg
          else t.env.rel.post_all ?size_bytes ~ack:Reliable.Piggyback msg));
  Hashtbl.replace t.batches first_slot bs;
  bs

(* Log a client command at the next free slot under the current
   ballot; its reply happens as the slot executes in [advance]. *)
let log_command t client (cmd : Command.t) =
  let slot = Cmd_log.next_slot t.log in
  Cmd_log.propose t.log slot ~ballot:t.ballot ~client cmd;
  t.env.obs.Proto.on_propose ~slot ~cmd;
  cmd

(* Phase 2 for freshly logged commands: open the round, then cast the
   leader's vote once the accept records are on disk (by then
   leadership or the round may have moved on). *)
let propose t first_slot cmds =
  let bs = open_round t ~direct:false first_slot cmds in
  for i = 0 to bs.count - 1 do
    write_accept t ~slot:(first_slot + i) ~ballot:bs.bballot cmds.(i)
  done;
  Storage.after t.dev bs.on_vote bs.epoch ()

let flush_batch t =
  t.env.Proto.cancel t.flush_timer;
  t.flush_timer <- Sim.nil;
  if t.active && not (Queue.is_empty t.batch_buf) then begin
    let first_slot = Cmd_log.next_slot t.log in
    let cmds = Array.make (Queue.length t.batch_buf) Command.noop in
    for i = 0 to Array.length cmds - 1 do
      let client, cmd = Queue.pop t.batch_buf in
      cmds.(i) <- log_command t client cmd
    done;
    propose t first_slot cmds
  end

(* Active-leader ingress: propose a round of one immediately, or
   coalesce into the current batch when Config.batching is on. *)
let enqueue t ~client cmd =
  match t.env.config.Config.batching with
  | None ->
      let first_slot = Cmd_log.next_slot t.log in
      propose t first_slot [| log_command t client cmd |]
  | Some b ->
      Queue.push (client, cmd) t.batch_buf;
      if Queue.length t.batch_buf >= b.Config.max_batch then flush_batch t
      else if Sim.is_nil t.flush_timer then
        t.flush_timer <-
          t.env.schedule b.Config.max_wait_ms (fun () ->
              t.flush_timer <- Sim.nil;
              flush_batch t)

let drain_pending t =
  if t.active then
    while not (Queue.is_empty t.pending) do
      let client, cmd = Queue.pop t.pending in
      enqueue t ~client cmd
    done
  else if
    t.ballot.Ballot.round > 0
    && t.ballot.Ballot.owner <> t.env.id
    && t.p1 = None
  then
    while not (Queue.is_empty t.pending) do
      let client, cmd = Queue.pop t.pending in
      t.env.forward t.ballot.Ballot.owner ~client cmd
    done

(* Leaving leadership (or candidacy for it): stop serving lease reads,
   abandon lease-renewal and deferred-ack state, and push queued reads
   back onto [pending] so they are forwarded to the new leader. Held
   write acks are simply dropped — their clients retry, and the new
   leader re-proposes and defers the ack correctly. Every queue and
   table is empty when no read path is configured, so this is a no-op
   for plain runs. *)
let resign_read_path t =
  t.lease_acks <- None;
  Lease.revoke t.lease ~pending:t.pending;
  if Hashtbl.length t.held > 0 then Hashtbl.reset t.held;
  if Hashtbl.length t.commit_acks > 0 then Hashtbl.reset t.commit_acks

(* Once the epoch's grants meet the renewal quorum, serve for a window
   from the beat's send instant. *)
let renew t tracker =
  if Quorum.satisfied tracker then
    Lease.extend t.lease ~until:(t.lease_sent_at +. serve_window t)

(* Start (or renew) the lease alongside the keep-alive heartbeat: each
   beat opens a new epoch whose grants are tracked against a fresh
   quorum. The tracker needs only [q2_size] grants — a set of q2
   refusers blocks every phase-1 quorum of n − q2 + 1 — which makes
   FPaxos lease renewal as cheap as its phase-2. With a renewal quorum
   of one (n = 1, or FPaxos with q2 = 1) the leader's own grant renews
   the lease at once (DESIGN.md §11). *)
let send_heartbeat t =
  if Lease.on t.lease then begin
    t.lease_epoch <- t.lease_epoch + 1;
    t.lease_sent_at <- t.env.now ();
    let tracker =
      Quorum.create (Quorum.Count { members = all_ids t; threshold = q2_size t })
    in
    Quorum.ack tracker t.env.id;
    t.lease_acks <- Some tracker
  end;
  t.env.broadcast
    (Heartbeat
       {
         ballot = t.ballot;
         commit_up_to = Cmd_log.exec_frontier t.log;
         epoch = t.lease_epoch;
       });
  stamp t;
  Option.iter (renew t) t.lease_acks

let on_heartbeat_ack t ~src ~ballot ~epoch =
  if t.active && Ballot.equal ballot t.ballot && epoch = t.lease_epoch then
    match t.lease_acks with
    | Some tracker ->
        Quorum.ack tracker src;
        renew t tracker
    | None -> ()

let on_commit_ack t ~src ~slot =
  if t.active && quorum_mode t then begin
    Quorum.ack (commit_tracker t slot) src;
    maybe_release_held t slot
  end

let become_leader t (state : phase1_state) =
  t.p1 <- None;
  t.active <- true;
  stamp t;
  (* stop re-soliciting promises from stragglers: they will learn the
     ballot from the P2as and heartbeats that follow *)
  t.env.rel.settle_all ~key:state.rkey;
  drop_batches t (* stale rounds from a previous leadership *);
  (* Adopt the highest-ballot command reported for every slot at or
     above our commit frontier, fill gaps with no-ops, re-propose. *)
  let best = Hashtbl.create 16 in
  List.iter
    (fun (slot, b, cmd) ->
      match Hashtbl.find_opt best slot with
      | Some (b', _) when Ballot.(b' >= b) -> ()
      | _ -> Hashtbl.replace best slot (b, cmd))
    state.recovered;
  let max_slot = Hashtbl.fold (fun s _ acc -> Stdlib.max s acc) best (-1) in
  let frontier = Cmd_log.exec_frontier t.log in
  let reopened = ref [] in
  for slot = frontier to max_slot do
    let cmd =
      match Hashtbl.find_opt best slot with
      | Some (_, cmd) -> cmd
      | None -> Command.noop
    in
    (* committed slots keep their state; the rest are re-proposed in a
       round of one per slot, sent straight to every peer *)
    if Cmd_log.accept t.log slot ~ballot:t.ballot cmd then begin
      let bs = open_round t ~direct:true slot [| cmd |] in
      write_accept t ~slot ~ballot:t.ballot cmd;
      reopened := (bs.epoch, bs) :: !reopened
    end
  done;
  (* one fsync covers the new term's ballot and every re-proposed
     accept; the self-votes land, in slot order, when it completes *)
  let rounds = List.rev !reopened in
  write_ballot t t.ballot;
  Storage.sync t.dev (fun () ->
      List.iter (fun (epoch, bs) -> bs.on_vote epoch ()) rounds);
  (* Read barrier: reads wait until everything up to and including the
     recovered tail is applied locally, so no predecessor's
     acknowledged write can be missing from a lease read. *)
  Lease.lead t.lease ~barrier:(Cmd_log.next_slot t.log);
  if Lease.on t.lease then send_heartbeat t;
  drain_pending t

let start_phase1 t =
  t.ballot <- Ballot.next t.ballot ~owner:t.env.id;
  t.active <- false;
  resign_read_path t;
  (* a fresh candidacy obsoletes whatever this replica was still
     retransmitting (an older P1a, stale P2as from lost leadership) *)
  t.env.rel.unpost_all ();
  Relay.reset t.relay;
  let tracker =
    Quorum.create (Quorum.Count { members = all_ids t; threshold = q1_size t })
  in
  let state = { tracker; recovered = []; rkey = t.env.rel.fresh () } in
  t.p1 <- Some state;
  Quorum.ack tracker t.env.id;
  let frontier = Cmd_log.exec_frontier t.log in
  (* self-report own accepted entries *)
  Cmd_log.iter_from t.log ~start:frontier ~f:(fun slot e ->
      state.recovered <- (slot, e.Cmd_log.ballot, e.cmd) :: state.recovered);
  (* with a phase-1 quorum of one (n = 1, or FPaxos with q2 = n) the
     self-promise alone elects us *)
  let solicit () =
    if Quorum.satisfied tracker then become_leader t state
    else
      ignore
        (t.env.rel.post_all ~key:state.rkey ~ack:Reliable.Piggyback
           (P1a { ballot = t.ballot; frontier }))
  in
  (* the candidacy's own implicit promise must be durable before
     anyone else can count on it *)
  let b = t.ballot in
  write_ballot t b;
  Storage.sync t.dev (fun () ->
      match t.p1 with
      | Some s when s == state && Ballot.equal t.ballot b -> solicit ()
      | _ -> () (* candidacy superseded before the fsync *))

let step_down t ~ballot =
  if Ballot.(ballot > t.ballot) then t.ballot <- ballot;
  t.active <- false;
  t.p1 <- None;
  resign_read_path t;
  stamp t;
  (* everything this replica was retransmitting carried the lost
     ballot; the new leader re-proposes whatever survives phase-1 *)
  t.env.rel.unpost_all ();
  Relay.reset t.relay;
  (* abandon in-flight batch rounds; buffered-but-unproposed commands
     go back to [pending] so they are forwarded to the new leader *)
  drop_batches t;
  t.env.Proto.cancel t.flush_timer;
  t.flush_timer <- Sim.nil;
  Queue.transfer t.batch_buf t.pending;
  drain_pending t

(* Client ingress. In quorum-read mode any replica coordinates a read
   as an ABD read round over the shadow registers. Safe because write
   acks are deferred until a majority applied (see
   [advance]/[maybe_release_held]): every acknowledged write is visible
   to every majority the read can draw. *)
let on_request t ~client (cmd : Command.t) =
  if quorum_mode t && Command.is_read cmd then
    Abd_round.start t.abd ~client cmd
  else if t.active then
    if Lease.on t.lease && Command.is_read cmd then
      Lease.read t.lease ~client cmd
    else enqueue t ~client cmd
  else if
    t.ballot.Ballot.round > 0
    && t.ballot.Ballot.owner <> t.env.id
    && t.p1 = None
  then t.env.forward t.ballot.Ballot.owner ~client cmd
  else Queue.push (client, cmd) t.pending

let on_p1a t ~src ~ballot ~frontier =
  (* Lease safety: while our grant to the current leader is live we
     refuse to promise any other candidate — this is what blocks a new
     leader from forming inside the grantee's serve window. The nok
     is harmless to liveness: the candidate's reliable-delivery layer
     retransmits the P1a and the promise succeeds after expiry. *)
  let lease_blocks = Lease.refuses t.lease ballot.Ballot.owner in
  (* Promise not only strictly higher ballots but also the exact
     ballot we already hold when [src] owns it: we may have adopted it
     from a nok P2b or a duplicate (retransmitted) P1a before this
     copy arrived, and the promise is idempotent. Refusing would make
     a retransmitted P1a elicit nok forever after its P1b was lost. *)
  if
    (not lease_blocks)
    && (Ballot.(ballot > t.ballot)
       || (Ballot.equal ballot t.ballot && ballot.Ballot.owner = src))
  then begin
    t.ballot <- ballot;
    t.active <- false;
    t.p1 <- None;
    resign_read_path t;
    stamp t;
    let accepted = ref [] in
    Cmd_log.iter_from t.log ~start:frontier ~f:(fun slot e ->
        accepted := (slot, e.Cmd_log.ballot, e.cmd) :: !accepted);
    (* the promise binds across crashes: it leaves only after the
       promised ballot is on disk *)
    write_ballot t ballot;
    Storage.after t.dev t.env.send src
      (P1b { ballot; ok = true; accepted = !accepted });
    drain_pending t
  end
  else t.env.send src (P1b { ballot = t.ballot; ok = false; accepted = [] })

let on_p1b t ~src ~ballot ~ok ~accepted =
  match t.p1 with
  | Some state when Ballot.equal ballot t.ballot && ok ->
      t.env.rel.settle ~dst:src ~key:state.rkey;
      state.recovered <- accepted @ state.recovered;
      Quorum.ack state.tracker src;
      if Quorum.satisfied state.tracker then become_leader t state
  | Some _ when Ballot.(ballot > t.ballot) -> step_down t ~ballot
  | _ -> ()

(* Acceptor-side adoption of a phase-2 round, shared by the direct
   path (reply with ONE P2b covering the whole range) and the relay
   path (the relay accepts silently and folds its own vote into the
   aggregated bitmap). Returns [true] when the round was accepted at
   [ballot]. *)
let accept_p2a t ~ballot ~first_slot ~cmds ~commit_up_to:bound =
  if Ballot.(ballot >= t.ballot) then begin
    t.ballot <- ballot;
    if ballot.Ballot.owner <> t.env.id then begin
      if t.active then resign_read_path t;
      t.active <- false;
      t.p1 <- None
    end;
    stamp t;
    for i = 0 to Array.length cmds - 1 do
      ignore (Cmd_log.accept t.log (first_slot + i) ~ballot cmds.(i))
    done;
    write_ballot t ballot;
    for i = 0 to Array.length cmds - 1 do
      write_accept t ~slot:(first_slot + i) ~ballot cmds.(i)
    done;
    commit_up_to t bound;
    true
  end
  else false

let on_p2a t ~src ~ballot ~first_slot ~cmds ~commit_up_to =
  let count = Array.length cmds in
  if accept_p2a t ~ballot ~first_slot ~cmds ~commit_up_to then begin
    (* the accept vote leaves only after its records are durable *)
    Storage.after t.dev t.env.send src
      (P2b { ballot; first_slot; count; ok = true });
    drain_pending t
  end
  else t.env.send src (P2b { ballot = t.ballot; first_slot; count; ok = false })

(* Relay ingress: accept the inner round locally and start
   aggregating its group's acks (members reply to us, not the leader).
   A duplicate wrapper — the leader is retransmitting because our ack
   or some member's copy got lost — re-sends the completed ack, or
   re-fans to the members whose bits are still clear. *)
let on_relay_round t ~src ~gen ~inner =
  match inner with
  | P2a { ballot; first_slot; cmds; commit_up_to } ->
      let count = Array.length cmds in
      let size_bytes = count * t.env.config.Config.msg_size_bytes in
      let a = Relay.lookup t.relay first_slot in
      if a != Relay.agg_nil && relay_record_is ~ballot ~count a then
        Relay.resend t.relay a ~size_bytes inner
      else if not (accept_p2a t ~ballot ~first_slot ~cmds ~commit_up_to) then
        (* we know a higher ballot: nok straight back to the leader,
           exactly as the direct path would *)
        t.env.send src (P2b { ballot = t.ballot; first_slot; count; ok = false })
      else begin
        if
          not
            (Relay.start t.relay ~key:first_slot ~leader:ballot.Ballot.owner
               ~gen ~tag:ballot.Ballot.round ~aux:count
               ~mark:(Cmd_log.exec_frontier t.log) ~size_bytes inner)
        then
          (* not a relay under this plan (the round raced a plan
             rotation): behave like a plain acceptor *)
          t.env.send src (P2b { ballot; first_slot; count; ok = true });
        drain_pending t
      end
  | _ -> ()

let on_p2b t ~src ~ballot ~first_slot ~count ~ok =
  if relay_absorb_p2b t ~src ~ballot ~first_slot ~count ~ok then ()
  else if ok && t.active && Ballot.equal ballot t.ballot then begin
    let bs = find_batch t first_slot in
    if bs != no_batch && bs.count = count && Ballot.equal bs.bballot ballot
    then begin
      t.env.rel.settle ~dst:src ~key:bs.rkey;
      Quorum.ack bs.tracker src;
      if Quorum.satisfied bs.tracker then commit_batch t bs
    end
  end
  else if (not ok) && Ballot.(ballot > t.ballot) then step_down t ~ballot

(* Leader ingress of an aggregated ack: translate bitmap positions
   back to replica ids through the shared plan and feed the round's
   quorum tracker — quorum accounting is exactly as if each member
   had replied directly. The relay's reliable post settles only on a
   FULL group bitmap: a partial flush keeps the wrapper
   retransmitting, which is what re-prods the relay to re-fan to its
   silent members. *)
let on_relay_ack t ~src ~round ~owner ~gen ~first_slot ~count ~bits =
  if
    t.active && Relay.active t.relay
    && round = t.ballot.Ballot.round
    && owner = t.ballot.Ballot.owner
  then begin
    let group = Relay.relay_group t.relay ~src ~gen in
    let bs = find_batch t first_slot in
    if
      Array.length group > 0
      && bs != no_batch && bs.count = count
      && Ballot.equal bs.bballot t.ballot
    then begin
      if Relay.covers group ~bits then t.env.rel.settle ~dst:src ~key:bs.rkey;
      for i = 0 to Array.length group - 1 do
        if Relay.acked ~bits i then Quorum.ack bs.tracker group.(i)
      done;
      if Quorum.satisfied bs.tracker then commit_batch t bs
    end
  end

let on_commit t ~slot ~cmd =
  Cmd_log.learn t.log slot ~ballot:t.ballot cmd;
  advance t

let on_heartbeat t ~src ~ballot ~commit_up_to:bound ~epoch =
  if Ballot.(ballot >= t.ballot) then begin
    t.ballot <- ballot;
    if ballot.Ballot.owner <> t.env.id then begin
      if t.active then resign_read_path t;
      t.active <- false
    end;
    stamp t;
    (* Accepting the beat is the lease grant: promise not to help any
       other candidate for a serve window, and tell the leader so. The
       grant is renewed wholesale, every window/6. *)
    if Lease.on t.lease && ballot.Ballot.owner <> t.env.id then begin
      Lease.grant t.lease ~holder:ballot.Ballot.owner ~window:(serve_window t);
      t.env.send src (HeartbeatAck { ballot; epoch })
    end;
    commit_up_to t bound;
    drain_pending t
  end

let on_message t ~src msg =
  match msg with
  | P1a { ballot; frontier } -> on_p1a t ~src ~ballot ~frontier
  | P1b { ballot; ok; accepted } -> on_p1b t ~src ~ballot ~ok ~accepted
  | P2a { ballot; first_slot; cmds; commit_up_to } ->
      on_p2a t ~src ~ballot ~first_slot ~cmds ~commit_up_to
  | P2b { ballot; first_slot; count; ok } ->
      on_p2b t ~src ~ballot ~first_slot ~count ~ok
  | Commit { slot; cmd } -> on_commit t ~slot ~cmd
  | Heartbeat { ballot; commit_up_to; epoch } ->
      on_heartbeat t ~src ~ballot ~commit_up_to ~epoch
  | HeartbeatAck { ballot; epoch } -> on_heartbeat_ack t ~src ~ballot ~epoch
  | CommitAck { slot } -> on_commit_ack t ~src ~slot
  | Read m -> Abd_round.on_message t.abd ~src m
  | RelayRound { gen; inner } -> on_relay_round t ~src ~gen ~inner
  | RelayAck { round; owner; gen; first_slot; count; bits } ->
      on_relay_ack t ~src ~round ~owner ~gen ~first_slot ~count ~bits

let rec heartbeat_loop t =
  let period = t.env.config.Config.failover_timeout_ms /. 4.0 in
  ignore
  @@ t.env.schedule period (fun () ->
         (* Lost P2a/P2b recovery now lives in the reliable-delivery
            layer (each phase-2 post retransmits on its own backoff
            timer until acked) — the beat is a pure keep-alive plus
            commit-frontier carrier, and in lease mode also the lease
            renewal round. *)
         if t.active then send_heartbeat t;
         heartbeat_loop t)

let rec failover_loop t =
  (* Stagger timeouts by id so the lowest live replica usually wins. *)
  let base = t.env.config.Config.failover_timeout_ms in
  let timeout = base *. (1.5 +. (0.5 *. float_of_int t.env.id)) in
  ignore
  @@ t.env.schedule (base /. 2.0) (fun () ->
         if
           (not t.active) && t.p1 = None
           && t.env.now () -. t.last_heard.(0) > timeout
         then start_phase1 t;
         failover_loop t)

let on_start t =
  stamp t;
  if t.env.id = 0 then start_phase1 t;
  heartbeat_loop t;
  failover_loop t

(* Boot a FRESH replica instance from durable state after a crash
   (the cluster engine swaps instances at the recovery edge). By
   construction everything volatile is gone — leadership, phase-1
   progress, leases, batches, client continuations. Only the promised
   ballot (registers 0/1) and the accepted log survive; commits and
   the KV image are re-derived as the replica re-learns the commit
   frontier from the incumbent leader (or re-runs phase 1 itself on
   failover timeout — a recovered leader never resumes its old term). *)
let on_recover t =
  let round = Storage.reg t.dev 0 and owner = Storage.reg t.dev 1 in
  if round > 0 then t.ballot <- { Ballot.round; owner };
  Storage.iter_entries t.dev ~f:(fun slot ~a ~b cmd ->
      let ballot = { Ballot.round = a; owner = b } in
      ignore (Cmd_log.accept t.log slot ~ballot cmd));
  stamp t;
  heartbeat_loop t;
  failover_loop t
