(* Stable storage and crash recovery (PR 10): device semantics
   (durability at fsync completion, group commit, crash losing the
   unsynced tail), case by case and against a list model over random
   programs, the timer ownership registry, slot-log truncation,
   executor snapshot images, raft threshold snapshots and
   InstallSnapshot catch-up, fixed-seed crash-recover pins for
   paxos/raft, and the sync=none byte-identity pin. *)

open Paxi_benchmark
module Schedule = Paxi_nemesis.Schedule
module Trial = Paxi_nemesis.Trial
module Paxos = Paxi_protocols.Paxos
module Raft = Paxi_protocols.Raft

let durable_every =
  { Storage.default_config with Storage.sync_mode = Storage.Sync_every }

let durable_with ?(threshold = 0) mode =
  {
    Storage.default_config with
    Storage.sync_mode = mode;
    snapshot_threshold = threshold;
  }

(* ------------------------------------------------------------------ *)
(* Storage device                                                      *)
(* ------------------------------------------------------------------ *)

let make_storage ?(mode = Storage.Sync_every) () =
  let sim = Sim.create ~seed:1 () in
  (* a crash domain that is never cancelled *)
  let st =
    Storage.create ~config:(durable_with mode) ~sim ~timers:(Timers.create sim)
  in
  (sim, st)

let cmd id = Command.make ~id ~client:0 (Command.Put (id, id))
let append st i = Storage.append st ~index:i ~a:1 ~b:0 (cmd i)
let fsyncs st = (Storage.totals st).Storage.fsyncs

let test_durable_only_at_fsync_completion () =
  let sim, st = make_storage () in
  let acked = ref false in
  Storage.set_reg st 0 7;
  append st 0;
  Storage.sync st (fun () -> acked := true);
  (* nothing is durable, and no ack has fired, before the device
     finishes the fsync *)
  Alcotest.(check bool) "ack waits for the device" false !acked;
  Alcotest.(check int) "register not durable yet" 0 (Storage.reg st 0);
  Alcotest.(check int) "entry not durable yet" 0 (Storage.durable_entries st);
  Sim.run_until sim 10.0;
  Alcotest.(check bool) "ack after fsync completion" true !acked;
  Alcotest.(check int) "register durable" 7 (Storage.reg st 0);
  Alcotest.(check int) "entry durable" 1 (Storage.durable_entries st);
  Alcotest.(check int) "one fsync" 1 (fsyncs st)

let test_crash_loses_unsynced_tail () =
  let sim, st = make_storage () in
  let acked = ref false in
  Storage.set_reg st 0 3;
  Storage.sync st (fun () -> acked := true);
  Sim.run_until sim 10.0;
  Alcotest.(check int) "first write durable" 3 (Storage.reg st 0);
  (* a second write crashes before its fsync completes: the durable
     image keeps the old value, the continuation never runs, and the
     loss is counted *)
  let late = ref false in
  Storage.set_reg st 0 9;
  append st 0;
  Storage.sync st (fun () -> late := true);
  Storage.crash st;
  Sim.run_until sim 20.0;
  Alcotest.(check bool) "stale completion suppressed" false !late;
  Alcotest.(check int) "register kept the durable value" 3 (Storage.reg st 0);
  Alcotest.(check int) "entry lost with the tail" 0 (Storage.durable_entries st);
  Alcotest.(check bool) "losses counted" true
    ((Storage.totals st).Storage.lost_writes >= 2);
  Alcotest.(check bool) "ack survived from before" true !acked

let test_batched_group_commit () =
  let sim, st = make_storage ~mode:Storage.Sync_batched () in
  let acks = ref 0 in
  for i = 0 to 2 do
    append st i;
    Storage.sync st (fun () -> incr acks)
  done;
  Sim.run_until sim 10.0;
  (* three syncs inside one open window share a single fsync *)
  Alcotest.(check int) "one group-commit fsync" 1 (fsyncs st);
  Alcotest.(check int) "all three acks fired" 3 !acks;
  Alcotest.(check int) "all three durable" 3 (Storage.durable_entries st)

let test_sync_none_is_synchronous () =
  let sim, st = make_storage ~mode:Storage.Sync_none () in
  let acked = ref false in
  Storage.set_reg st 0 5;
  Storage.sync st (fun () -> acked := true);
  (* no events, no clock movement, durable immediately *)
  Alcotest.(check bool) "ack ran inline" true !acked;
  Alcotest.(check int) "durable immediately" 5 (Storage.reg st 0);
  Alcotest.(check int) "no fsyncs" 0 (fsyncs st);
  Alcotest.(check (float 0.0)) "clock untouched" 0.0 (Sim.now sim)

let test_snapshot_truncate_and_replay_cost () =
  let sim, st = make_storage () in
  for i = 0 to 9 do
    append st i
  done;
  Storage.sync st ignore;
  Sim.run_until sim 10.0;
  let full_replay = Storage.replay_cost_ms st in
  Alcotest.(check bool) "replay scales with the log" true (full_replay > 0.0);
  Storage.write_snapshot st ~last_index:6 ~a:1 [| cmd 0 |];
  Storage.truncate st ~upto:6;
  Storage.sync st ignore;
  Sim.run_until sim 20.0;
  Alcotest.(check int) "base rose to the snapshot" 6 (Storage.log_base st);
  Alcotest.(check int) "retained suffix" 4 (Storage.durable_entries st);
  (match Storage.snapshot st with
  | Some (last, term, image) ->
      Alcotest.(check int) "snapshot frontier" 6 last;
      Alcotest.(check int) "snapshot term" 1 term;
      Alcotest.(check int) "image length" 1 (Array.length image)
  | None -> Alcotest.fail "snapshot not durable");
  let seen = ref [] in
  Storage.iter_entries st ~f:(fun slot ~a:_ ~b:_ _ -> seen := slot :: !seen);
  Alcotest.(check (list int)) "iterates the retained suffix in order"
    [ 6; 7; 8; 9 ] (List.rev !seen);
  Alcotest.(check bool) "truncation cut the replay bill" true
    (Storage.replay_cost_ms st < full_replay)

(* ------------------------------------------------------------------ *)
(* Device against a list model                                         *)
(* ------------------------------------------------------------------ *)

(* Random programs over every device operation, run on the real device
   (through [make_storage]'s untracked scheduler, so completions
   scheduled before a crash really do fire) and on a list model of the
   device semantics: the records an fsync covers become durable when it
   completes, in write order, and then its continuations run in sync
   order. Every observable is compared after every step. *)

type step =
  | Set_reg of int * int
  | Append of int * int * int
  | Trunc of int
  | Snap of int * int * int
  | Sync
  | Crash
  | Advance of float

let pp_step = function
  | Set_reg (i, v) -> Printf.sprintf "set_reg %d %d" i v
  | Append (i, a, b) -> Printf.sprintf "append %d %d %d" i a b
  | Trunc u -> Printf.sprintf "truncate %d" u
  | Snap (l, a, n) -> Printf.sprintf "snapshot %d %d [%d]" l a n
  | Sync -> "sync"
  | Crash -> "crash"
  | Advance d -> Printf.sprintf "advance %g" d

let gen_step =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun i v -> Set_reg (i, v)) (int_bound 5) (int_bound 99));
        ( 6,
          map3 (fun i a b -> Append (i, a, b)) (int_bound 600) (int_bound 9)
            (int_bound 9) );
        (1, map (fun u -> Trunc u) (int_bound 600));
        ( 1,
          map3 (fun l a n -> Snap (l, a, n)) (int_bound 600) (int_bound 9)
            (int_bound 3) );
        (4, return Sync);
        (1, return Crash);
        ( 3,
          map (fun d -> Advance d)
            (oneofl [ 0.05; 0.1; 0.2; 0.25; 0.5; 1.0; 3.0 ]) );
      ])

let arb_program =
  QCheck.make
    ~print:(fun p -> String.concat "; " (List.map pp_step p))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 200) gen_step)

type mrecord =
  | MReg of int * int
  | MEntry of int * (int * int * int)
  | MTrunc of int
  | MSnap of int * int * int list

type mevent = Flush | Complete of mrecord list * int list

type model = {
  mutable now : float;
  mutable regs : (int * int) list;
  mutable log : (int * (int * int * int)) list; (* slot -> (a, b, cmd id) *)
  mutable base : int;
  mutable top : int;
  mutable snap : (int * int * int list) option;
  mutable pending : mrecord list; (* unsynced, oldest first *)
  mutable waiters : int list; (* batched window, oldest first *)
  mutable flush_armed : bool;
  mutable events : (float * int * mevent) list; (* (time, seq, event) *)
  mutable seq : int;
  mutable busy_until : float;
  mutable in_flight : int;
  mutable fsyncs : int;
  mutable lost : int;
  mutable fired : int list; (* continuation ids, newest first *)
}

let model_apply m = function
  | MReg (i, v) -> m.regs <- (i, v) :: List.remove_assoc i m.regs
  | MEntry (i, e) ->
      if i >= m.base then begin
        m.log <- (i, e) :: List.remove_assoc i m.log;
        if i >= m.top then m.top <- i + 1
      end
  | MTrunc u ->
      if u > m.base then begin
        m.log <- List.filter (fun (i, _) -> i >= u) m.log;
        m.base <- u;
        if m.top < u then m.top <- u
      end
  | MSnap (l, a, image) -> m.snap <- Some (l, a, image)

let model_schedule m delay ev =
  m.events <- m.events @ [ (m.now +. Float.max 0.0 delay, m.seq, ev) ];
  m.seq <- m.seq + 1

let model_fsync (c : Storage.config) m ks =
  let ops = m.pending in
  m.pending <- [];
  let done_at = Float.max m.now m.busy_until +. c.Storage.fsync_ms in
  m.busy_until <- done_at;
  m.fsyncs <- m.fsyncs + 1;
  m.in_flight <- m.in_flight + List.length ops;
  model_schedule m (done_at -. m.now) (Complete (ops, ks))

let model_sync (c : Storage.config) m id =
  match c.Storage.sync_mode with
  | Storage.Sync_none ->
      List.iter (model_apply m) m.pending;
      m.pending <- [];
      m.fired <- id :: m.fired
  | Storage.Sync_every -> model_fsync c m [ id ]
  | Storage.Sync_batched ->
      m.waiters <- m.waiters @ [ id ];
      if not m.flush_armed then begin
        m.flush_armed <- true;
        model_schedule m c.Storage.batch_window_ms Flush
      end

let model_crash m =
  m.lost <- m.lost + List.length m.pending + m.in_flight;
  m.pending <- [];
  m.in_flight <- 0;
  m.waiters <- [];
  m.flush_armed <- false;
  m.events <- [];
  m.busy_until <- m.now

(* Fire events up to [horizon] in (time, schedule order), like
   [Sim.run_until]. *)
let rec model_advance c m horizon =
  let next =
    List.fold_left
      (fun acc ((at, seq, _) as e) ->
        match acc with
        | Some (at', seq', _) when (at', seq') <= (at, seq) -> acc
        | _ -> Some e)
      None m.events
  in
  match next with
  | Some ((at, _, ev) as e) when at <= horizon ->
      m.events <- List.filter (fun e' -> e' != e) m.events;
      m.now <- at;
      (match ev with
      | Flush ->
          m.flush_armed <- false;
          let ks = m.waiters in
          m.waiters <- [];
          model_fsync c m ks
      | Complete (ops, ks) ->
          m.in_flight <- m.in_flight - List.length ops;
          List.iter (model_apply m) ops;
          m.fired <- List.rev_append ks m.fired);
      model_advance c m horizon
  | _ -> if horizon > m.now then m.now <- horizon

let image_of n = Array.init n cmd

let run_program mode program =
  let c = durable_with mode in
  let sim, st = make_storage ~mode () in
  let m =
    {
      now = 0.0;
      regs = [];
      log = [];
      base = 0;
      top = 0;
      snap = None;
      pending = [];
      waiters = [];
      flush_armed = false;
      events = [];
      seq = 0;
      busy_until = 0.0;
      in_flight = 0;
      fsyncs = 0;
      lost = 0;
      fired = [];
    }
  in
  let fired = ref [] and doomed = ref [] and outstanding = ref [] in
  let check n step =
    let fail what =
      QCheck.Test.fail_reportf "step %d (%s): %s differs from the model" n
        (pp_step step) what
    in
    for i = 0 to 5 do
      let v = try List.assoc i m.regs with Not_found -> 0 in
      if Storage.reg st i <> v then fail (Printf.sprintf "register %d" i)
    done;
    let entries = ref [] in
    Storage.iter_entries st ~f:(fun slot ~a ~b cmd ->
        entries := (slot, (a, b, cmd.Command.id)) :: !entries);
    if List.rev !entries <> List.sort compare m.log then fail "iter_entries";
    if Storage.durable_entries st <> List.length m.log then
      fail "durable_entries";
    if Storage.log_base st <> m.base then fail "log_base";
    if Storage.log_top st <> m.top then fail "log_top";
    let snap =
      Option.map
        (fun (l, a, image) ->
          (l, a, Array.to_list (Array.map (fun c -> c.Command.id) image)))
        (Storage.snapshot st)
    in
    if snap <> m.snap then fail "snapshot";
    let totals = Storage.totals st in
    if totals.Storage.lost_writes <> m.lost then fail "lost_writes";
    if totals.Storage.fsyncs <> m.fsyncs then fail "fsyncs";
    if
      Storage.replay_cost_ms st
      <> c.Storage.replay_ms_per_cmd *. float_of_int (List.length m.log)
    then fail "replay_cost_ms";
    if !fired <> m.fired then fail "continuation order";
    if List.exists (fun id -> List.mem id !doomed) !fired then
      fail "continuation issued before a crash fired"
  in
  List.iteri
    (fun n step ->
      (match step with
      | Set_reg (i, v) ->
          Storage.set_reg st i v;
          m.pending <- m.pending @ [ MReg (i, v) ]
      | Append (i, a, b) ->
          Storage.append st ~index:i ~a ~b (cmd i);
          m.pending <- m.pending @ [ MEntry (i, (a, b, i)) ]
      | Trunc u ->
          Storage.truncate st ~upto:u;
          m.pending <- m.pending @ [ MTrunc u ]
      | Snap (l, a, k) ->
          Storage.write_snapshot st ~last_index:l ~a (image_of k);
          m.pending <- m.pending @ [ MSnap (l, a, List.init k Fun.id) ]
      | Sync ->
          outstanding := n :: !outstanding;
          Storage.sync st (fun () -> fired := n :: !fired);
          model_sync c m n
      | Crash ->
          doomed :=
            List.filter (fun id -> not (List.mem id !fired)) !outstanding
            @ !doomed;
          Storage.crash st;
          model_crash m
      | Advance d ->
          let horizon = Sim.now sim +. d in
          Sim.run_until sim horizon;
          model_advance c m horizon);
      check n step)
    program;
  true

let prop_device_matches_model mode =
  QCheck.Test.make
    ~name:("device matches list model, sync " ^ Storage.mode_to_string mode)
    ~count:200 arb_program (run_program mode)

(* ------------------------------------------------------------------ *)
(* Timer ownership registry                                            *)
(* ------------------------------------------------------------------ *)

let test_timers_cancel_all () =
  let sim = Sim.create ~seed:1 () in
  let tm = Timers.create sim in
  let fired = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Timers.track tm (Sim.schedule_after sim ~delay:10.0 (fun () -> incr fired)))
  done;
  Alcotest.(check int) "five live" 5 (Timers.live_count tm);
  Timers.cancel_all tm;
  Sim.run_until sim 100.0;
  Alcotest.(check int) "none fired" 0 !fired;
  Alcotest.(check int) "five cancelled" 5 (Timers.cancelled_total tm);
  Alcotest.(check int) "registry empty" 0 (Timers.live_count tm)

let test_timers_generation_guard () =
  (* Regression: a tracked handle whose event already fired must go
     stale — if the heap slot is reused by a fresh (untracked) event,
     a later crash-edge [cancel_all] must not shoot it down. The
     simulator's (generation, slot) handles carry the guard; this
     pins it through the registry. *)
  let sim = Sim.create ~seed:1 () in
  let tm = Timers.create sim in
  ignore (Timers.track tm (Sim.schedule_after sim ~delay:1.0 ignore));
  Sim.run_until sim 5.0;
  (* the tracked event fired; new untracked events may reuse its slot *)
  let fresh_fired = ref 0 in
  for _ = 1 to 8 do
    ignore (Sim.schedule_after sim ~delay:10.0 (fun () -> incr fresh_fired))
  done;
  Timers.cancel_all tm;
  Alcotest.(check int) "stale handle not cancelled" 0
    (Timers.cancelled_total tm);
  Sim.run_until sim 100.0;
  Alcotest.(check int) "untracked events untouched" 8 !fresh_fired

(* ------------------------------------------------------------------ *)
(* Slot-log truncation                                                 *)
(* ------------------------------------------------------------------ *)

let test_slot_log_truncate () =
  let log = Slot_log.create () in
  let cmd i = Command.make ~id:i ~client:0 (Command.Put (i, i)) in
  for i = 0 to 9 do
    Slot_log.set log i ~meta:i (cmd i)
  done;
  Slot_log.truncate log ~upto:5;
  Alcotest.(check int) "base rose" 5 (Slot_log.base log);
  Alcotest.(check int) "next_slot unchanged" 10 (Slot_log.next_slot log);
  Alcotest.(check bool) "discarded slot reads empty" false
    (Slot_log.mem log 3);
  Alcotest.(check int) "retained slot survives" 7 (Slot_log.meta log 7);
  Alcotest.(check bool) "frontier at least the base" true
    (Slot_log.exec_frontier log >= 5);
  (* writes below the base are ignored, and truncation never regresses *)
  Slot_log.set log 2 ~meta:99 (cmd 99);
  Alcotest.(check bool) "set below base ignored" false (Slot_log.mem log 2);
  Slot_log.truncate log ~upto:3;
  Alcotest.(check int) "truncate below base is a no-op" 5 (Slot_log.base log);
  let seen = ref [] in
  Slot_log.iter_from log ~start:0 ~f:(fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "iter covers the retained suffix"
    [ 5; 6; 7; 8; 9 ] (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Executor snapshot images                                            *)
(* ------------------------------------------------------------------ *)

let test_executor_image_install () =
  let e = Executor.create () in
  let c0 = Command.make ~id:0 ~client:0 (Command.Put (1, 10)) in
  let c1 = Command.make ~id:1 ~client:0 (Command.Put (2, 20)) in
  let c2 = Command.make ~id:2 ~client:1 (Command.Delete 1) in
  List.iter (fun c -> ignore (Executor.execute e c)) [ c0; c1; c2 ];
  ignore (Executor.execute e Command.noop);
  let img = Executor.image e in
  (* no-ops never enter the image *)
  Alcotest.(check int) "image holds the applied prefix" 3 (Array.length img);
  let e' = Executor.create () in
  Executor.install e' img;
  Alcotest.(check int) "replayed count" (Executor.executed_count e)
    (Executor.executed_count e');
  Alcotest.(check bool) "memo table rebuilt" true
    (Executor.already_executed e' c1);
  let read k =
    Executor.read e' (Command.make ~id:99 ~client:9 (Command.Get k))
  in
  Alcotest.(check (option int)) "store value replayed" (Some 20) (read 2);
  Alcotest.(check (option int)) "delete replayed" None (read 1)

(* ------------------------------------------------------------------ *)
(* Fixed-seed crash-recover pins (direct cluster)                      *)
(* ------------------------------------------------------------------ *)

module CP = Cluster.Make (Paxos)
module CR = Cluster.Make (Raft)

(* One closed-loop client with a rotating-target retry loop — enough
   to keep commits flowing across a crash window without the full
   benchmark Runner. *)
let drive ~sim ~submit ~pending ~horizon_ms =
  let completed = ref 0 in
  let next_id = ref 0 in
  let rec issue () =
    if Sim.now sim < horizon_ms -. 200.0 then begin
      let id = !next_id in
      incr next_id;
      let command = Command.make ~id ~client:0 (Command.Put (id mod 7, id)) in
      let rec attempt target =
        submit ~target ~command ~on_reply:(fun _ ->
            incr completed;
            issue ());
        ignore
          (Sim.schedule_after sim ~delay:150.0 (fun () ->
               if pending ~command then attempt ((target + 1) mod 5)))
      in
      attempt 0
    end
  in
  issue ();
  Sim.run_until sim horizon_ms;
  !completed

let crash_leader_schedule =
  [ Schedule.Crash { node = 0; from_ms = 300.0; duration_ms = 600.0 } ]

let consensus_clean name sms =
  let violations =
    Consensus_check.check ~state_machines:sms ~keys:(List.init 7 Fun.id)
  in
  List.iter
    (fun v ->
      Format.printf "%s divergence: %a@." name Consensus_check.pp_violation v)
    violations;
  Alcotest.(check int) (name ^ " consensus clean") 0 (List.length violations)

let test_paxos_crash_recovery_pin () =
  let faults = Faults.create () in
  Schedule.install crash_leader_schedule ~n:5 faults;
  let config =
    {
      (Config.default ~n_replicas:5) with
      Config.seed = 42;
      storage = Some durable_every;
    }
  in
  let cluster =
    CP.create ~faults ~config ~topology:(Topology.lan ~n_replicas:5 ()) ()
  in
  let sim = CP.sim cluster in
  CP.register_client cluster ~id:0 ();
  let completed =
    drive ~sim
      ~submit:(fun ~target ~command ~on_reply ->
        CP.submit cluster ~client:0 ~target ~command ~on_reply)
      ~pending:(fun ~command -> CP.pending cluster ~client:0 ~command)
      ~horizon_ms:3_000.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "progress across the crash (%d)" completed)
    true (completed > 100);
  Alcotest.(check int) "exactly one recovery edge" 1 (CP.recoveries cluster);
  Alcotest.(check bool) "replay time charged" true
    (CP.replay_ms_total cluster > 0.0);
  Alcotest.(check bool) "crash cancelled pending timers" true
    (CP.timers_cancelled cluster > 0);
  let totals = CP.storage_totals cluster in
  Alcotest.(check bool) "storage exercised" true
    (totals.Storage.writes > 0 && totals.Storage.fsyncs > 0);
  Alcotest.(check bool) "device time accrued" true
    (totals.Storage.busy_ms > 0.0);
  (* The recovered node 0 lost the leadership it booted with; whoever
     leads at the end re-won it through phase 1 under a strictly
     higher ballot — pause-not-crash would have resumed round 1. *)
  let leaders =
    List.filter
      (fun i -> Paxos.is_leader (CP.replica cluster i))
      (List.init 5 Fun.id)
  in
  Alcotest.(check int) "one stable leader at the end" 1 (List.length leaders);
  let b = Paxos.current_ballot (CP.replica cluster (List.hd leaders)) in
  Alcotest.(check bool)
    (Printf.sprintf "leadership re-won via phase 1 (round %d)" b.Ballot.round)
    true (b.Ballot.round >= 2);
  consensus_clean "paxos crash-recover"
    (List.init 5 (fun i ->
         (i, Executor.state_machine (Paxos.executor (CP.replica cluster i)))))

let test_raft_crash_recovery_pin () =
  let faults = Faults.create () in
  Schedule.install crash_leader_schedule ~n:5 faults;
  let config =
    {
      (Config.default ~n_replicas:5) with
      Config.seed = 42;
      storage = Some durable_every;
    }
  in
  let cluster =
    CR.create ~faults ~config ~topology:(Topology.lan ~n_replicas:5 ()) ()
  in
  let sim = CR.sim cluster in
  CR.register_client cluster ~id:0 ();
  let completed =
    drive ~sim
      ~submit:(fun ~target ~command ~on_reply ->
        CR.submit cluster ~client:0 ~target ~command ~on_reply)
      ~pending:(fun ~command -> CR.pending cluster ~client:0 ~command)
      ~horizon_ms:3_000.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "progress across the crash (%d)" completed)
    true (completed > 100);
  Alcotest.(check int) "exactly one recovery edge" 1 (CR.recoveries cluster);
  Alcotest.(check bool) "replay time charged" true
    (CR.replay_ms_total cluster > 0.0);
  Alcotest.(check bool) "crash cancelled pending timers" true
    (CR.timers_cancelled cluster > 0);
  consensus_clean "raft crash-recover"
    (List.init 5 (fun i ->
         (i, Executor.state_machine (Raft.executor (CR.replica cluster i)))))

(* A follower crashes while the leader compacts its log past the
   follower's durable suffix: catch-up can only happen through
   InstallSnapshot, so converged state machines prove the install and
   truncation paths end to end. *)
let test_raft_snapshot_install () =
  let faults = Faults.create () in
  Schedule.install
    [ Schedule.Crash { node = 4; from_ms = 200.0; duration_ms = 1_500.0 } ]
    ~n:5 faults;
  let config =
    {
      (Config.default ~n_replicas:5) with
      Config.seed = 42;
      storage = Some (durable_with ~threshold:10 Storage.Sync_every);
    }
  in
  let cluster =
    CR.create ~faults ~config ~topology:(Topology.lan ~n_replicas:5 ()) ()
  in
  let sim = CR.sim cluster in
  CR.register_client cluster ~id:0 ();
  let completed =
    drive ~sim
      ~submit:(fun ~target ~command ~on_reply ->
        CR.submit cluster ~client:0 ~target ~command ~on_reply)
      ~pending:(fun ~command -> CR.pending cluster ~client:0 ~command)
      ~horizon_ms:4_000.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "progress (%d)" completed)
    true (completed > 200);
  let leader =
    match
      List.find_opt
        (fun i -> Raft.role (CR.replica cluster i) = Raft.Leader)
        (List.init 5 Fun.id)
    with
    | Some i -> i
    | None -> Alcotest.fail "no raft leader at the end"
  in
  let lr = CR.replica cluster leader in
  Alcotest.(check bool) "leader snapshotted" true (Raft.snapshots_taken lr >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "leader log compacted (base %d)" (Raft.log_base lr))
    true
    (Raft.log_base lr > 0);
  (* the crashed follower's log starts above 0 too: it accepted an
     installed image, not a slot-by-slot replay of the dead prefix *)
  Alcotest.(check bool)
    (Printf.sprintf "follower 4 rebuilt from a snapshot (base %d)"
       (Raft.log_base (CR.replica cluster 4)))
    true
    (Raft.log_base (CR.replica cluster 4) > 0);
  consensus_clean "raft snapshot install"
    (List.init 5 (fun i ->
         (i, Executor.state_machine (Raft.executor (CR.replica cluster i)))))

(* ------------------------------------------------------------------ *)
(* Nemesis oracle pins with durable storage                            *)
(* ------------------------------------------------------------------ *)

let test_trial_durable_crash protocol () =
  let v =
    Trial.run ~durable:durable_every ~protocol ~seed:42 crash_leader_schedule
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s durable crash pin: %s" protocol
       (String.concat "; " v.Trial.reasons))
    true v.Trial.ok;
  Alcotest.(check int) (protocol ^ " one recovery") 1 v.Trial.recoveries;
  Alcotest.(check bool) (protocol ^ " replay charged") true
    (v.Trial.replay_ms_total > 0.0);
  Alcotest.(check bool) (protocol ^ " timers cancelled") true
    (v.Trial.timers_cancelled > 0)

(* ------------------------------------------------------------------ *)
(* sync=none byte-identity pin                                         *)
(* ------------------------------------------------------------------ *)

let identity_result protocol storage =
  let (module P) = Paxi_protocols.Registry.find_exn protocol in
  let config =
    { (Config.default ~n_replicas:5) with Config.seed = 7; storage }
  in
  Runner.run
    (module P)
    (Runner.spec ~warmup_ms:100.0 ~duration_ms:600.0 ~config
       ~topology:(Topology.lan ~n_replicas:5 ())
       ~client_specs:
         [ Runner.clients ~target:Runner.Round_robin ~count:4 Workload.default ]
       ())

let test_sync_none_identity protocol () =
  (* arming the storage layer with sync=none must not perturb the
     fault-free simulation by a single event or draw *)
  let off = identity_result protocol None in
  let none =
    identity_result protocol (Some (durable_with Storage.Sync_none))
  in
  Alcotest.(check bool)
    (protocol ^ " sync=none byte-identical to storage off")
    true
    (off.Runner.throughput_rps = none.Runner.throughput_rps
    && Stats.samples off.Runner.latency = Stats.samples none.Runner.latency
    && off.Runner.sim_events = none.Runner.sim_events
    && off.Runner.messages_sent = none.Runner.messages_sent);
  Alcotest.(check int)
    (protocol ^ " sync=none never fsyncs")
    0 none.Runner.storage_fsyncs

let suite =
  ( "storage",
    [
      Alcotest.test_case "durable at fsync completion" `Quick
        test_durable_only_at_fsync_completion;
      Alcotest.test_case "crash loses unsynced tail" `Quick
        test_crash_loses_unsynced_tail;
      Alcotest.test_case "batched group commit" `Quick test_batched_group_commit;
      Alcotest.test_case "sync=none synchronous" `Quick
        test_sync_none_is_synchronous;
      Alcotest.test_case "snapshot+truncate+replay cost" `Quick
        test_snapshot_truncate_and_replay_cost;
      QCheck_alcotest.to_alcotest
        (prop_device_matches_model Storage.Sync_every);
      QCheck_alcotest.to_alcotest
        (prop_device_matches_model Storage.Sync_batched);
      QCheck_alcotest.to_alcotest
        (prop_device_matches_model Storage.Sync_none);
      Alcotest.test_case "timers cancel_all" `Quick test_timers_cancel_all;
      Alcotest.test_case "timers generation guard" `Quick
        test_timers_generation_guard;
      Alcotest.test_case "slot log truncation" `Quick test_slot_log_truncate;
      Alcotest.test_case "executor image/install" `Quick
        test_executor_image_install;
      Alcotest.test_case "paxos crash-recover pin" `Slow
        test_paxos_crash_recovery_pin;
      Alcotest.test_case "raft crash-recover pin" `Slow
        test_raft_crash_recovery_pin;
      Alcotest.test_case "raft snapshot install" `Slow
        test_raft_snapshot_install;
      Alcotest.test_case "trial durable crash paxos" `Slow
        (test_trial_durable_crash "paxos");
      Alcotest.test_case "trial durable crash raft" `Slow
        (test_trial_durable_crash "raft");
      Alcotest.test_case "sync=none identity paxos" `Slow
        (test_sync_none_identity "paxos");
      Alcotest.test_case "sync=none identity raft" `Slow
        (test_sync_none_identity "raft");
    ] )
