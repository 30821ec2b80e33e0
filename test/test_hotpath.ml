(* Hot-path soundness: fixed-seed runs reproduce pinned statistics,
   allocation stays pinned, and leader command batching must both stay
   safe and actually raise saturation throughput. *)

open Paxi_benchmark

let paxos = Paxi_protocols.Registry.find_exn "paxos"
let raft = Paxi_protocols.Registry.find_exn "raft"

let lan_spec ?(n = 5) ?(relay_groups = 0) ?batching ?retransmit
    ?(tracing = false) ?(seed = 7) ?(concurrency = 12) ?(duration_ms = 1_500.0)
    ?(collect_history = false) ?(check_consensus = false) ?faults () =
  let config =
    {
      (Config.default ~n_replicas:n) with
      Config.seed;
      batching;
      retransmit;
      tracing;
      relay_groups;
    }
  in
  Runner.spec ~warmup_ms:300.0 ~duration_ms ~collect_history ~check_consensus
    ?faults ~config
    ~topology:(Topology.lan ~n_replicas:n ())
    ~client_specs:
      [
        Runner.clients ~target:(Runner.Fixed 0) ~count:concurrency
          { Workload.default with Workload.keys = 30 };
      ]
    ()

(* Fixed-seed pin of [lan_spec]: the statistics the simulated system
   produces, bit for bit. [sim_events] counts one event per delivered
   message (its handler call) plus timers; the 401,821 events of the
   two-event delivery (an arrival and a completion per message) less
   its 200,862 arrival events give the pinned 200,959. *)
let check_lan_spec_pin (r : Runner.result) =
  Alcotest.(check string) "throughput bits" "0x1.5c9aaaaaaaaabp+13"
    (Printf.sprintf "%h" r.Runner.throughput_rps);
  Alcotest.(check string) "mean latency bits" "0x1.1336e4e5e465p+0"
    (Printf.sprintf "%h" (Stats.mean r.Runner.latency));
  Alcotest.(check int) "completed" 20_081 r.Runner.completed;
  Alcotest.(check int) "messages sent" 200_862 r.Runner.messages_sent;
  Alcotest.(check int) "events" 200_959 r.Runner.sim_events

let test_lan_spec_pinned () = check_lan_spec_pin (Runner.run paxos (lan_spec ()))

(* The reliable-delivery substrate's acceptance bar: on a loss-free
   network every retransmission timer is cancelled by its ack before
   firing, so a fixed-seed run with the layer armed matches the
   disabled run on every statistic. The recovery counters must also
   stay at zero. *)
let test_retransmit_inert_when_fault_free () =
  let retransmit =
    { Config.base_ms = 40.0; max_ms = 320.0; max_tries = 25 }
  in
  List.iter
    (fun (name, p) ->
      let off = Runner.run p (lan_spec ())
      and on = Runner.run p (lan_spec ~retransmit ()) in
      Alcotest.(check int) (name ^ ": zero retransmits") 0 on.Runner.retransmits;
      Alcotest.(check int) (name ^ ": zero dup drops") 0 on.Runner.dup_drops;
      Alcotest.(check (float 0.0))
        (name ^ ": throughput identical")
        off.Runner.throughput_rps on.Runner.throughput_rps;
      Alcotest.(check (float 0.0))
        (name ^ ": mean latency identical")
        (Stats.mean off.Runner.latency)
        (Stats.mean on.Runner.latency);
      Alcotest.(check (float 0.0))
        (name ^ ": max latency identical")
        (Stats.max off.Runner.latency)
        (Stats.max on.Runner.latency);
      Alcotest.(check int)
        (name ^ ": completed identical")
        off.Runner.completed on.Runner.completed;
      Alcotest.(check int)
        (name ^ ": messages identical")
        off.Runner.messages_sent on.Runner.messages_sent;
      Alcotest.(check int)
        (name ^ ": event totals identical")
        off.Runner.sim_events on.Runner.sim_events)
    [ ("paxos", paxos); ("raft", raft) ]

(* The tracing subsystem's acceptance bar: instrumentation only reads
   timestamps the simulator already computed — no extra randomness, no
   extra events — so a fixed-seed run with tracing on is statistically
   byte-identical to the same run with tracing off. *)
let test_tracing_invisible () =
  let off = Runner.run paxos (lan_spec ())
  and on = Runner.run paxos (lan_spec ~tracing:true ()) in
  Alcotest.(check (float 0.0)) "throughput identical"
    off.Runner.throughput_rps on.Runner.throughput_rps;
  Alcotest.(check (float 0.0)) "mean latency identical"
    (Stats.mean off.Runner.latency)
    (Stats.mean on.Runner.latency);
  Alcotest.(check (float 0.0)) "max latency identical"
    (Stats.max off.Runner.latency)
    (Stats.max on.Runner.latency);
  Alcotest.(check int) "completed identical" off.Runner.completed
    on.Runner.completed;
  Alcotest.(check int) "messages identical" off.Runner.messages_sent
    on.Runner.messages_sent;
  Alcotest.(check int) "event totals identical" off.Runner.sim_events
    on.Runner.sim_events;
  (* and the traced run actually collected a dissection *)
  let tr = on.Runner.trace in
  Alcotest.(check bool) "trace disabled by default" false
    (Paxi_obs.Trace.enabled off.Runner.trace);
  Alcotest.(check bool) "spans collected" true
    (Paxi_obs.Trace.span_count tr > 0);
  Alcotest.(check bool) "components populated" true
    (List.for_all
       (fun (_, s) -> Stats.count s > 0)
       (Paxi_obs.Trace.components tr))

(* Unbatched runs must not notice that the batching machinery exists:
   same seed, batching = None, identical statistics run-to-run. *)
let test_fixed_seed_reproducible () =
  let r1 = Runner.run paxos (lan_spec ())
  and r2 = Runner.run paxos (lan_spec ()) in
  Alcotest.(check (float 0.0)) "throughput reproducible"
    r1.Runner.throughput_rps r2.Runner.throughput_rps;
  Alcotest.(check (float 0.0)) "latency reproducible"
    (Stats.mean r1.Runner.latency)
    (Stats.mean r2.Runner.latency);
  Alcotest.(check int) "events reproducible" r1.Runner.sim_events
    r2.Runner.sim_events

(* Fixed-seed pin of [lan_spec] with retransmission armed and tracing
   on, so the post-record and trace-request free lists both recycle:
   the same statistics as the plain pin, no retransmits, and a pinned
   span count. *)
let test_lan_spec_retransmit_traced_pinned () =
  let retransmit =
    { Config.base_ms = 40.0; max_ms = 320.0; max_tries = 25 }
  in
  let r = Runner.run paxos (lan_spec ~retransmit ~tracing:true ()) in
  check_lan_spec_pin r;
  Alcotest.(check int) "retransmits" 0 r.Runner.retransmits;
  Alcotest.(check int) "spans" 160_648
    (Paxi_obs.Trace.span_count r.Runner.trace)

(* Allocation-regression pins, per message sent: what remains is
   dominated by the protocol message values themselves, which are real
   data, not hot-path machinery. Minor words around [Runner.run] are
   deterministic for the compiled code: every run of [lan_spec]
   allocates the same 1.59M of them, 7.90 words (63.2 B) per message,
   with the transport's procq, delay and wake calls inlined and
   unboxed (see the boxing pins below), the clock read and every clock
   stamp unboxed, a request's trip from the runner to its reply
   callback allocating only its command (and, when collected, its
   history record), a slot's accept, commit and execute allocating
   nothing at any replica but the messages they send, quorum votes
   kept in flag bytes, and the leader's round record pooled. The relay
   point (n = 13, three relay groups) reads 7.26 words per message:
   its relays and members add no record, closure or box per round.
   Each words cap leaves under 0.75 words (6 B) per message, less than
   one boxed float (16 B); a cons cell per quorum vote (+0.90 and
   +1.04 words per message) exceeds it. [allocated_bytes] also counts what is
   promoted and what goes straight to the major heap, so it moves with
   what ran earlier in the process: over runs started at 24 different
   minor-heap fill levels the plain scenario reads 110.0-119.1 B per
   message and the idle-rule one 109.6-122.6 B; the cap leaves at
   least 22.4 B. Reintroducing a boxed float on the per-message path,
   a per-message closure on the delivery path, a per-request closure
   on the client path, a heap block per log slot, a cons cell per
   quorum vote, a closure per relay member ack, or closures built by
   fault queries while no rule is active trips them. *)
let words_per_message_cap = 8.6
let relay_words_per_message_cap = 8.0
let bytes_per_message_cap = 145.0

let bytes_per_message (r : Runner.result) =
  r.Runner.allocated_bytes /. float_of_int r.Runner.messages_sent

let words_per_message spec =
  let w0 = Gc.minor_words () in
  let r = Runner.run paxos spec in
  ((Gc.minor_words () -. w0) /. float_of_int r.Runner.messages_sent, r)

let test_allocation_per_message_pinned () =
  let words, r = words_per_message (lan_spec ()) in
  Alcotest.(check bool)
    (Printf.sprintf "minor words/message %.3f <= %.1f" words
       words_per_message_cap)
    true
    (words <= words_per_message_cap);
  let relay_words, _ = words_per_message (lan_spec ~n:13 ~relay_groups:3 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "relay minor words/message %.3f <= %.1f" relay_words
       relay_words_per_message_cap)
    true
    (relay_words <= relay_words_per_message_cap);
  Alcotest.(check bool)
    (Printf.sprintf "bytes/message %.1f <= %.0f" (bytes_per_message r)
       bytes_per_message_cap)
    true
    (bytes_per_message r <= bytes_per_message_cap);
  (* retransmission armed on a loss-free run must not change the
     allocation class: every post recycles through the free list *)
  let retransmit =
    { Config.base_ms = 40.0; max_ms = 320.0; max_tries = 25 }
  in
  let rr = Runner.run paxos (lan_spec ~retransmit ()) in
  Alcotest.(check bool)
    (Printf.sprintf "armed bytes/message %.1f <= %.0f" (bytes_per_message rr)
       (2.0 *. bytes_per_message_cap))
    true
    (bytes_per_message rr <= 2.0 *. bytes_per_message_cap);
  (* a schedule whose only rule opens after the run ends is idle the
     whole time: fault queries must cost what they cost with no rules *)
  let faults f =
    Faults.crash f ~node:(Address.replica 1) ~from_ms:60_000.0
      ~duration_ms:1_000.0
  in
  let rf = Runner.run paxos (lan_spec ~faults ()) in
  Alcotest.(check bool)
    (Printf.sprintf "idle-rule bytes/message %.1f <= %.0f"
       (bytes_per_message rf) bytes_per_message_cap)
    true
    (bytes_per_message rf <= bytes_per_message_cap)

(* Replica-state pin. A replica keeps every command it applies, so
   whatever an apply leaves on the heap is promoted and then traced by
   the major GC for the rest of the run, once per replica. The flat
   memo, applied array and writer chains leave only the writer chains'
   small arrays (~7.5 B/apply on this stream); one heap block per apply
   (a memo bucket, a boxed read, a cons cell, a version record) costs
   16-32 B, and the list-and-Hashtbl store promoted ~79 B/apply here.
   The commands are built and promoted before counting starts, so only
   the store is measured; the counter is deterministic for the stream. *)
let promoted_bytes_per_apply_cap = 16.0

let test_promoted_per_apply_pinned () =
  let n = 200_000 and clients = 64 and keys = 1_000 in
  let rng = Random.State.make [| 42 |] in
  let next_id = Array.make clients 0 in
  let stream = Array.make n Command.noop in
  for i = 0 to n - 1 do
    stream.(i) <-
      (if i > 0 && Random.State.int rng 10 = 0 then stream.(i - 1)
       else
         let client = Random.State.int rng clients in
         let id = next_id.(client) in
         next_id.(client) <- id + 1;
         let k = Random.State.int rng keys in
         Command.make ~id ~client
           (if Random.State.bool rng then Command.Put (k, id)
            else Command.Get k))
  done;
  let e = Executor.create () in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  Array.iter (fun c -> ignore (Executor.execute e c)) stream;
  let promoted =
    ((Gc.quick_stat ()).Gc.promoted_words -. before) *. 8.0 /. float_of_int n
  in
  Alcotest.(check bool)
    (Printf.sprintf "promoted B/apply %.2f <= %.0f" promoted
       promoted_bytes_per_apply_cap)
    true
    (promoted <= promoted_bytes_per_apply_cap)

(* Storage write-path pin. On a warmed [Sync_every] device, 100k steps
   of [set_reg] x2 + [append] + [sync] with one preallocated
   continuation, then the clock advanced past the fsync's completion.
   Words come from [Gc.minor_words] around each phase and are
   deterministic for the compiled code. Writing the three records
   allocates nothing, and neither does a sync: the device schedules
   its completion through [Sim.schedule_after] and [Timers.track]
   directly, so the delay stays unboxed (measured 0.00). The
   completion phase measures 3.06, all of it a fresh durable-log page
   every 128 slots; the clock stores are unboxed. Each cap leaves a
   margin under a quarter of one 2-word box, so any per-call box
   trips it. *)
let storage_sync_words_cap = 0.5
let storage_completion_words_cap = 3.5

let test_storage_write_path_words () =
  let sim = Sim.create ~seed:1 () in
  let st =
    Storage.create
      ~config:
        { Storage.default_config with Storage.sync_mode = Storage.Sync_every }
      ~sim ~timers:(Timers.create sim)
  in
  let cmd = Command.make ~id:0 ~client:0 (Command.Put (1, 1)) in
  let acked = ref 0 in
  let k () = incr acked in
  let words = Array.make 3 0.0 in
  let step i =
    let w0 = Gc.minor_words () in
    Storage.set_reg st 0 i;
    Storage.set_reg st 1 i;
    Storage.append st ~index:i ~a:1 ~b:0 cmd;
    let w1 = Gc.minor_words () in
    Storage.sync st k;
    let w2 = Gc.minor_words () in
    Sim.run_until sim (Sim.now sim +. 1.0);
    let w3 = Gc.minor_words () in
    words.(0) <- words.(0) +. (w1 -. w0);
    words.(1) <- words.(1) +. (w2 -. w1);
    words.(2) <- words.(2) +. (w3 -. w2)
  in
  let warm = 10_000 and n = 100_000 in
  for i = 0 to warm - 1 do
    step i
  done;
  Array.fill words 0 3 0.0;
  for i = warm to warm + n - 1 do
    step i
  done;
  let per phase = words.(phase) /. float_of_int n in
  Alcotest.(check int) "every sync acknowledged" (warm + n) !acked;
  Alcotest.(check (float 0.0)) "records allocate nothing" 0.0 (per 0);
  Alcotest.(check bool)
    (Printf.sprintf "sync words %.2f <= %.1f" (per 1) storage_sync_words_cap)
    true
    (per 1 <= storage_sync_words_cap);
  Alcotest.(check bool)
    (Printf.sprintf "completion words %.2f <= %.1f" (per 2)
       storage_completion_words_cap)
    true
    (per 2 <= storage_completion_words_cap)

(* Boxing pins. Each per-message primitive below is called 1M times
   after a warm-up, consuming its float result into a float array, and
   must allocate nothing: no float boxed for an argument, a result or
   an intermediate. They hold only while the simulator is built
   without [-opaque] (the release profile of dune-workspace), which
   lets these calls inline across modules; under [--profile dev] each
   boxes again and these pins fail. *)
let sink = Array.make 1 0.0

let minor_words_per_call f =
  let n = 1_000_000 in
  for i = 0 to 9_999 do
    f i
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let check_no_words name f =
  Alcotest.(check (float 0.0)) (name ^ " words/call") 0.0
    (minor_words_per_call f)

let test_hot_calls_allocate_nothing () =
  let sim = Sim.create ~seed:1 () in
  let agent = Sim.agent sim (fun () -> ()) in
  check_no_words "Sim.wake" (fun i ->
      Sim.wake sim agent ~time:(float_of_int i) ~seq:i);
  (* nothing to fire: the call only advances the clock to the horizon *)
  let idle = Sim.create ~seed:1 () in
  check_no_words "Sim.run_until (nothing to fire)" (fun _ ->
      Sim.run_until idle (Sim.now idle +. 1.0));
  let q = Procq.create () in
  check_no_words "Procq.occupy_incoming" (fun i ->
      sink.(0) <-
        Procq.occupy_incoming q ~now_ms:(float_of_int i *. 0.01)
          ~size_bytes:128);
  check_no_words "Procq.occupy_outgoing" (fun i ->
      sink.(0) <-
        Procq.occupy_outgoing q ~now_ms:(float_of_int i *. 0.01) ~copies:4
          ~size_bytes:128);
  let rng = Rng.create ~seed:1 in
  let a = Address.replica 0 and b = Address.replica 1 in
  let lan = Topology.lan ~n_replicas:3 () in
  check_no_words "Topology.sample_delay (lan, sigma)" (fun _ ->
      sink.(0) <- Topology.sample_delay lan rng a b);
  let wan =
    Topology.wan ~regions:[ Region.virginia; Region.ohio ]
      ~replicas_per_region:1 ~jitter:0.05 ()
  in
  check_no_words "Topology.sample_delay (wan, jitter)" (fun _ ->
      sink.(0) <- Topology.sample_delay wan rng a b);
  check_no_words "Rng.float" (fun _ -> sink.(0) <- Rng.float rng 2.5);
  check_no_words "Rng.normal" (fun _ ->
      sink.(0) <- Rng.normal rng ~mu:0.4 ~sigma:0.05);
  check_no_words "Rng.uniform" (fun _ ->
      sink.(0) <- Rng.uniform rng ~lo:1.0 ~hi:3.0);
  check_no_words "Rng.exponential" (fun _ ->
      sink.(0) <- Rng.exponential rng ~rate:0.8);
  check_no_words "Rng.bernoulli" (fun _ ->
      if Rng.bernoulli rng ~p:0.3 then sink.(0) <- sink.(0) +. 1.0);
  (* the sample array doubles outside the minor heap once it passes
     the warm-up's size, so only the moments are measured *)
  let st = Stats.create () in
  check_no_words "Stats.add" (fun i -> Stats.add st (float_of_int i *. 0.5));
  let sink_addr = Array.make 1 a in
  check_no_words "Address.replica" (fun i ->
      sink_addr.(0) <- Address.replica (i land 63));
  check_no_words "Address.client" (fun i ->
      sink_addr.(0) <- Address.client (i land 1023));
  (* The slot log: an accept into a filled slot (alternating commands,
     so every call displaces), and a fresh slot accepted, committed and
     executed (one command, re-decided: the executor answers from its
     memo). A far slot written first sizes the page spine, so the
     1,024-slot pages, allocated outside the minor heap, are all the
     fresh slots add. *)
  let log = Cmd_log.create (Executor.create ()) (Proto_harness.quiet_env ~n:3 0) in
  let c0 = Command.make ~id:0 ~client:0 (Command.Put (1, 1))
  and c1 = Command.make ~id:1 ~client:0 (Command.Put (1, 2)) in
  let ballot = Ballot.initial ~owner:0 in
  for s = 0 to 1023 do
    ignore (Cmd_log.accept log s ~ballot c0)
  done;
  check_no_words "Cmd_log.accept (filled slot)" (fun i ->
      ignore
        (Cmd_log.accept log (i land 1023) ~ballot (if i land 1 = 0 then c0 else c1)));
  let log = Cmd_log.create (Executor.create ()) (Proto_harness.quiet_env ~n:3 0) in
  ignore (Cmd_log.accept log 1_100_000 ~ballot c0);
  let next = ref 0 in
  check_no_words "Cmd_log.accept/commit/execute (fresh slot)" (fun _ ->
      let s = !next in
      next := s + 1;
      ignore (Cmd_log.accept log s ~ballot c0);
      ignore (Cmd_log.commit log s);
      Cmd_log.execute log);
  Alcotest.(check int) "every fresh slot executed" !next
    (Cmd_log.exec_frontier log);
  (* A relay's member ack on a live record: the member's position in
     the group, its bit, no completion (member 4 never acks). The
     relay's own vote goes through the device as a protocol casts it. *)
  let module Relay = Paxi_protocols.Relay in
  let renv =
    let env = Proto_harness.quiet_env ~n:9 1 in
    { env with Proto.config = { env.Proto.config with Config.relay_groups = 2 } }
  in
  let relay = Relay.create renv ~ack:(fun _ _ -> ()) in
  let live =
    Relay.start relay ~key:10 ~leader:0 ~gen:0 ~tag:1 ~aux:1 ~mark:0
      ~size_bytes:128 ()
  in
  check_no_words "Relay.own through Storage.after (volatile)" (fun _ ->
      Storage.after Storage.volatile (Relay.own relay) live
        live.Relay.a_epoch);
  check_no_words "Relay.absorb (live record)" (fun i ->
      Relay.absorb relay live ~src:(2 + (i land 1)));
  Alcotest.(check int) "bits of members 1-3" 7 live.Relay.a_bits;
  (* A phase-2 vote on the leader's tracker, a fresh vote each call. *)
  let q =
    Quorum.create (Quorum.Count { members = List.init 49 Fun.id; threshold = 25 })
  in
  check_no_words "Quorum.ack + satisfied (Count)" (fun i ->
      let id = i mod 49 in
      if id = 0 then Quorum.reset q;
      Quorum.ack q id;
      if Quorum.satisfied q then sink.(0) <- sink.(0) +. 1.0);
  (* The memory-only device: writes record nothing, and an ack's
     [Storage.after] calls its two-argument send at once, with no
     continuation closure. *)
  let dev = Storage.volatile in
  let sent = Array.make 1 0 in
  let send dst (n : int) = sent.(0) <- sent.(0) + dst + n in
  check_no_words "Storage.after (volatile)" (fun i ->
      Storage.after dev send (i land 7) i);
  check_no_words "Storage.set_reg (volatile)" (fun i -> Storage.set_reg dev 0 i);
  check_no_words "Storage.append (volatile)" (fun i ->
      Storage.append dev ~index:i ~a:1 ~b:0 c0);
  (* A sized send and its delivery ([Sim.step]: [run_until]'s stop
     hook walks the transport's client table once per call). *)
  let tsim = Sim.create ~seed:1 () in
  let tr =
    Transport.create ~sim:tsim ~topology:(Topology.lan ~n_replicas:2 ()) ()
  in
  Transport.register tr b (fun ~src:_ () -> ());
  check_no_words "Transport.send_sized + delivery" (fun _ ->
      Transport.send_sized tr ~src:a ~dst:b ~size_bytes:256 ();
      while Sim.step tsim do
        ()
      done)

(* [Rng]'s samplers draw their unit floats without going through
   [Random.State.float]; 1M draws of each must still equal, bit for
   bit, the same formula over [Random.State.float] on a generator
   seeded as [Rng.create] seeds it. *)
let test_rng_draws_identical () =
  let seed = 11 in
  let n = 1_000_000 in
  let check name draw reference =
    let rng = Rng.create ~seed
    and r = Random.State.make [| seed; 0x9e3779b9; seed lxor 0x85ebca6b |] in
    let differ = ref 0 in
    for _ = 1 to n do
      if Int64.bits_of_float (draw rng) <> Int64.bits_of_float (reference r)
      then incr differ
    done;
    Alcotest.(check int) (name ^ " draws differing") 0 !differ
  in
  check "float"
    (fun rng -> Rng.float rng 2.5)
    (fun r -> Random.State.float r 2.5);
  check "uniform"
    (fun rng -> Rng.uniform rng ~lo:1.0 ~hi:3.0)
    (fun r -> 1.0 +. Random.State.float r (3.0 -. 1.0));
  check "normal"
    (fun rng -> Rng.normal rng ~mu:0.4 ~sigma:0.05)
    (fun r ->
      let u1 = 1.0 -. Random.State.float r 1.0 in
      let u2 = Random.State.float r 1.0 in
      0.4 +. (0.05 *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)));
  check "exponential"
    (fun rng -> Rng.exponential rng ~rate:0.8)
    (fun r -> -.log (1.0 -. Random.State.float r 1.0) /. 0.8);
  check "bernoulli"
    (fun rng -> if Rng.bernoulli rng ~p:0.3 then 1.0 else 0.0)
    (fun r -> if Random.State.float r 1.0 < 0.3 then 1.0 else 0.0)

let check_safe name (r : Runner.result) =
  let anomalies = Linearizability.check r.Runner.history in
  List.iter
    (fun a -> Printf.printf "%s anomaly: %s\n" name a.Linearizability.reason)
    anomalies;
  Alcotest.(check int) (name ^ " linearizable") 0 (List.length anomalies);
  Alcotest.(check int)
    (name ^ " consensus clean")
    0
    (List.length r.Runner.consensus_violations);
  Alcotest.(check int) (name ^ " nothing abandoned") 0 r.Runner.gave_up

let batching = { Config.max_batch = 8; max_wait_ms = 0.2 }

let test_batched_paxos_safe () =
  let r =
    Runner.run paxos
      (lan_spec ~batching ~collect_history:true ~check_consensus:true ())
  in
  Alcotest.(check bool) "made progress" true (r.Runner.throughput_rps > 100.0);
  check_safe "batched paxos" r

let test_batched_raft_safe () =
  let r =
    Runner.run raft
      (lan_spec ~batching ~collect_history:true ~check_consensus:true ())
  in
  Alcotest.(check bool) "made progress" true (r.Runner.throughput_rps > 100.0);
  check_safe "batched raft" r

let test_batched_fpaxos_safe () =
  let fpaxos = Paxi_protocols.Registry.find_exn "fpaxos" in
  let r =
    Runner.run fpaxos
      (lan_spec ~batching ~collect_history:true ~check_consensus:true ())
  in
  Alcotest.(check bool) "made progress" true (r.Runner.throughput_rps > 100.0);
  check_safe "batched fpaxos" r

(* A lone slow client never fills a batch: the max_wait timer must
   flush for it, and every command still gets its own reply. *)
let test_max_wait_flushes_partial_batch () =
  let module P = (val paxos) in
  let module H = Proto_harness.Make (P) in
  let t =
    H.lan
      ~config:
        {
          (Config.default ~n_replicas:3) with
          Config.batching = Some { Config.max_batch = 64; max_wait_ms = 1.0 };
        }
      ~n:3 ()
  in
  let replies =
    H.submit_seq t
      (List.init 5 (fun i -> Command.Put (i, 100 + i)))
  in
  Alcotest.(check int) "every command replied" 5 (List.length replies);
  H.run_for t 50.0;
  H.assert_consistent t;
  Alcotest.(check int) "all five applied at the leader" 5
    (List.length (H.applied_commands t 0))

(* The point of batching (§6 capacity lever): amortizing t_in/t_out
   across a batch raises the leader's saturation throughput. At equal
   service-time parameters a max_batch=8 leader must clear >= 1.5x the
   unbatched saturation throughput. *)
let test_batching_raises_saturation () =
  let sat batching =
    (Runner.run paxos
       (lan_spec ?batching ~concurrency:32 ~duration_ms:2_000.0 ()))
      .Runner.throughput_rps
  in
  let plain = sat None in
  let batched = sat (Some { Config.max_batch = 8; max_wait_ms = 0.05 }) in
  Alcotest.(check bool)
    (Printf.sprintf "batched %.0f >= 1.5x unbatched %.0f rps" batched plain)
    true
    (batched >= 1.5 *. plain)

let suite =
  ( "hotpath",
    [
      Alcotest.test_case "lan_spec fixed-seed pin" `Slow test_lan_spec_pinned;
      Alcotest.test_case "retransmission inert when fault-free" `Slow
        test_retransmit_inert_when_fault_free;
      Alcotest.test_case "fixed seed reproducible" `Slow
        test_fixed_seed_reproducible;
      Alcotest.test_case "tracing invisible" `Slow test_tracing_invisible;
      Alcotest.test_case "lan_spec retransmit+traced pin" `Slow
        test_lan_spec_retransmit_traced_pinned;
      Alcotest.test_case "allocation per message pinned" `Slow
        test_allocation_per_message_pinned;
      Alcotest.test_case "storage write path words pinned" `Quick
        test_storage_write_path_words;
      Alcotest.test_case "hot calls allocate nothing" `Quick
        test_hot_calls_allocate_nothing;
      Alcotest.test_case "rng draws identical to Random.State" `Quick
        test_rng_draws_identical;
      Alcotest.test_case "promoted bytes per apply pinned" `Quick
        test_promoted_per_apply_pinned;
      Alcotest.test_case "batched paxos safe" `Slow test_batched_paxos_safe;
      Alcotest.test_case "batched raft safe" `Slow test_batched_raft_safe;
      Alcotest.test_case "batched fpaxos safe" `Slow test_batched_fpaxos_safe;
      Alcotest.test_case "max_wait flushes partial batch" `Quick
        test_max_wait_flushes_partial_batch;
      Alcotest.test_case "batching raises saturation" `Slow
        test_batching_raises_saturation;
    ] )
