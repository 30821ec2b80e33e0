type msg = Ping of int

let setup ?(n = 3) ?faults () =
  let sim = Sim.create () in
  let topology = Topology.lan ~n_replicas:n () in
  let transport = Transport.create ~sim ~topology ?faults () in
  (sim, transport)

let test_send_delivers () =
  let sim, tr = setup () in
  let got = ref [] in
  Transport.register tr (Address.replica 1) (fun ~src m ->
      got := (src, m) :: !got);
  Transport.send tr ~src:(Address.replica 0) ~dst:(Address.replica 1) (Ping 7);
  Sim.run sim;
  match !got with
  | [ (src, Ping 7) ] ->
      Alcotest.(check bool) "from 0" true (Address.equal src (Address.replica 0))
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_delivery_has_latency () =
  let sim, tr = setup () in
  let at = ref 0.0 in
  Transport.register tr (Address.replica 1) (fun ~src:_ _ -> at := Sim.now sim);
  Transport.send tr ~src:(Address.replica 0) ~dst:(Address.replica 1) (Ping 0);
  Sim.run sim;
  Alcotest.(check bool) "positive delay" true (!at > 0.0);
  (* half an ~0.43ms LAN RTT plus processing *)
  Alcotest.(check bool) "sub-millisecond" true (!at < 1.0)

let test_broadcast_excludes_sender () =
  let sim, tr = setup ~n:4 () in
  let got = Array.make 4 0 in
  for i = 0 to 3 do
    Transport.register tr (Address.replica i) (fun ~src:_ _ ->
        got.(i) <- got.(i) + 1)
  done;
  Transport.broadcast tr ~src:(Address.replica 2) (Ping 1);
  Sim.run sim;
  Alcotest.(check (array int)) "everyone but sender" [| 1; 1; 0; 1 |] got

let test_multicast_subset () =
  let sim, tr = setup ~n:4 () in
  let got = Array.make 4 0 in
  for i = 0 to 3 do
    Transport.register tr (Address.replica i) (fun ~src:_ _ ->
        got.(i) <- got.(i) + 1)
  done;
  Transport.multicast tr ~src:(Address.replica 0)
    ~dsts:[ Address.replica 1; Address.replica 3 ]
    (Ping 1);
  Sim.run sim;
  Alcotest.(check (array int)) "subset" [| 0; 1; 0; 1 |] got

let test_drop_rule_blocks () =
  let faults = Faults.create () in
  Faults.drop faults ~src:(Address.replica 0) ~dst:(Address.replica 1)
    ~from_ms:0.0 ~duration_ms:1000.0;
  let sim, tr = setup ~faults () in
  let got = ref 0 in
  Transport.register tr (Address.replica 1) (fun ~src:_ _ -> incr got);
  Transport.send tr ~src:(Address.replica 0) ~dst:(Address.replica 1) (Ping 0);
  Sim.run sim;
  Alcotest.(check int) "dropped" 0 !got;
  Alcotest.(check int) "counted" 1 (Transport.dropped_count tr)

let test_crashed_receiver_drops () =
  let faults = Faults.create () in
  Faults.crash faults ~node:(Address.replica 1) ~from_ms:0.0 ~duration_ms:1000.0;
  let sim, tr = setup ~faults () in
  let got = ref 0 in
  Transport.register tr (Address.replica 1) (fun ~src:_ _ -> incr got);
  Transport.send tr ~src:(Address.replica 0) ~dst:(Address.replica 1) (Ping 0);
  Sim.run sim;
  Alcotest.(check int) "no delivery to crashed node" 0 !got

let test_crashed_sender_sends_nothing () =
  let faults = Faults.create () in
  Faults.crash faults ~node:(Address.replica 0) ~from_ms:0.0 ~duration_ms:1000.0;
  let sim, tr = setup ~faults () in
  let got = ref 0 in
  Transport.register tr (Address.replica 1) (fun ~src:_ _ -> incr got);
  Transport.send tr ~src:(Address.replica 0) ~dst:(Address.replica 1) (Ping 0);
  Sim.run sim;
  Alcotest.(check int) "nothing sent" 0 !got

let test_crashed_sender_accounting () =
  (* A crashed source still counts its attempts in [sent] (and in
     [dropped]) on both the unicast and the fan-out paths, so message
     totals are comparable across faulty and fault-free runs. *)
  let faults = Faults.create () in
  Faults.crash faults ~node:(Address.replica 0) ~from_ms:0.0 ~duration_ms:1000.0;
  let sim, tr = setup ~n:4 ~faults () in
  for i = 0 to 3 do
    Transport.register tr (Address.replica i) (fun ~src:_ _ -> ())
  done;
  Transport.send tr ~src:(Address.replica 0) ~dst:(Address.replica 1) (Ping 0);
  Alcotest.(check int) "unicast counted as sent" 1 (Transport.sent_count tr);
  Transport.broadcast tr ~src:(Address.replica 0) (Ping 1);
  Alcotest.(check int) "broadcast copies counted as sent" 4
    (Transport.sent_count tr);
  Transport.multicast tr ~src:(Address.replica 0)
    ~dsts:[ Address.replica 2; Address.replica 3 ]
    (Ping 2);
  Alcotest.(check int) "multicast copies counted as sent" 6
    (Transport.sent_count tr);
  Sim.run sim;
  Alcotest.(check int) "all dropped" 6 (Transport.dropped_count tr);
  Alcotest.(check int) "nothing delivered" 0 (Transport.delivered_count tr)

let test_broadcast_cache_stable_across_calls () =
  (* repeated broadcasts reuse the cached per-source peer list and
     keep delivering to everyone but the sender *)
  let sim, tr = setup ~n:4 () in
  let got = Array.make 4 0 in
  for i = 0 to 3 do
    Transport.register tr (Address.replica i) (fun ~src:_ _ ->
        got.(i) <- got.(i) + 1)
  done;
  for _ = 1 to 3 do
    Transport.broadcast tr ~src:(Address.replica 2) (Ping 1)
  done;
  Sim.run sim;
  Alcotest.(check (array int)) "3x everyone but sender" [| 3; 3; 0; 3 |] got

let test_unregistered_destination_drops () =
  let sim, tr = setup () in
  Transport.send tr ~src:(Address.replica 0) ~dst:(Address.replica 2) (Ping 0);
  Sim.run sim;
  Alcotest.(check int) "dropped" 1 (Transport.dropped_count tr)

let test_counts () =
  let sim, tr = setup ~n:5 () in
  for i = 0 to 4 do
    Transport.register tr (Address.replica i) (fun ~src:_ _ -> ())
  done;
  Transport.broadcast tr ~src:(Address.replica 0) (Ping 0);
  Sim.run sim;
  Alcotest.(check int) "sent 4" 4 (Transport.sent_count tr);
  Alcotest.(check int) "delivered 4" 4 (Transport.delivered_count tr)

let test_queueing_backpressure () =
  (* With slow incoming processing, back-to-back messages are spaced
     by the service time at the receiver. *)
  let sim = Sim.create () in
  let topology = Topology.lan ~n_replicas:2 () in
  let transport =
    Transport.create ~sim ~topology
      ~processing:(fun _ -> Procq.create ~t_in_ms:1.0 ~t_out_ms:0.0 ~bandwidth_mbps:1e9 ())
      ()
  in
  let times = ref [] in
  Transport.register transport (Address.replica 1) (fun ~src:_ _ ->
      times := Sim.now sim :: !times);
  for _ = 1 to 3 do
    Transport.send transport ~src:(Address.replica 0) ~dst:(Address.replica 1) (Ping 0)
  done;
  Sim.run sim;
  match List.rev !times with
  | [ t1; t2; t3 ] ->
      Alcotest.(check bool) "spaced by >= service time" true
        (t2 -. t1 > 0.9 && t3 -. t2 > 0.9)
  | _ -> Alcotest.fail "expected 3 deliveries"

(* The conservation invariant behind every message-count report:
   every sent copy is eventually delivered or dropped, never both,
   never neither — across the unicast ([send_one]) and fan-out
   ([dispatch]) paths, with crashed senders/receivers, dead links and
   unregistered destinations in any combination. *)
let prop_accounting_invariant =
  let n = 4 in
  QCheck.Test.make
    ~name:"sent = delivered + dropped after every run drains" ~count:200
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 25)
           (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 2)))
        (int_range 0 ((1 lsl n) - 1))
        (list_of_size (Gen.int_range 0 3)
           (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 1))))
    (fun (ops, regmask, fault_specs) ->
      let faults = Faults.create () in
      List.iter
        (fun (a, b, kind) ->
          if kind = 0 then
            Faults.crash faults ~node:(Address.replica a) ~from_ms:0.0
              ~duration_ms:5.0
          else
            Faults.drop faults ~src:(Address.replica a)
              ~dst:(Address.replica b) ~from_ms:0.0 ~duration_ms:5.0)
        fault_specs;
      let sim, tr = setup ~n ~faults () in
      (* leave some destinations unregistered (missing-handler drops) *)
      for i = 0 to n - 1 do
        if regmask land (1 lsl i) <> 0 then
          Transport.register tr (Address.replica i) (fun ~src:_ _ -> ())
      done;
      List.iter
        (fun (src, dst, kind) ->
          match kind with
          | 0 ->
              Transport.send tr ~src:(Address.replica src)
                ~dst:(Address.replica dst) (Ping 0)
          | 1 -> Transport.broadcast tr ~src:(Address.replica src) (Ping 1)
          | _ ->
              let dsts =
                [ dst; (dst + 1) mod n ]
                |> List.filter (fun d -> d <> src)
                |> List.map Address.replica
              in
              if dsts <> [] then
                Transport.multicast tr ~src:(Address.replica src) ~dsts (Ping 2))
        ops;
      Sim.run sim;
      Transport.sent_count tr
      = Transport.delivered_count tr + Transport.dropped_count tr)

let test_accounting_fault_free () =
  (* deterministic spot check of the same invariant without faults,
     with one unregistered destination *)
  let sim, tr = setup ~n:4 () in
  for i = 0 to 2 do
    Transport.register tr (Address.replica i) (fun ~src:_ _ -> ())
  done;
  Transport.send tr ~src:(Address.replica 0) ~dst:(Address.replica 3) (Ping 0);
  Transport.broadcast tr ~src:(Address.replica 1) (Ping 1);
  Transport.multicast tr ~src:(Address.replica 2)
    ~dsts:[ Address.replica 0; Address.replica 3 ]
    (Ping 2);
  Sim.run sim;
  Alcotest.(check int) "sent = delivered + dropped"
    (Transport.sent_count tr)
    (Transport.delivered_count tr + Transport.dropped_count tr);
  (* replica 3 is targeted by the send, the broadcast and the
     multicast: three missing-handler drops *)
  Alcotest.(check int) "dropped = missing handlers" 3
    (Transport.dropped_count tr)

(* The per-node delivery queue against a model. Node 0 has a real
   queue; nodes 1-3 have free ones and a fixed 1 ms link, so every
   arrival time is exact and equal times are common. Nodes 1-3 send to
   node 0 at generated times and sizes; node 0 replies to every third
   message from its handler and multicasts from its own timers; crash
   windows cover node 0. The model is the schedule written out as
   events in (time, seq) order: a send claims one seq per copy on the
   wire; the copy's arrival at (arrival, seq) occupies the receiver's
   queue ([Procq.occupy_incoming]); its handler runs at (ready, seq);
   a send occupies the sender's queue ([Procq.occupy_outgoing]) when
   it happens. Every handler call's time and order, node 0's busy time
   and message count, and the delivered and dropped totals must match. *)
type ev =
  | Ev_send of { src : int; dsts : int list; size : int; tag : int }
  | Ev_arrive of { src : int; dst : int; size : int; tag : int }
  | Ev_handle of { src : int; dst : int; tag : int }

let queue_model ~sends ~timers ~crashes =
  let t_in = 0.25 and t_out = 0.125 and mbps = 80.0 and delay = 1.0 in
  let procq i =
    if i = 0 then Procq.create ~t_in_ms:t_in ~t_out_ms:t_out ~bandwidth_mbps:mbps ()
    else Procq.zero ()
  in
  let crashed now node =
    node = 0
    && List.exists (fun (f, d) -> now >= f && now < f +. d) crashes
  in
  (* the model *)
  let qs = Array.init 4 procq in
  let seq = ref 0 and pending = ref [] and calls = ref [] in
  let sent = ref 0 and delivered = ref 0 and dropped = ref 0 in
  let push time kind ev =
    let s = !seq in
    incr seq;
    pending := ((time, s, kind), ev) :: !pending;
    s
  in
  let send now ~src ~dsts ~size ~tag =
    let copies = List.length dsts in
    if crashed now src then begin
      sent := !sent + copies;
      dropped := !dropped + copies
    end
    else begin
      let departure =
        Procq.occupy_outgoing qs.(src) ~now_ms:now ~copies ~size_bytes:size
      in
      List.iter
        (fun dst ->
          incr sent;
          if crashed now dst then incr dropped
          else
            ignore
              (push (departure +. delay) 0 (Ev_arrive { src; dst; size; tag })))
        dsts
    end
  in
  List.iteri
    (fun tag (time, src, size) ->
      ignore (push time 0 (Ev_send { src; dsts = [ 0 ]; size; tag })))
    sends;
  List.iter
    (fun (time, copies, size) ->
      ignore
        (push time 0
           (Ev_send { src = 0; dsts = List.init copies succ; size; tag = -1 })))
    timers;
  let rec loop () =
    match List.sort compare (List.map fst !pending) with
    | [] -> ()
    | ((now, s, _) as key) :: _ ->
        let ev = List.assoc key !pending in
        pending := List.remove_assoc key !pending;
        (match ev with
        | Ev_send { src; dsts; size; tag } -> send now ~src ~dsts ~size ~tag
        | Ev_arrive { src; dst; size; tag } ->
            if crashed now dst then incr dropped
            else
              let ready =
                Procq.occupy_incoming qs.(dst) ~now_ms:now ~size_bytes:size
              in
              pending :=
                ((ready, s, 1), Ev_handle { src; dst; tag }) :: !pending
        | Ev_handle { src; dst; tag } ->
            if crashed now dst then incr dropped
            else begin
              incr delivered;
              calls := (dst, now, tag) :: !calls;
              if dst = 0 && tag mod 3 = 0 then
                send now ~src:0 ~dsts:[ src ] ~size:1250 ~tag
            end);
        loop ()
  in
  loop ();
  let model =
    ( List.rev !calls,
      Procq.busy_time qs.(0),
      Procq.messages_processed qs.(0),
      !delivered,
      !dropped,
      !sent )
  in
  (* the transport *)
  let sim = Sim.create () in
  let faults = Faults.create () in
  List.iter
    (fun (f, d) ->
      Faults.crash faults ~node:(Address.replica 0) ~from_ms:f ~duration_ms:d)
    crashes;
  let topology =
    Topology.custom
      ~replica_regions:(List.init 4 (fun _ -> Region.local))
      ~rtt_ms:(fun _ _ -> 2.0 *. delay)
      ~jitter:0.0 ()
  in
  let tr = Transport.create ~sim ~topology ~faults ~processing:procq () in
  let calls = ref [] in
  for i = 0 to 3 do
    Transport.register tr (Address.replica i) (fun ~src (Ping tag) ->
        calls := (i, Sim.now sim, tag) :: !calls;
        if i = 0 && tag mod 3 = 0 then
          Transport.send tr ~src:(Address.replica 0) ~dst:src ~size_bytes:1250
            (Ping tag))
  done;
  List.iteri
    (fun tag (time, src, size) ->
      ignore
        (Sim.schedule_at sim ~time (fun () ->
             Transport.send tr ~src:(Address.replica src)
               ~dst:(Address.replica 0) ~size_bytes:size (Ping tag))))
    sends;
  List.iter
    (fun (time, copies, size) ->
      ignore
        (Sim.schedule_at sim ~time (fun () ->
             Transport.multicast tr ~src:(Address.replica 0)
               ~dsts:(List.init copies (fun i -> Address.replica (i + 1)))
               ~size_bytes:size (Ping (-1)))))
    timers;
  Sim.run sim;
  let q0 = Transport.procq tr (Address.replica 0) in
  let got =
    ( List.rev !calls,
      Procq.busy_time q0,
      Procq.messages_processed q0,
      Transport.delivered_count tr,
      Transport.dropped_count tr,
      Transport.sent_count tr )
  in
  (model, got)

let prop_delivery_queue_matches_model =
  let quarter = QCheck.Gen.map (fun q -> float_of_int q *. 0.25) in
  let size = QCheck.Gen.oneofl [ 0; 1250; 2500 ] in
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 1 16)
           (triple (quarter (int_bound 15)) (int_range 1 3) size))
        (list_size (int_bound 5)
           (triple (quarter (int_bound 23)) (int_range 1 3) size))
        (list_size (int_bound 2)
           (pair (quarter (int_bound 20)) (quarter (int_range 1 8)))))
  in
  let print (sends, timers, crashes) =
    let f = Printf.sprintf in
    f "sends %s; timers %s; crashes %s"
      (String.concat " " (List.map (fun (t, s, z) -> f "%g:%d:%d" t s z) sends))
      (String.concat " " (List.map (fun (t, c, z) -> f "%g:%d:%d" t c z) timers))
      (String.concat " " (List.map (fun (a, d) -> f "%g+%g" a d) crashes))
  in
  QCheck.Test.make ~name:"delivery queue matches the event model" ~count:1000
    (QCheck.make ~print
       ~shrink:QCheck.Shrink.(triple list list list)
       gen)
    (fun (sends, timers, crashes) ->
      let model, got = queue_model ~sends ~timers ~crashes in
      model = got)

let suite =
  ( "transport",
    [
      Alcotest.test_case "send delivers" `Quick test_send_delivers;
      Alcotest.test_case "delivery has latency" `Quick test_delivery_has_latency;
      Alcotest.test_case "broadcast excludes sender" `Quick test_broadcast_excludes_sender;
      Alcotest.test_case "multicast subset" `Quick test_multicast_subset;
      Alcotest.test_case "drop rule blocks" `Quick test_drop_rule_blocks;
      Alcotest.test_case "crashed receiver drops" `Quick test_crashed_receiver_drops;
      Alcotest.test_case "crashed sender sends nothing" `Quick test_crashed_sender_sends_nothing;
      Alcotest.test_case "crashed sender accounting" `Quick test_crashed_sender_accounting;
      Alcotest.test_case "broadcast cache stable" `Quick test_broadcast_cache_stable_across_calls;
      Alcotest.test_case "unregistered destination drops" `Quick test_unregistered_destination_drops;
      Alcotest.test_case "sent/delivered counts" `Quick test_counts;
      Alcotest.test_case "queueing backpressure" `Quick test_queueing_backpressure;
      Alcotest.test_case "accounting fault-free" `Quick test_accounting_fault_free;
      QCheck_alcotest.to_alcotest prop_accounting_invariant;
      QCheck_alcotest.to_alcotest prop_delivery_queue_matches_model;
    ] )
