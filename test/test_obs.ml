(* lib/obs tracing: telescoping exactness, window filtering, Chrome
   export shape, and end-to-end collection through a traced run. *)

open Paxi_benchmark
module Trace = Paxi_obs.Trace
module Latency_model = Paxi_model.Latency_model

let feed_request tr ?(client = 0) ?(cmd_id = 1) ?(slot = 5) () =
  (* submit 0 ──1.0──▸ arrival ──0.2──▸ start ──0.1──▸ handled(1.3)
     ──0.2──▸ proposed(1.5) ──1.0──▸ quorum(2.5) ──0.2──▸ sent(2.7)
     ──0.3──▸ delivered(3.0) *)
  Trace.on_submit tr ~client ~cmd_id ~is_read:false ~now_ms:0.0;
  Trace.on_request_arrival tr ~client ~cmd_id ~arrival_ms:1.0 ~wait_ms:0.2
    ~service_ms:0.1 ~ready_ms:1.3;
  Trace.on_propose tr ~slot ~client ~cmd_id ~now_ms:1.5;
  Trace.on_quorum tr ~slot ~now_ms:2.5;
  Trace.on_reply tr ~client ~cmd_id ~sent_ms:2.7 ~ready_ms:3.0

let test_telescoping_exact () =
  let tr = Trace.create ~enabled:true () in
  Trace.set_window tr ~from_ms:0.0 ~until_ms:100.0;
  feed_request tr ();
  let m f = Stats.mean (f tr) in
  Alcotest.(check (float 1e-9)) "net in" 1.0 (m Trace.net_in);
  Alcotest.(check (float 1e-9)) "wait" 0.2 (m Trace.wait_in);
  Alcotest.(check (float 1e-9)) "service" 0.1 (m Trace.service_in);
  Alcotest.(check (float 1e-9)) "propose gap" 0.2 (m Trace.propose_gap);
  Alcotest.(check (float 1e-9)) "quorum wait" 1.0 (m Trace.quorum_wait);
  Alcotest.(check (float 1e-9)) "exec+reply" 0.2 (m Trace.exec_reply);
  Alcotest.(check (float 1e-9)) "net out" 0.3 (m Trace.net_out);
  Alcotest.(check (float 1e-9)) "e2e" 3.0 (m Trace.e2e);
  let sum =
    List.fold_left
      (fun acc (_, s) -> acc +. Stats.mean s)
      0.0 (Trace.components tr)
  in
  Alcotest.(check (float 1e-9)) "components telescope" 3.0 sum

let test_fallback_without_quorum_events () =
  (* no propose/quorum: the middle collapses to server residency,
     handled(1.3) ─▸ sent(2.7) = 1.4, and still telescopes *)
  let tr = Trace.create ~enabled:true () in
  Trace.set_window tr ~from_ms:0.0 ~until_ms:100.0;
  Trace.on_submit tr ~client:0 ~cmd_id:1 ~is_read:false ~now_ms:0.0;
  Trace.on_request_arrival tr ~client:0 ~cmd_id:1 ~arrival_ms:1.0 ~wait_ms:0.2
    ~service_ms:0.1 ~ready_ms:1.3;
  Trace.on_reply tr ~client:0 ~cmd_id:1 ~sent_ms:2.7 ~ready_ms:3.0;
  Alcotest.(check (float 1e-9)) "server residency" 1.4
    (Stats.mean (Trace.server_residency tr));
  Alcotest.(check int) "5-way split" 5 (List.length (Trace.components tr));
  let sum =
    List.fold_left
      (fun acc (_, s) -> acc +. Stats.mean s)
      0.0 (Trace.components tr)
  in
  Alcotest.(check (float 1e-9)) "still telescopes" 3.0 sum

let test_window_filtering () =
  let tr = Trace.create ~enabled:true () in
  Trace.set_window tr ~from_ms:100.0 ~until_ms:200.0;
  (* completes before the window opens: excluded from components *)
  feed_request tr ();
  Alcotest.(check int) "warmup excluded" 0 (Stats.count (Trace.e2e tr));
  (* spans and the time series still see it *)
  Alcotest.(check bool) "spans kept" true (Trace.span_count tr > 0);
  Alcotest.(check bool) "series kept" true (Trace.series tr <> [])

let test_retry_keeps_first_submit () =
  let tr = Trace.create ~enabled:true () in
  Trace.set_window tr ~from_ms:0.0 ~until_ms:100.0;
  Trace.on_submit tr ~client:0 ~cmd_id:1 ~is_read:false ~now_ms:0.0;
  (* client retry re-submits the same command later *)
  Trace.on_submit tr ~client:0 ~cmd_id:1 ~is_read:false ~now_ms:5.0;
  Trace.on_request_arrival tr ~client:0 ~cmd_id:1 ~arrival_ms:6.0 ~wait_ms:0.0
    ~service_ms:0.0 ~ready_ms:6.0;
  Trace.on_reply tr ~client:0 ~cmd_id:1 ~sent_ms:6.5 ~ready_ms:7.0;
  (* latency measured from the FIRST submit, like the runner *)
  Alcotest.(check (float 1e-9)) "e2e from first submit" 7.0
    (Stats.mean (Trace.e2e tr))

let test_disabled_is_inert () =
  let tr = Trace.create ~enabled:false () in
  feed_request tr ();
  Trace.on_hop tr ~node:0 ~now_ms:1.0 ~wait_ms:0.5 ~service_ms:0.5;
  Trace.count_msg tr "P2a";
  Alcotest.(check bool) "disabled" false (Trace.enabled tr);
  Alcotest.(check int) "no spans" 0 (Trace.span_count tr);
  Alcotest.(check int) "no samples" 0 (Stats.count (Trace.e2e tr));
  Alcotest.(check (list (pair string int))) "no counters" []
    (Trace.message_counts tr);
  Alcotest.(check (list int)) "no nodes" [] (Trace.node_ids tr)

let test_hop_accounting () =
  let tr = Trace.create ~enabled:true () in
  Trace.set_window tr ~from_ms:0.0 ~until_ms:100.0;
  Trace.on_hop tr ~node:2 ~now_ms:1.0 ~wait_ms:0.25 ~service_ms:0.5;
  Trace.on_hop tr ~node:2 ~now_ms:2.0 ~wait_ms:0.75 ~service_ms:0.5;
  Trace.on_hop tr ~node:0 ~now_ms:3.0 ~wait_ms:0.0 ~service_ms:0.125;
  (* out-of-window hop ignored *)
  Trace.on_hop tr ~node:1 ~now_ms:500.0 ~wait_ms:9.0 ~service_ms:9.0;
  Alcotest.(check (list int)) "nodes" [ 0; 2 ] (Trace.node_ids tr);
  Alcotest.(check (float 1e-9)) "wait sum" 1.0 (Trace.node_wait_ms tr 2);
  Alcotest.(check (float 1e-9)) "busy sum" 1.0 (Trace.node_busy_ms tr 2);
  Alcotest.(check int) "msg count" 2 (Trace.node_msgs tr 2)

let test_chrome_export_shape () =
  let tr = Trace.create ~enabled:true () in
  Trace.set_window tr ~from_ms:0.0 ~until_ms:100.0;
  feed_request tr ();
  match Trace.to_chrome_json tr with
  | Json.Obj fields ->
      (match List.assoc_opt "displayTimeUnit" fields with
      | Some (Json.String "ms") -> ()
      | _ -> Alcotest.fail "displayTimeUnit");
      let events =
        match List.assoc_opt "traceEvents" fields with
        | Some (Json.List es) -> es
        | _ -> Alcotest.fail "traceEvents must be a list"
      in
      (* one metadata event plus the request's spans *)
      Alcotest.(check int) "span count + metadata"
        (Trace.span_count tr + 1)
        (List.length events);
      List.iter
        (fun ev ->
          match ev with
          | Json.Obj f ->
              let require ks =
                List.iter
                  (fun k ->
                    if not (List.mem_assoc k f) then
                      Alcotest.fail (Printf.sprintf "event missing %S" k))
                  ks
              in
              require [ "name"; "ph"; "pid" ];
              (* complete ("X") spans also carry track and timing *)
              if List.assoc_opt "ph" f = Some (Json.String "X") then
                require [ "tid"; "ts"; "dur" ]
          | _ -> Alcotest.fail "event must be an object")
        events;
      (* round-trips through the serializer *)
      let text = Json.to_string (Trace.to_chrome_json tr) in
      (match Json.parse text with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("chrome json reparse: " ^ e))
  | _ -> Alcotest.fail "chrome doc must be an object"

let test_message_counters () =
  let tr = Trace.create ~enabled:true () in
  Trace.count_msg tr "P2a";
  Trace.count_msg tr "P2a";
  Trace.count_msg tr "P1a";
  Alcotest.(check (list (pair string int)))
    "sorted counters"
    [ ("P1a", 1); ("P2a", 2) ]
    (Trace.message_counts tr)

(* End-to-end: a traced benchmark run's dissection telescopes to its
   measured mean within float noise, and carries protocol counters. *)
let test_traced_run_telescopes () =
  let n = 5 in
  let config =
    { (Config.default ~n_replicas:n) with Config.seed = 11; tracing = true }
  in
  let spec =
    Runner.spec ~warmup_ms:200.0 ~duration_ms:800.0 ~config
      ~topology:(Topology.lan ~n_replicas:n ())
      ~client_specs:[ Runner.clients ~target:(Runner.Fixed 0) ~count:8 Workload.default ]
      ()
  in
  let result = Runner.run (Paxi_protocols.Registry.find_exn "paxos") spec in
  let tr = result.Runner.trace in
  let e2e = Trace.e2e tr in
  Alcotest.(check bool) "collected requests" true (Stats.count e2e > 100);
  let sum =
    List.fold_left
      (fun acc (_, s) -> acc +. Stats.mean s)
      0.0 (Trace.components tr)
  in
  let rel = Float.abs (sum -. Stats.mean e2e) /. Stats.mean e2e in
  Alcotest.(check bool)
    (Printf.sprintf "sum %.6f vs e2e %.6f within 1%%" sum (Stats.mean e2e))
    true (rel < 0.01);
  (* trace latency agrees with the runner's own measurement *)
  Alcotest.(check (float 1e-6)) "trace mean = runner mean"
    (Stats.mean result.Runner.latency)
    (Stats.mean e2e);
  Alcotest.(check int) "trace count = runner count"
    (Stats.count result.Runner.latency)
    (Stats.count e2e);
  (* paxos counters present *)
  let counts = Trace.message_counts tr in
  List.iter
    (fun label ->
      match List.assoc_opt label counts with
      | Some c when c > 0 -> ()
      | _ -> Alcotest.fail (Printf.sprintf "missing %s counter" label))
    [ "P2a"; "P2b"; "reply" ];
  (* per-node accounting saw the leader *)
  Alcotest.(check bool) "leader hops recorded" true
    (List.mem 0 (Trace.node_ids tr) && Trace.node_msgs tr 0 > 0)

(* Measured read-path latency agrees with the analytic read model
   (PR 7, the dissect guarantee): an open-loop traced lease run's
   read_e2e mean lands within the relative-error band of
   Latency_model.read_breakdown, and the read/write split telescopes
   to the overall e2e population. *)
let traced_read_run ~read_path ~rate_per_sec ~seed =
  let n = 5 in
  let config =
    {
      (Config.default ~n_replicas:n) with
      Config.seed;
      tracing = true;
      read_path = Some read_path;
    }
  in
  let spec =
    Runner.spec ~warmup_ms:300.0 ~duration_ms:1_500.0 ~config
      ~topology:(Topology.lan ~n_replicas:n ())
      ~client_specs:
        [
          Runner.clients ~target:(Runner.Fixed 0)
            ~arrival:(Runner.Open { rate_per_sec = rate_per_sec /. 4.0 })
            ~count:4
            { Workload.default with Workload.write_ratio = 1.0 -. 0.95 };
        ]
      ()
  in
  Runner.run (Paxi_protocols.Registry.find_exn "paxos") spec

let check_read_band ~name ~kind ~rate_per_sec ~seed ~band =
  let result = traced_read_run ~read_path:kind ~rate_per_sec ~seed in
  let tr = result.Runner.trace in
  let reads = Trace.read_e2e tr in
  let writes = Trace.write_e2e tr in
  Alcotest.(check bool) (name ^ " collected reads") true
    (Stats.count reads > 200);
  Alcotest.(check int)
    (name ^ " split telescopes")
    (Stats.count (Trace.e2e tr))
    (Stats.count reads + Stats.count writes);
  Alcotest.(check bool) (name ^ " fast reads counted") true
    (Trace.fast_reads tr > 0);
  let model_kind =
    match kind with
    | Config.Lease _ -> Latency_model.Local_read
    | Config.Quorum -> Latency_model.Quorum_read
    | Config.Tail -> Latency_model.Tail_read
  in
  let b =
    Latency_model.read_breakdown model_kind
      ~node:(Paxi_model.Service.default_node ~n:5)
      ~lan:Latency_model.default_lan ~rng:(Rng.create ~seed:44)
  in
  let meas = Stats.mean reads in
  let rel =
    Float.abs (meas -. b.Latency_model.total_ms) /. b.Latency_model.total_ms
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s measured %.4f vs model %.4f within %.0f%%" name meas
       b.Latency_model.total_ms (100.0 *. band))
    true (rel < band);
  (* a fast read undercuts the measured write path *)
  if Stats.count writes > 50 then
    Alcotest.(check bool) (name ^ " reads cheaper than writes") true
      (meas < Stats.mean writes)

let test_lease_read_matches_model () =
  check_read_band ~name:"lease"
    ~kind:(Config.Lease { margin_ms = 300.0 })
    ~rate_per_sec:2_000.0 ~seed:21 ~band:0.15

let test_quorum_read_matches_model () =
  check_read_band ~name:"quorum" ~kind:Config.Quorum ~rate_per_sec:600.0
    ~seed:22 ~band:0.20

let suite =
  ( "obs",
    [
      Alcotest.test_case "telescoping exact" `Quick test_telescoping_exact;
      Alcotest.test_case "fallback without quorum events" `Quick
        test_fallback_without_quorum_events;
      Alcotest.test_case "window filtering" `Quick test_window_filtering;
      Alcotest.test_case "retry keeps first submit" `Quick
        test_retry_keeps_first_submit;
      Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
      Alcotest.test_case "hop accounting" `Quick test_hop_accounting;
      Alcotest.test_case "chrome export shape" `Quick test_chrome_export_shape;
      Alcotest.test_case "message counters" `Quick test_message_counters;
      Alcotest.test_case "traced run telescopes" `Slow
        test_traced_run_telescopes;
      Alcotest.test_case "lease read matches model" `Slow
        test_lease_read_matches_model;
      Alcotest.test_case "quorum read matches model" `Slow
        test_quorum_read_matches_model;
    ] )
