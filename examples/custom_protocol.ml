(* The paper's pitch for Paxi (§4, Fig. 5) is that a developer only
   fills in two shaded blocks — the message structures and the replica
   logic — and inherits networking, quorums, the datastore, the
   benchmarker and the checkers. This example makes that concrete: a
   complete primary-backup replication protocol in ~80 lines, then
   driven by the shared benchmark runner and validated with the shared
   linearizability checker.

   (Primary-backup is NOT fault tolerant — if any backup is down,
   writes stall; that's the point of the consensus protocols in
   lib/protocols. It is, however, linearizable while everyone is up.)

   dune exec examples/custom_protocol.exe *)

open Paxi_benchmark

module Primary_backup = struct
  (* Block 1: the messages. *)
  type message =
    | Replicate of { seq : int; cmd : Command.t; client : Address.t }
    | Ack of { seq : int }

  (* Block 2: the replica. *)
  type replica = {
    env : message Proto.env;
    exec : Executor.t;
    mutable next_seq : int;
    (* primary: commands awaiting acks from every backup *)
    waiting : (int, Command.t * Address.t * Quorum.t) Hashtbl.t;
  }

  let name = "primary-backup"
  let cpu_factor _ = 1.0
  let message_label = function Replicate _ -> "Replicate" | Ack _ -> "Ack"

  let create env =
    { env; exec = Executor.create (); next_seq = 0; waiting = Hashtbl.create 32 }

  let primary = 0
  let is_primary t = t.env.Proto.id = primary

  let reply t ~client ~cmd ~read =
    t.env.Proto.reply client
      { Proto.command = cmd; read; replier = t.env.Proto.id; leader_hint = Some primary }

  let on_request t ~client (cmd : Command.t) =
    if not (is_primary t) then t.env.Proto.forward primary ~client cmd
    else if Command.is_read cmd then
      (* reads are served at the primary, which has every acked write *)
      reply t ~client ~cmd ~read:(Executor.execute t.exec cmd)
    else begin
      (* writes replicate to ALL backups before answering *)
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      let everyone = List.init t.env.Proto.n Fun.id in
      let quorum =
        Quorum.create (Quorum.Count { members = everyone; threshold = t.env.Proto.n })
      in
      Quorum.ack quorum primary;
      Hashtbl.replace t.waiting seq (cmd, client, quorum);
      t.env.Proto.broadcast (Replicate { seq; cmd; client })
    end

  let on_message t ~src = function
    | Replicate { seq; cmd; _ } ->
        ignore (Executor.execute t.exec cmd);
        t.env.Proto.send src (Ack { seq })
    | Ack { seq } -> (
        match Hashtbl.find_opt t.waiting seq with
        | None -> ()
        | Some (cmd, client, quorum) ->
            Quorum.ack quorum src;
            if Quorum.satisfied quorum then begin
              Hashtbl.remove t.waiting seq;
              let read = Executor.execute t.exec cmd in
              reply t ~client ~cmd ~read
            end)

  let on_start _ = ()
  let on_recover _ = ()
  let leader_of_key _ _ = Some primary
  let executor t = t.exec
end

let () =
  (* Drive it with the shared benchmark runner on a 5-node LAN... *)
  let spec =
    Runner.spec ~warmup_ms:500.0 ~duration_ms:5_000.0 ~collect_history:true
      ~config:(Config.default ~n_replicas:5)
      ~topology:(Topology.lan ~n_replicas:5 ())
      ~client_specs:
        [ Runner.clients ~target:Runner.Round_robin ~count:8 Workload.default ]
      ()
  in
  let result = Runner.run (module Primary_backup) spec in
  Printf.printf "primary-backup: %.0f ops/s, mean %.3f ms, p99 %.3f ms\n"
    result.Runner.throughput_rps
    (Stats.mean result.Runner.latency)
    (Stats.percentile result.Runner.latency 99.0);

  (* ... and validate it with the shared checker. *)
  let anomalies = Linearizability.check result.Runner.history in
  Printf.printf "linearizable: %s\n"
    (if anomalies = [] then "yes" else Printf.sprintf "NO (%d)" (List.length anomalies));

  (* Writes wait for ALL nodes, so one crashed backup stalls them —
     exactly the availability gap consensus closes. *)
  let stall_spec =
    Runner.spec ~warmup_ms:500.0 ~duration_ms:5_000.0 ~max_retries:1
      ~faults:(fun f ->
        Faults.crash f ~node:(Address.replica 4) ~from_ms:1_000.0
          ~duration_ms:60_000.0)
      ~config:(Config.default ~n_replicas:5)
      ~topology:(Topology.lan ~n_replicas:5 ())
      ~client_specs:
        [ Runner.clients ~target:(Runner.Fixed 0) ~count:4
            { Workload.default with Workload.write_ratio = 1.0 } ]
      ()
  in
  let stalled = Runner.run (module Primary_backup) stall_spec in
  Printf.printf
    "with one backup down: %.0f ops/s (%d abandoned) — compare paxos, which \
     rides out a minority crash\n"
    stalled.Runner.throughput_rps stalled.Runner.gave_up
