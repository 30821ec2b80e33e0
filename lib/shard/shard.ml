module Make (P : Proto.RUNNABLE) = struct
  module C = Cluster.Make (P)

  type t = {
    partitioner : Partitioner.t;
    groups : C.t array;
  }

  let create ?sim ?faults ~config ~topology ~partitioner () =
    let shared = C.create_shared ?sim ?faults ~config ~topology () in
    (* group 0 is created first, so a 1-shard deployment performs
       exactly the same creation sequence (and RNG splits) as the
       classic [C.create] *)
    let groups =
      Array.init (Partitioner.shards partitioner) (fun _ ->
          C.create_group shared)
    in
    { partitioner; groups }

  let sim t = C.sim t.groups.(0)
  let shards t = Array.length t.groups
  let route t ~key = Partitioner.route t.partitioner key

  let register_client t ~id ?region () =
    (* the region assignment is per-topology (shared), so make it once;
       every group's transport gets a reply handler for this client *)
    Array.iteri
      (fun g c ->
        if g = 0 then C.register_client c ~id ?region ()
        else C.register_client c ~id ())
      t.groups

  let nearest_replica t ~shard ~client =
    C.nearest_replica t.groups.(shard) ~client

  let submit t ~shard ~client ~target ~command ~on_reply =
    C.submit t.groups.(shard) ~client ~target ~command ~on_reply

  let pending t ~shard ~client ~command =
    C.pending t.groups.(shard) ~client ~command

  let give_up t ~shard ~client ~command =
    C.give_up t.groups.(shard) ~client ~command

  let replica t ~shard i = C.replica t.groups.(shard) i

  let trace t ~shard = C.trace t.groups.(shard)

  let set_window t ~from_ms ~until_ms =
    Array.iter
      (fun c -> Paxi_obs.Trace.set_window (C.trace c) ~from_ms ~until_ms)
      t.groups

  let busiest_in_shard t ~shard =
    let c = t.groups.(shard) in
    let n = (C.config c).Config.n_replicas in
    let best = ref (0, 0.0) in
    for i = 0 to n - 1 do
      let b = C.replica_busy_ms c i in
      if b > snd !best then best := (i, b)
    done;
    !best

  let busiest t =
    let best = ref (0, 0.0) in
    for shard = 0 to shards t - 1 do
      let i, b = busiest_in_shard t ~shard in
      if b > snd !best then best := (i, b)
    done;
    !best

  let message_counts t =
    Array.fold_left
      (fun (s, d, dr) c ->
        let s', d', dr' = C.message_counts c in
        (s + s', d + d', dr + dr'))
      (0, 0, 0) t.groups

  let retransmit_counts t =
    Array.fold_left
      (fun (r, d) c ->
        let r', d' = C.retransmit_counts c in
        (r + r', d + d'))
      (0, 0) t.groups

  let recovery_counts t =
    Array.fold_left
      (fun (r, ms, tc) c ->
        ( r + C.recoveries c,
          ms +. C.replay_ms_total c,
          tc + C.timers_cancelled c ))
      (0, 0.0, 0) t.groups

  let storage_totals t =
    Array.fold_left
      (fun acc c -> Storage.add_totals acc (C.storage_totals c))
      Storage.no_totals t.groups
end
