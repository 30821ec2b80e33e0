type batching = { max_batch : int; max_wait_ms : float }

type retransmit = { base_ms : float; max_ms : float; max_tries : int }

type read_path =
  | Lease of { margin_ms : float }
  | Quorum
  | Tail

type t = {
  n_replicas : int;
  seed : int;
  msg_size_bytes : int;
  t_in_ms : float;
  t_out_ms : float;
  bandwidth_mbps : float;
  client_timeout_ms : float;
  q2_size : int option;
  fz : int;
  epaxos_penalty : float;
  piggyback_commit : bool;
  thrifty : bool;
  migration_threshold : int;
  failover_timeout_ms : float;
  initial_object_owner : int option;
  master_region_index : int;
  batching : batching option;
  retransmit : retransmit option;
  tracing : bool;
  read_path : read_path option;
  relay_groups : int;
      (** 0 = direct fan-out (the legacy path, byte-identical to
          pre-relay builds); r > 0 partitions the followers into r
          relay groups and routes phase-2 traffic through them. *)
  storage : Storage.config option;
      (** [None] = memory-only replicas: nemesis crashes pause, and
          durability is free (paxos and raft write to
          {!Storage.volatile}). [Some c] arms the stable-storage model:
          persistent writes traverse a simulated fsync queue before a
          replica may ack, and nemesis crashes destroy volatile state
          — recovery reloads only what storage holds. *)
}

let default ~n_replicas =
  {
    n_replicas;
    seed = 42;
    msg_size_bytes = 128;
    t_in_ms = 0.012;
    t_out_ms = 0.008;
    bandwidth_mbps = 10_000.0;
    client_timeout_ms = 1_000.0;
    q2_size = None;
    fz = 0;
    epaxos_penalty = 4.0;
    piggyback_commit = true;
    thrifty = false;
    migration_threshold = 3;
    failover_timeout_ms = 1_000.0;
    initial_object_owner = None;
    master_region_index = 0;
    batching = None;
    retransmit = None;
    tracing = false;
    read_path = None;
    relay_groups = 0;
    storage = None;
  }

let majority t = (t.n_replicas / 2) + 1

let phase2_quorum_size t =
  match t.q2_size with Some q -> q | None -> majority t

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.n_replicas < 1 then err "n_replicas must be >= 1 (got %d)" t.n_replicas
  else if t.t_in_ms < 0.0 || t.t_out_ms < 0.0 then
    err "service times must be non-negative"
  else if t.bandwidth_mbps <= 0.0 then err "bandwidth must be positive"
  else if t.client_timeout_ms <= 0.0 then err "client timeout must be positive"
  else if t.fz < 0 then err "fz must be non-negative"
  else if t.epaxos_penalty < 1.0 then err "epaxos_penalty must be >= 1.0"
  else if t.migration_threshold < 1 then err "migration_threshold must be >= 1"
  else if t.failover_timeout_ms <= 0.0 then err "failover timeout must be positive"
  else if t.master_region_index < 0 then err "master_region_index must be >= 0"
  else if
    match t.read_path with Some (Lease l) -> l.margin_ms < 0.0 | _ -> false
  then err "read_path lease margin_ms must be >= 0"
  else if t.relay_groups < 0 || t.relay_groups >= t.n_replicas then
    err "relay_groups %d out of range 0..%d" t.relay_groups (t.n_replicas - 1)
  else if t.relay_groups > 0 && t.thrifty then
    (* thrifty trims the phase-2 copy list below the follower set; a
       relay round always covers every follower, so the two knobs
       contradict each other *)
    err "relay_groups is incompatible with thrifty"
  else if
    (* a relay's ack bitmap is one immediate int; cap group size below
       the 63-bit word (largest group = ceil((n-1)/r)) *)
    t.relay_groups > 0
    && (t.n_replicas - 2 + t.relay_groups) / t.relay_groups > 62
  then
    err "relay_groups %d gives groups of more than 62 members at n=%d"
      t.relay_groups t.n_replicas
  else
    match Option.map Storage.validate_config t.storage with
    | Some (Error e) -> err "%s" e
    | _ ->
    match t.retransmit with
    | Some r when r.max_tries < 0 -> err "retransmit.max_tries must be >= 0"
    | Some r when r.max_tries > 0 && r.base_ms <= 0.0 ->
        err "retransmit.base_ms must be positive"
    | Some r when r.max_tries > 0 && r.max_ms < r.base_ms ->
        err "retransmit.max_ms must be >= base_ms"
    | _ -> (
    match t.batching with
    | Some b when b.max_batch < 1 ->
        err "batching.max_batch must be >= 1 (got %d)" b.max_batch
    | Some b when b.max_wait_ms < 0.0 ->
        err "batching.max_wait_ms must be >= 0"
    | _ -> (
    match t.q2_size with
    | Some q when q < 1 || q > t.n_replicas ->
        err "q2_size %d out of range 1..%d" q t.n_replicas
    | Some q ->
        (* FPaxos safety: |q1| + |q2| > N with q1 = N - q2 + 1 holds by
           construction; reject q2 that would force an empty q1. *)
        if t.n_replicas - q + 1 < 1 then err "q2_size %d leaves no q1" q
        else Ok ()
    | None -> Ok ()))

let to_json t =
  Json.Obj
    ([
       ("n_replicas", Json.Number (float_of_int t.n_replicas));
       ("seed", Json.Number (float_of_int t.seed));
       ("msg_size_bytes", Json.Number (float_of_int t.msg_size_bytes));
       ("t_in_ms", Json.Number t.t_in_ms);
       ("t_out_ms", Json.Number t.t_out_ms);
       ("bandwidth_mbps", Json.Number t.bandwidth_mbps);
       ("client_timeout_ms", Json.Number t.client_timeout_ms);
       ("fz", Json.Number (float_of_int t.fz));
       ("epaxos_penalty", Json.Number t.epaxos_penalty);
       ("piggyback_commit", Json.Bool t.piggyback_commit);
       ("thrifty", Json.Bool t.thrifty);
       ("migration_threshold", Json.Number (float_of_int t.migration_threshold));
       ("failover_timeout_ms", Json.Number t.failover_timeout_ms);
       ("master_region_index", Json.Number (float_of_int t.master_region_index));
       ("tracing", Json.Bool t.tracing);
     ]
    @ (match t.q2_size with
      | Some q -> [ ("q2_size", Json.Number (float_of_int q)) ]
      | None -> [])
    @ (match t.initial_object_owner with
      | Some o -> [ ("initial_object_owner", Json.Number (float_of_int o)) ]
      | None -> [])
    @ (if t.relay_groups > 0 then
         [ ("relay_groups", Json.Number (float_of_int t.relay_groups)) ]
       else [])
    @ (match t.storage with
      | Some s -> [ ("storage", Storage.config_to_json s) ]
      | None -> [])
    @ (match t.read_path with
      | Some (Lease { margin_ms }) ->
          [
            ( "read_path",
              Json.Obj
                [
                  ("mode", Json.String "lease");
                  ("margin_ms", Json.Number margin_ms);
                ] );
          ]
      | Some Quorum ->
          [ ("read_path", Json.Obj [ ("mode", Json.String "quorum") ]) ]
      | Some Tail -> [ ("read_path", Json.Obj [ ("mode", Json.String "tail") ]) ]
      | None -> [])
    @ (match t.batching with
      | Some b ->
          [
            ( "batching",
              Json.Obj
                [
                  ("max_batch", Json.Number (float_of_int b.max_batch));
                  ("max_wait_ms", Json.Number b.max_wait_ms);
                ] );
          ]
      | None -> [])
    @
    match t.retransmit with
    | Some r ->
        [
          ( "retransmit",
            Json.Obj
              [
                ("base_ms", Json.Number r.base_ms);
                ("max_ms", Json.Number r.max_ms);
                ("max_tries", Json.Number (float_of_int r.max_tries));
              ] );
        ]
    | None -> [])

let known_fields =
  [
    "n_replicas"; "seed"; "msg_size_bytes"; "t_in_ms"; "t_out_ms";
    "bandwidth_mbps"; "client_timeout_ms"; "q2_size"; "fz";
    "epaxos_penalty"; "piggyback_commit"; "thrifty";
    "migration_threshold"; "failover_timeout_ms";
    "initial_object_owner";
    "master_region_index";
    "batching";
    "retransmit";
    "tracing";
    "read_path";
    "relay_groups";
    "storage";
  ]

let of_json json =
  match json with
  | Json.Obj fields -> (
      match
        List.find_opt (fun (k, _) -> not (List.mem k known_fields)) fields
      with
      | Some (k, _) -> Error (Printf.sprintf "unknown configuration field %S" k)
      | None -> (
          let intf name fallback =
            match Json.member name json with
            | Some v -> (
                match Json.to_int v with
                | Some i -> Ok i
                | None -> Error (Printf.sprintf "%s must be an integer" name))
            | None -> Ok fallback
          in
          let floatf name fallback =
            match Json.member name json with
            | Some v -> (
                match Json.to_float v with
                | Some f -> Ok f
                | None -> Error (Printf.sprintf "%s must be a number" name))
            | None -> Ok fallback
          in
          let boolf name fallback =
            match Json.member name json with
            | Some v -> (
                match Json.to_bool v with
                | Some b -> Ok b
                | None -> Error (Printf.sprintf "%s must be a boolean" name))
            | None -> Ok fallback
          in
          let opt_int name =
            match Json.member name json with
            | Some Json.Null | None -> Ok None
            | Some v -> (
                match Json.to_int v with
                | Some i -> Ok (Some i)
                | None -> Error (Printf.sprintf "%s must be an integer" name))
          in
          let ( let* ) = Result.bind in
          let* n_replicas = intf "n_replicas" 0 in
          if n_replicas < 1 then Error "n_replicas is required and must be >= 1"
          else
            let d = default ~n_replicas in
            let* seed = intf "seed" d.seed in
            let* msg_size_bytes = intf "msg_size_bytes" d.msg_size_bytes in
            let* t_in_ms = floatf "t_in_ms" d.t_in_ms in
            let* t_out_ms = floatf "t_out_ms" d.t_out_ms in
            let* bandwidth_mbps = floatf "bandwidth_mbps" d.bandwidth_mbps in
            let* client_timeout_ms = floatf "client_timeout_ms" d.client_timeout_ms in
            let* q2_size = opt_int "q2_size" in
            let* fz = intf "fz" d.fz in
            let* epaxos_penalty = floatf "epaxos_penalty" d.epaxos_penalty in
            let* piggyback_commit = boolf "piggyback_commit" d.piggyback_commit in
            let* thrifty = boolf "thrifty" d.thrifty in
            let* migration_threshold = intf "migration_threshold" d.migration_threshold in
            let* failover_timeout_ms = floatf "failover_timeout_ms" d.failover_timeout_ms in
            let* initial_object_owner = opt_int "initial_object_owner" in
            let* master_region_index = intf "master_region_index" d.master_region_index in
            let* tracing = boolf "tracing" d.tracing in
            let* batching =
              match Json.member "batching" json with
              | Some Json.Null | None -> Ok None
              | Some (Json.Obj _ as b) -> (
                  match
                    ( Option.bind (Json.member "max_batch" b) Json.to_int,
                      Option.bind (Json.member "max_wait_ms" b) Json.to_float )
                  with
                  | Some max_batch, Some max_wait_ms ->
                      Ok (Some { max_batch; max_wait_ms })
                  | _ ->
                      Error
                        "batching requires integer max_batch and numeric \
                         max_wait_ms"
                  )
              | Some _ -> Error "batching must be an object or null"
            in
            let* retransmit =
              match Json.member "retransmit" json with
              | Some Json.Null | None -> Ok None
              | Some (Json.Obj _ as r) -> (
                  match
                    ( Option.bind (Json.member "base_ms" r) Json.to_float,
                      Option.bind (Json.member "max_ms" r) Json.to_float,
                      Option.bind (Json.member "max_tries" r) Json.to_int )
                  with
                  | Some base_ms, Some max_ms, Some max_tries ->
                      Ok (Some { base_ms; max_ms; max_tries })
                  | _ ->
                      Error
                        "retransmit requires numeric base_ms and max_ms and \
                         integer max_tries"
                  )
              | Some _ -> Error "retransmit must be an object or null"
            in
            let* read_path =
              match Json.member "read_path" json with
              | Some Json.Null | None -> Ok None
              | Some (Json.Obj _ as rp) -> (
                  match Option.bind (Json.member "mode" rp) Json.get_string with
                  | Some "lease" -> (
                      match
                        Option.bind (Json.member "margin_ms" rp) Json.to_float
                      with
                      | Some margin_ms -> Ok (Some (Lease { margin_ms }))
                      | None ->
                          Error "read_path lease requires numeric margin_ms")
                  | Some "quorum" -> Ok (Some Quorum)
                  | Some "tail" -> Ok (Some Tail)
                  | _ ->
                      Error
                        "read_path mode must be \"lease\", \"quorum\" or \
                         \"tail\"")
              | Some _ -> Error "read_path must be an object or null"
            in
            let* relay_groups = intf "relay_groups" d.relay_groups in
            let* storage =
              match Json.member "storage" json with
              | Some Json.Null | None -> Ok None
              | Some (Json.Obj _ as s) ->
                  Result.map Option.some (Storage.config_of_json s)
              | Some _ -> Error "storage must be an object or null"
            in
            let config =
              {
                n_replicas; seed; msg_size_bytes; t_in_ms; t_out_ms;
                bandwidth_mbps; client_timeout_ms; q2_size; fz;
                epaxos_penalty; piggyback_commit; thrifty; migration_threshold;
                failover_timeout_ms; initial_object_owner;
                master_region_index; batching; retransmit; tracing;
                read_path; relay_groups; storage;
              }
            in
            let* () = validate config in
            Ok config))
  | _ -> Error "configuration must be a JSON object"

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> Result.bind (Json.parse contents) of_json
  | exception Sys_error msg -> Error msg
