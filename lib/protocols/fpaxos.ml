type message = Paxos.message
type replica = Paxos.replica

let name = "fpaxos"
let cpu_factor = Paxos.cpu_factor
let message_label = Paxos.message_label
let default_q2 ~n = (n + 2) / 3

let create (env : message Proto.env) =
  let config = env.Proto.config in
  let config =
    match config.Config.q2_size with
    | Some _ -> config
    | None ->
        { config with Config.q2_size = Some (default_q2 ~n:config.Config.n_replicas) }
  in
  Paxos.create { env with Proto.config }

let on_request = Paxos.on_request
let on_message = Paxos.on_message
let on_start = Paxos.on_start
let on_recover = Paxos.on_recover
let leader_of_key = Paxos.leader_of_key
let is_leader = Paxos.is_leader
let executor = Paxos.executor
let lease_valid = Paxos.lease_valid
let local_reads_served = Paxos.local_reads_served
