type t = {
  paxos : Paxos.replica;
  me : int; (* this member's local id *)
  self : int; (* this member's global id *)
  global : int array; (* local id -> global id *)
  local : int array; (* global id -> local id, -1 off the zone *)
  forward : int -> client:Address.t -> Command.t -> unit;
  drain : unit -> unit; (* runs [on_committed] on the executed commands *)
  on_lead : unit -> unit;
  depth : int ref; (* adapter calls in progress on this member *)
  held : (Address.t * Command.t) Queue.t; (* awaiting a known leader *)
  mutable term : int; (* ballot round of this member's current term, -1 if none *)
  mutable barrier : int; (* last slot of earlier terms at the term's start *)
  mutable ready : bool; (* the term's barrier has executed *)
}

(* Commands with no client travel under this address; no client has a
   negative id, and the adapter answers it itself. *)
let synthetic = Address.client (-1)
let is_synthetic client = Address.equal client synthetic

(* The settings the zone group does not run, cleared in one place:
   relay trees, read paths, batching, thrifty and flexible phase-2
   quorums are measured on the flat protocols, and a zone group never
   honoured them. [n_replicas] is the zone's size, so paxos's quorums
   are zone majorities. *)
let zone_config (c : Config.t) ~k =
  {
    c with
    Config.n_replicas = k;
    relay_groups = 0;
    read_path = None;
    batching = None;
    thrifty = false;
    q2_size = None;
  }

type committed = Claim of int | Record of int

let create ~(env : 'outer Proto.env) ~wrap ~members ~on_committed ~on_lead =
  let global = Array.of_list members in
  let local = Array.make env.Proto.n (-1) in
  Array.iteri (fun i g -> local.(g) <- i) global;
  if local.(env.Proto.id) < 0 then
    invalid_arg "Zone_paxos.create: replica not in members";
  let gs = List.map (Array.get global) in
  let peers = List.filter (fun m -> m <> env.Proto.id) members in
  let rel = env.Proto.rel in
  (* zone-internal commands executed, awaiting [on_committed]: paxos
     executes inside its own calls (synchronously, in a one-member
     zone), and the enclosing protocol may propose again from
     [on_committed], so it runs only once paxos has returned *)
  let executed = Queue.create () and depth = ref 0 in
  let drain () =
    while not (Queue.is_empty executed) do
      let cmd = Queue.pop executed in
      let key = -2 - cmd.Command.client in
      match (cmd.Command.id land 3, cmd.Command.op) with
      | (1 | 2), Command.Put (_, c) -> on_committed key (Claim c)
      | 3, Command.Put (_, v) -> on_committed key (Record v)
      | _ -> ()
    done
  in
  (* keys of the posts made through the adapter: a paxos step-down
     withdraws these and nothing the enclosing protocol posted *)
  let posts = Hashtbl.create 16 in
  let post ?key ?size_bytes ~ack dsts m =
    let key = rel.Proto.post_multi ?key ?size_bytes ~ack dsts (wrap m) in
    Hashtbl.replace posts key ();
    key
  in
  let multicast dsts m = if dsts <> [] then env.Proto.multicast dsts (wrap m) in
  let multicast_sized dsts ~size_bytes m =
    if dsts <> [] then env.Proto.multicast_sized dsts ~size_bytes (wrap m)
  in
  let zenv =
    {
      Proto.id = local.(env.Proto.id);
      n = Array.length global;
      config = zone_config env.Proto.config ~k:(Array.length global);
      (* read only under thrifty, which the zone config clears *)
      topology = env.Proto.topology;
      rng = env.Proto.rng;
      now = env.Proto.now;
      clock = env.Proto.clock;
      schedule = env.Proto.schedule;
      cancel = env.Proto.cancel;
      send = (fun dst m -> env.Proto.send global.(dst) (wrap m));
      broadcast = multicast peers;
      multicast = (fun dsts -> multicast (gs dsts));
      send_sized =
        (fun dst ~size_bytes m -> env.Proto.send_sized global.(dst) ~size_bytes (wrap m));
      broadcast_sized = multicast_sized peers;
      multicast_sized = (fun dsts -> multicast_sized (gs dsts));
      reply =
        (fun client (r : Proto.reply) ->
          if is_synthetic client then begin
            Queue.push r.Proto.command executed;
            (* executed from a paxos timer: drain once it returns *)
            if !depth = 0 then ignore (env.Proto.schedule 0.0 drain)
          end
          else
            env.Proto.reply client
              {
                r with
                Proto.replier = global.(r.Proto.replier);
                leader_hint = Option.map (Array.get global) r.Proto.leader_hint;
              });
      forward = (fun dst -> env.Proto.forward global.(dst));
      rel =
        {
          rel with
          Proto.post = (fun ?key ?size_bytes ~ack dst -> post ?key ?size_bytes ~ack [ global.(dst) ]);
          post_multi = (fun ?key ?size_bytes ~ack dsts -> post ?key ?size_bytes ~ack (gs dsts));
          post_all = (fun ?key ?size_bytes ~ack -> post ?key ?size_bytes ~ack peers);
          settle = (fun ~dst -> rel.Proto.settle ~dst:global.(dst));
          settle_all =
            (fun ~key ->
              Hashtbl.remove posts key;
              rel.Proto.settle_all ~key);
          unpost_all =
            (fun () ->
              Hashtbl.iter (fun key () -> rel.Proto.settle_all ~key) posts;
              Hashtbl.reset posts);
        };
      (* per-zone slot numbers would collide in the cluster's trace *)
      obs = Proto.null_obs;
      storage = env.Proto.storage;
    }
  in
  {
    paxos = Paxos.create zenv;
    me = zenv.Proto.id;
    self = env.Proto.id;
    global;
    local;
    forward = env.Proto.forward;
    drain;
    on_lead;
    depth;
    held = Queue.create ();
    term = -1;
    barrier = -1;
    ready = false;
  }

let is_leader t = t.ready && Paxos.is_leader t.paxos
let executor t = Paxos.executor t.paxos
let value t key = Kv.get (State_machine.store (Executor.state_machine (executor t))) key

let leader t =
  if Paxos.is_leader t.paxos then (if t.ready then Some t.self else None)
  else
    match Paxos.leader_of_key t.paxos 0 with
    | Some owner when owner <> t.me -> Some t.global.(owner)
    | _ -> None

(* Every call into paxos goes through here. *)
let call t f =
  incr t.depth;
  f t.paxos;
  t.drain ();
  decr t.depth

let propose t ~client cmd = call t (fun p -> Paxos.on_request p ~client cmd)

let to_leader t ~client cmd =
  match leader t with
  | Some l -> t.forward l ~client cmd
  | None -> Queue.push (client, cmd) t.held

(* Track this member's term: a term starts when paxos elects it, and
   the member leads once every slot logged by then has executed. Held
   requests go out as soon as a leader is known. *)
let refresh t =
  if Paxos.is_leader t.paxos then begin
    let round = (Paxos.current_ballot t.paxos).Ballot.round in
    if round <> t.term then begin
      t.term <- round;
      t.ready <- false;
      t.barrier <- Paxos.last_proposed_slot t.paxos
    end;
    if (not t.ready) && Paxos.commit_frontier t.paxos > t.barrier then begin
      t.ready <- true;
      t.on_lead ()
    end
  end
  else begin
    t.term <- -1;
    t.ready <- false
  end;
  if (not (Queue.is_empty t.held)) && leader t <> None then begin
    let held = Queue.copy t.held in
    Queue.clear t.held;
    Queue.iter (fun (client, cmd) -> to_leader t ~client cmd) held
  end

let admit t ~client cmd =
  refresh t;
  if is_synthetic client then begin
    (* a zone-internal command forwarded by a member's paxos *)
    propose t ~client cmd;
    false
  end
  else if t.ready then true
  else begin
    to_leader t ~client cmd;
    false
  end

let on_message t ~src m =
  if t.local.(src) >= 0 then begin
    call t (fun p -> Paxos.on_message p ~src:t.local.(src) m);
    refresh t
  end

let on_start t =
  call t Paxos.on_start;
  refresh t

let on_recover t =
  call t Paxos.on_recover;
  refresh t

(* ---- claims and records ------------------------------------------

   Both live on negative keys (client keys are non-negative): an
   object's claim on [-1 - 2 key], its record on [-2 - 2 key]. A
   zone-internal command is named [(writer -2 - key, id 4 gen + step)]:
   step 0 re-commits the value taken over, 1 takes [gen], 2 gives it
   away, 3 records. The executor applies a name once, and one name
   always stands for one content, so a re-sent move applies once and a
   name survives crashes and leader changes. *)

let claim_key key = -1 - (2 * key)
let record_key key = -2 - (2 * key)

let submit t ~key ~gen ~step op =
  propose t ~client:synthetic
    (Command.make ~id:((4 * gen) + step) ~client:(-2 - key) op)

let claim t key = value t (claim_key key)
let recorded t key = value t (record_key key)

let take t key ~gen v =
  if value t key <> v then
    submit t ~key ~gen ~step:0
      (match v with Some v -> Command.Put (key, v) | None -> Command.Delete key);
  submit t ~key ~gen ~step:1 (Command.Put (claim_key key, (2 * gen) + 1))

let give t key ~gen = submit t ~key ~gen ~step:2 (Command.Put (claim_key key, 2 * gen))
let record t key ~gen v = submit t ~key ~gen ~step:3 (Command.Put (record_key key, v))

let taken t =
  Kv.keys (State_machine.store (Executor.state_machine (executor t)))
  |> List.filter_map (fun k ->
         if k < 0 && k land 1 = 1 && Option.value (value t k) ~default:0 land 1 = 1
         then Some ((-1 - k) / 2)
         else None)

(* ---- zones --------------------------------------------------------- *)

type zones = {
  zone_members : int list array;
  mine : int;
  speaker : int array; (* per zone, the replica that last spoke for it *)
  zone_of : int array; (* replica -> zone *)
}

let zones (env : _ Proto.env) =
  let topology = env.Proto.topology in
  let zone_members = Topology.zones topology in
  let zone_of = Array.make env.Proto.n (-1) in
  Array.iteri (fun z -> List.iter (fun r -> zone_of.(r) <- z)) zone_members;
  {
    zone_members;
    mine = zone_of.(env.Proto.id);
    speaker =
      Array.map
        (function first :: _ -> first | [] -> invalid_arg "Zone_paxos.zones: empty zone")
        zone_members;
    zone_of;
  }

let my_zone z = z.mine
let count z = Array.length z.zone_members
let members z zone = z.zone_members.(zone)
let address z zone = z.speaker.(zone)
let heard z ~zone ~src = if z.zone_of.(src) = zone then z.speaker.(zone) <- src
