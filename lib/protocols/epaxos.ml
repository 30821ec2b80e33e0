type iid = int * int
(** (command-leader replica, instance number) *)

type message =
  | PreAccept of { iid : iid; cmd : Command.t; seq : int; deps : iid list }
  | PreAcceptOk of { iid : iid; seq : int; deps : iid list }
  | Accept of { iid : iid; cmd : Command.t; seq : int; deps : iid list }
  | AcceptOk of { iid : iid }
  | Commit of { iid : iid; cmd : Command.t; seq : int; deps : iid list }

let name = "epaxos"
let cpu_factor (c : Config.t) = c.Config.epaxos_penalty

let message_label = function
  | PreAccept _ -> "PreAccept"
  | PreAcceptOk _ -> "PreAcceptOk"
  | Accept _ -> "Accept"
  | AcceptOk _ -> "AcceptOk"
  | Commit _ -> "Commit"

type status = Pre_accepted | Accepted_st | Committed_st | Executed_st

type inst = {
  iid : iid;
  mutable cmd : Command.t;
  mutable seq : int;
  mutable deps : iid list;
  mutable status : status;
  mutable client : Address.t option;
  mutable fast_q : Quorum.t option;
  mutable accept_q : Quorum.t option;
  mutable identical : bool;
}

type replica = {
  env : message Proto.env;
  instances : (iid, inst) Hashtbl.t;
  mutable next_no : int;
  (* newest write and newest read per (key, command-leader). They are
     tracked separately: if a read could displace the last write, a
     later read would lose its dependency on that write (reads do not
     interfere with reads, so the chain would break). *)
  last_write_on_key : (Command.key, iid array) Hashtbl.t;
  last_read_on_key : (Command.key, iid array) Hashtbl.t;
  exec : Executor.t;
  mutable blocked : iid list; (* committed, awaiting deps *)
  mutable executed : int;
  mutable fast_commits : int;
  mutable slow_commits : int;
}

let create env =
  {
    env;
    instances = Hashtbl.create 1024;
    next_no = 0;
    last_write_on_key = Hashtbl.create 256;
    last_read_on_key = Hashtbl.create 256;
    exec = Executor.create ();
    blocked = [];
    executed = 0;
    fast_commits = 0;
    slow_commits = 0;
  }

let executor t = t.exec
let executed_count t = t.executed
let fast_path_count t = t.fast_commits
let slow_path_count t = t.slow_commits
let leader_of_key _ _ = None

let none_iid = (-1, -1)

let key_slots tbl n key =
  match Hashtbl.find_opt tbl key with
  | Some a -> a
  | None ->
      let a = Array.make n none_iid in
      Hashtbl.add tbl key a;
      a

let note_instance t (inst : inst) =
  if not (Command.is_noop inst.cmd) then begin
    let tbl =
      if Command.is_write inst.cmd then t.last_write_on_key
      else t.last_read_on_key
    in
    let slots = key_slots tbl t.env.n (Command.key inst.cmd) in
    let owner, no = inst.iid in
    let _, cur = slots.(owner) in
    if no > cur then slots.(owner) <- inst.iid
  end

let find t iid = Hashtbl.find_opt t.instances iid

(* Local interference: latest instance per replica whose command
   conflicts with [cmd]. *)
let local_attrs t cmd =
  if Command.is_noop cmd then (1, [])
  else begin
    let key = Command.key cmd in
    let deps = ref [] and max_seq = ref 0 in
    let scan tbl =
      Array.iter
        (fun iid ->
          if iid <> none_iid then
            match find t iid with
            | Some i when Command.conflicts i.cmd cmd ->
                deps := iid :: !deps;
                if i.seq > !max_seq then max_seq := i.seq
            | _ -> ())
        (key_slots tbl t.env.n key)
    in
    scan t.last_write_on_key;
    (* reads never interfere with reads, so scanning them only
       matters for writes; Command.conflicts filters anyway *)
    if Command.is_write cmd then scan t.last_read_on_key;
    (!max_seq + 1, List.sort_uniq compare !deps)
  end

let union_deps a b =
  List.sort_uniq compare (List.rev_append a b)

let phase_rank = function
  | Pre_accepted -> 0
  | Accepted_st -> 1
  | Committed_st -> 2
  | Executed_st -> 3

let record t iid cmd seq deps status client =
  match find t iid with
  | Some i ->
      (* A lower-phase message that was reordered behind a higher-phase
         one must not overwrite the authoritative attributes: a stale
         PreAccept arriving after Commit would replace the committed
         dependency set and break execution ordering. *)
      if phase_rank status >= phase_rank i.status then begin
        i.cmd <- cmd;
        i.seq <- seq;
        i.deps <- deps;
        i.status <- status
      end;
      if client <> None then i.client <- client;
      note_instance t i;
      i
  | None ->
      let i =
        {
          iid;
          cmd;
          seq;
          deps;
          status;
          client;
          fast_q = None;
          accept_q = None;
          identical = true;
        }
      in
      Hashtbl.add t.instances iid i;
      note_instance t i;
      i

(* -- Execution: Tarjan SCC over committed dependency graph -------- *)

exception Blocked

(* Gather all instances transitively reachable from [root] through
   dependencies, stopping at executed ones; raise if any is not yet
   committed locally. *)
let reachable t root =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec go iid =
    if not (Hashtbl.mem seen iid) then begin
      Hashtbl.add seen iid ();
      match find t iid with
      | None -> raise Blocked
      | Some i -> (
          match i.status with
          | Executed_st -> ()
          | Pre_accepted | Accepted_st -> raise Blocked
          | Committed_st ->
              acc := i :: !acc;
              List.iter go i.deps)
    end
  in
  go root;
  !acc

let tarjan (nodes : inst list) =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let node_set = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace node_set i.iid i) nodes;
  let rec strongconnect (v : inst) =
    Hashtbl.replace index v.iid !counter;
    Hashtbl.replace lowlink v.iid !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v.iid ();
    List.iter
      (fun w_iid ->
        match Hashtbl.find_opt node_set w_iid with
        | None -> () (* executed already; not part of the graph *)
        | Some w ->
            if not (Hashtbl.mem index w.iid) then begin
              strongconnect w;
              Hashtbl.replace lowlink v.iid
                (Stdlib.min
                   (Hashtbl.find lowlink v.iid)
                   (Hashtbl.find lowlink w.iid))
            end
            else if Hashtbl.mem on_stack w.iid then
              Hashtbl.replace lowlink v.iid
                (Stdlib.min
                   (Hashtbl.find lowlink v.iid)
                   (Hashtbl.find index w.iid)))
      v.deps;
    if Hashtbl.find lowlink v.iid = Hashtbl.find index v.iid then begin
      let component = ref [] in
      let continue = ref true in
      while !continue do
        match !stack with
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w.iid;
            component := w :: !component;
            if w.iid = v.iid then continue := false
        | [] -> continue := false
      done;
      components := !component :: !components
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v.iid) then strongconnect v) nodes;
  (* Tarjan emits each SCC after all SCCs it depends on; execution
     order is emission order. *)
  List.rev !components

let execute_instance t (i : inst) =
  i.status <- Executed_st;
  t.executed <- t.executed + 1;
  let read = Executor.execute t.exec i.cmd in
  match i.client with
  | Some client ->
      i.client <- None;
      t.env.reply client
        { Proto.command = i.cmd; read; replier = t.env.id; leader_hint = None }
  | None -> ()

let try_execute t root_iid =
  match reachable t root_iid with
  | exception Blocked ->
      if not (List.mem root_iid t.blocked) then
        t.blocked <- root_iid :: t.blocked
  | [] -> ()
  | nodes ->
      let components = tarjan nodes in
      List.iter
        (fun comp ->
          let ordered =
            List.sort
              (fun a b ->
                match Int.compare a.seq b.seq with
                | 0 -> compare a.iid b.iid
                | c -> c)
              comp
          in
          List.iter (fun i -> if i.status = Committed_st then execute_instance t i) ordered)
        components

let retry_blocked t =
  let pending = t.blocked in
  t.blocked <- [];
  List.iter
    (fun iid ->
      match find t iid with
      | Some i when i.status = Committed_st -> try_execute t iid
      | _ -> ())
    pending

let commit_instance t (i : inst) =
  if i.status <> Committed_st && i.status <> Executed_st then
    i.status <- Committed_st;
  try_execute t i.iid;
  retry_blocked t

(* -- Protocol ------------------------------------------------------ *)

let all_ids (t : replica) = List.init t.env.n (fun i -> i)

(* Retransmit this leader's in-flight phase until the instance
   commits, masking lost messages (EPaxos' explicit-prepare recovery,
   which handles leader failure, is out of scope — see the interface
   documentation). *)
let rec watch_instance t iid =
  ignore
    (t.env.schedule (t.env.config.Config.client_timeout_ms /. 2.0) (fun () ->
         match find t iid with
         | Some ({ status = Pre_accepted; fast_q = Some _; _ } as i) ->
             t.env.broadcast
               (PreAccept { iid; cmd = i.cmd; seq = i.seq; deps = i.deps });
             watch_instance t iid
         | Some ({ status = Accepted_st; accept_q = Some _; _ } as i) ->
             t.env.broadcast
               (Accept { iid; cmd = i.cmd; seq = i.seq; deps = i.deps });
             watch_instance t iid
         | _ -> ()))

let finalize_commit t (i : inst) ~fast =
  if fast then t.fast_commits <- t.fast_commits + 1
  else t.slow_commits <- t.slow_commits + 1;
  t.env.broadcast (Commit { iid = i.iid; cmd = i.cmd; seq = i.seq; deps = i.deps });
  commit_instance t i

let on_request t ~client (cmd : Command.t) =
  let no = t.next_no in
  t.next_no <- t.next_no + 1;
  let iid = (t.env.id, no) in
  let seq, deps = local_attrs t cmd in
  let i = record t iid cmd seq deps Pre_accepted (Some client) in
  let fq = Quorum.create (Quorum.Fast (all_ids t)) in
  Quorum.ack fq t.env.id;
  i.fast_q <- Some fq;
  i.identical <- true;
  t.env.broadcast (PreAccept { iid; cmd; seq; deps });
  (* at n = 1 the leader's own ack is already the fast quorum: no
     PreAcceptOk will ever arrive to complete it *)
  if Quorum.satisfied fq then finalize_commit t i ~fast:true
  else watch_instance t iid

let start_accept_phase t (i : inst) =
  i.status <- Accepted_st;
  let aq = Quorum.create (Quorum.Majority (all_ids t)) in
  Quorum.ack aq t.env.id;
  i.accept_q <- Some aq;
  t.env.broadcast (Accept { iid = i.iid; cmd = i.cmd; seq = i.seq; deps = i.deps })

let on_pre_accept t ~src ~iid ~cmd ~seq ~deps =
  (* Merge the leader's attributes with local interference. *)
  let local_seq, local_deps = local_attrs t cmd in
  let deps' = union_deps deps (List.filter (fun d -> d <> iid) local_deps) in
  let seq' = Stdlib.max seq local_seq in
  ignore (record t iid cmd seq' deps' Pre_accepted None);
  t.env.send src (PreAcceptOk { iid; seq = seq'; deps = deps' })

let on_pre_accept_ok t ~src ~iid ~seq ~deps =
  match find t iid with
  | Some ({ status = Pre_accepted; fast_q = Some fq; _ } as i) ->
      if seq <> i.seq || List.sort_uniq compare deps <> List.sort_uniq compare i.deps
      then begin
        i.identical <- false;
        i.seq <- Stdlib.max i.seq seq;
        i.deps <- union_deps i.deps deps
      end;
      Quorum.ack fq src;
      if Quorum.satisfied fq then
        if i.identical then finalize_commit t i ~fast:true
        else start_accept_phase t i
  | _ -> () (* already moved past pre-accept *)

let on_accept t ~src ~iid ~cmd ~seq ~deps =
  ignore (record t iid cmd seq deps Accepted_st None);
  t.env.send src (AcceptOk { iid })

let on_accept_ok t ~src ~iid =
  match find t iid with
  | Some ({ status = Accepted_st; accept_q = Some aq; _ } as i) ->
      Quorum.ack aq src;
      if Quorum.satisfied aq then finalize_commit t i ~fast:false
  | _ -> ()

let on_commit t ~iid ~cmd ~seq ~deps =
  (* Record at Accepted so commit_instance performs (and counts) the
     transition; record never downgrades an already-committed
     instance. *)
  let i = record t iid cmd seq deps Accepted_st None in
  commit_instance t i

let on_message t ~src = function
  | PreAccept { iid; cmd; seq; deps } -> on_pre_accept t ~src ~iid ~cmd ~seq ~deps
  | PreAcceptOk { iid; seq; deps } -> on_pre_accept_ok t ~src ~iid ~seq ~deps
  | Accept { iid; cmd; seq; deps } -> on_accept t ~src ~iid ~cmd ~seq ~deps
  | AcceptOk { iid } -> on_accept_ok t ~src ~iid
  | Commit { iid; cmd; seq; deps } -> on_commit t ~iid ~cmd ~seq ~deps

let on_start (_ : replica) = ()

(* Nothing here persists, yet [Config.validate] accepts [Config.storage]
   and the cluster then arms real crashes: the fresh replica at a
   recovery edge rejoins with an empty log and state machine (ROADMAP,
   "Every configuration `validate` accepts is one the protocol honours"). *)
let on_recover = on_start
