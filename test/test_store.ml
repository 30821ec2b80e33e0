let cmd id op = Command.make ~id ~client:0 op

let test_conflicts () =
  let w1 = cmd 1 (Command.Put (5, 10)) in
  let w2 = cmd 2 (Command.Put (5, 20)) in
  let r = cmd 3 (Command.Get 5) in
  let other = cmd 4 (Command.Get 6) in
  Alcotest.(check bool) "w/w same key" true (Command.conflicts w1 w2);
  Alcotest.(check bool) "w/r same key" true (Command.conflicts w1 r);
  Alcotest.(check bool) "r/r same key" false (Command.conflicts r r);
  Alcotest.(check bool) "different keys" false (Command.conflicts w1 other);
  Alcotest.(check bool) "noop never conflicts" false
    (Command.conflicts Command.noop w1)

let test_command_accessors () =
  let c = cmd 1 (Command.Put (3, 4)) in
  Alcotest.(check int) "key" 3 (Command.key c);
  Alcotest.(check bool) "is_write" true (Command.is_write c);
  Alcotest.(check bool) "read not write" true (Command.is_read (cmd 2 (Command.Get 1)));
  Alcotest.(check bool) "delete is write" true (Command.is_write (cmd 3 (Command.Delete 1)));
  Alcotest.(check bool) "noop" true (Command.is_noop Command.noop)

(* [Command.equal] matches on constructors; it must agree with the
   structural equality it replaced. Small ranges make equal pairs
   common, and [noop] (or a copy of it) is drawn as one command in
   five. *)
let prop_command_equal =
  let gen_cmd =
    QCheck.Gen.(
      frequency
        [
          (1, oneofl [ Command.noop; { Command.noop with Command.id = -1 } ]);
          ( 4,
            map
              (fun (id, client, kind, (k, v)) ->
                Command.make ~id ~client
                  (match kind with
                  | 0 -> Command.Get k
                  | 1 -> Command.Put (k, v)
                  | _ -> Command.Delete k))
              (quad (int_bound 2) (int_bound 1) (int_bound 2)
                 (pair (int_range (-1) 1) (int_bound 1))) );
        ])
  in
  QCheck.Test.make ~name:"command equal is structural equality" ~count:2000
    (QCheck.make ~print:(fun (a, b) -> Fmt.str "%a %a" Command.pp a Command.pp b)
       QCheck.Gen.(pair gen_cmd gen_cmd))
    (fun (a, b) ->
      Command.equal a b = (a = b) && Command.equal a a && Command.equal b b)

let test_kv_get_put_delete () =
  let kv = Kv.create () in
  Alcotest.(check (option int)) "absent" None (Kv.get kv 1);
  Kv.write kv (cmd 1 (Command.Put (1, 10)));
  Alcotest.(check (option int)) "first" (Some 10) (Kv.get kv 1);
  Kv.write kv (cmd 2 (Command.Put (1, 20)));
  Alcotest.(check (option int)) "updated" (Some 20) (Kv.get kv 1);
  Kv.write kv (cmd 3 (Command.Delete 1));
  Alcotest.(check (option int)) "deleted" None (Kv.get kv 1);
  Kv.write kv (cmd 4 (Command.Delete 2));
  Alcotest.(check (option int)) "deleted, never put" None (Kv.get kv 2);
  Alcotest.(check (list int)) "deleted keys still listed" [ 1; 2 ]
    (List.sort compare (Kv.keys kv));
  Alcotest.(check int) "size counts them" 2 (Kv.size kv);
  Kv.write kv (cmd 5 (Command.Put (1, 30)));
  Alcotest.(check (option int)) "put after delete" (Some 30) (Kv.get kv 1);
  Alcotest.(check int) "same key, same size" 2 (Kv.size kv);
  Alcotest.(check bool) "a get is not a write" true
    (match Kv.write kv (cmd 6 (Command.Get 1)) with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_kv_keys () =
  let kv = Kv.create () in
  Kv.write kv (cmd 1 (Command.Put (1, 1)));
  Kv.write kv (cmd 2 (Command.Put (2, 2)));
  Alcotest.(check int) "size" 2 (Kv.size kv);
  Alcotest.(check (list int)) "keys" [ 1; 2 ] (List.sort compare (Kv.keys kv))

let test_state_machine_apply () =
  let sm = State_machine.create () in
  let r1 = State_machine.apply sm (cmd 1 (Command.Put (1, 10))) in
  Alcotest.(check (option int)) "write returns none" None r1;
  let r2 = State_machine.apply sm (cmd 2 (Command.Get 1)) in
  Alcotest.(check (option int)) "read sees write" (Some 10) r2;
  let r3 = State_machine.apply sm (cmd 3 (Command.Get 99)) in
  Alcotest.(check (option int)) "missing key" None r3;
  Alcotest.(check int) "applied count" 3 (State_machine.applied_count sm)

let test_state_machine_noop () =
  let sm = State_machine.create () in
  ignore (State_machine.apply sm Command.noop);
  Alcotest.(check int) "no keys touched" 0 (Kv.size (State_machine.store sm));
  Alcotest.(check int) "but recorded" 1 (State_machine.applied_count sm)

let test_key_history () =
  let sm = State_machine.create () in
  let w1 = cmd 1 (Command.Put (1, 10)) in
  let w2 = cmd 2 (Command.Put (1, 20)) in
  ignore (State_machine.apply sm w1);
  ignore (State_machine.apply sm (cmd 5 (Command.Get 1)));
  ignore (State_machine.apply sm w2);
  let h = State_machine.key_history sm 1 in
  Alcotest.(check int) "two writers" 2 (List.length h);
  Alcotest.(check bool) "order" true
    (Command.equal (List.nth h 0) w1 && Command.equal (List.nth h 1) w2)

let test_executor_dedup () =
  let e = Executor.create () in
  let w = cmd 1 (Command.Put (1, 10)) in
  Alcotest.(check (option int)) "first" None (Executor.execute e w);
  let r = cmd 2 (Command.Get 1) in
  Alcotest.(check (option int)) "read" (Some 10) (Executor.execute e r);
  (* re-deciding the same read returns the memoized result even after
     later writes *)
  ignore (Executor.execute e (cmd 3 (Command.Put (1, 99))));
  Alcotest.(check (option int)) "memoized" (Some 10) (Executor.execute e r);
  Alcotest.(check int) "3 distinct" 3 (Executor.executed_count e);
  Alcotest.(check bool) "already executed" true (Executor.already_executed e r)

let test_executor_noop () =
  let e = Executor.create () in
  Alcotest.(check (option int)) "noop" None (Executor.execute e Command.noop);
  Alcotest.(check int) "not counted" 0 (Executor.executed_count e);
  Alcotest.(check bool) "noop not tracked" false
    (Executor.already_executed e Command.noop)

let test_executor_distinct_clients () =
  let e = Executor.create () in
  let a = Command.make ~id:1 ~client:0 (Command.Put (1, 10)) in
  let b = Command.make ~id:1 ~client:1 (Command.Put (1, 20)) in
  ignore (Executor.execute e a);
  ignore (Executor.execute e b);
  Alcotest.(check int) "same id different client" 2 (Executor.executed_count e)

(* The list-and-Hashtbl store that the flat arrays replaced, kept as
   the reference model: version chains newest first, the applied
   sequence as a reversed list, the memo keyed by the [(client, id)]
   pair with ids taken modulo 2^32. *)
module Model = struct
  type version = { value : Command.value option; seq : int; writer : Command.t }
  type sm = {
    kv : (Command.key, version list) Hashtbl.t;
    mutable applied_rev : Command.t list;
  }

  let create_sm () = { kv = Hashtbl.create 64; applied_rev = [] }

  let chain sm k = Option.value ~default:[] (Hashtbl.find_opt sm.kv k)

  let get sm k = match chain sm k with v :: _ -> v.value | [] -> None

  let append sm writer k value =
    let c = chain sm k in
    let seq = 1 + match c with [] -> 0 | v :: _ -> v.seq in
    Hashtbl.replace sm.kv k ({ value; seq; writer } :: c)

  let apply sm (cmd : Command.t) =
    let read =
      if Command.is_noop cmd then None
      else
        match cmd.Command.op with
        | Command.Get k -> get sm k
        | Command.Put (k, v) ->
            append sm cmd k (Some v);
            None
        | Command.Delete k ->
            append sm cmd k None;
            None
    in
    sm.applied_rev <- cmd :: sm.applied_rev;
    read

  let versions sm k = List.rev (chain sm k)
  let keys sm = Hashtbl.fold (fun k _ acc -> k :: acc) sm.kv []

  type exec = { sm : sm; memo : (int * int, Command.value option) Hashtbl.t }

  let create_exec () = { sm = create_sm (); memo = Hashtbl.create 256 }
  let memo_key (c : Command.t) =
    (c.Command.client, c.Command.id land 0xFFFF_FFFF)

  let already_executed e c =
    (not (Command.is_noop c)) && Hashtbl.mem e.memo (memo_key c)

  let execute e c =
    if Command.is_noop c then None
    else
      match Hashtbl.find_opt e.memo (memo_key c) with
      | Some r -> r
      | None ->
          let r = apply e.sm c in
          Hashtbl.add e.memo (memo_key c) r;
          r
end

(* A step is decoded from four ints: a no-op, a re-decided earlier
   command, or a fresh get/put/delete. Keys below 60 fold onto 12 hot
   keys (long version chains); the rest spread over 60..99 so gets of
   never-written keys occur and the key index grows. Client 5 is the
   largest 30-bit id, exercising the packed memo key's high half. *)
let decode_stream steps =
  let next_id = Array.make 6 0 in
  let issued = Array.make (List.length steps) Command.noop and n = ref 0 in
  List.map
    (fun (kind, client, key, v) ->
      let key = if key < 60 then key mod 12 else key in
      let fresh op =
        let id = next_id.(client) in
        next_id.(client) <- id + 1;
        let client = if client = 5 then 0x3FFF_FFFF else client in
        let c = Command.make ~id ~client op in
        issued.(!n) <- c;
        incr n;
        c
      in
      match kind with
      | 0 -> Command.noop
      | (1 | 2) when !n > 0 -> issued.(v mod !n)
      | 1 | 2 | 3 | 4 | 5 -> fresh (Command.Get key)
      | 9 -> fresh (Command.Delete key)
      | _ -> fresh (Command.Put (key, v)))
    steps

let expect what pp a b =
  if a <> b then QCheck.Test.fail_reportf "%s: got %a, model %a" what pp a pp b

let pp_opt = Fmt.(option ~none:(any "None") int)
let pp_cmds = Fmt.(list ~sep:sp Command.pp)
let pp_ints = Fmt.(list ~sep:sp int)

let all_keys = List.init 100 Fun.id

(* Everything observable about a final state, against the model. *)
let check_final what sm (m : Model.sm) =
  let what s = what ^ ": " ^ s in
  expect (what "applied") pp_cmds (State_machine.applied sm)
    (List.rev m.Model.applied_rev);
  expect (what "applied_count") Fmt.int (State_machine.applied_count sm)
    (List.length m.Model.applied_rev);
  let kv = State_machine.store sm in
  expect (what "keys") pp_ints
    (List.sort compare (Kv.keys kv))
    (List.sort compare (Model.keys m));
  expect (what "size") Fmt.int (Kv.size kv) (Hashtbl.length m.Model.kv);
  List.iter
    (fun k ->
      expect (what "get") pp_opt (Kv.get kv k) (Model.get m k);
      expect (what "key_history") pp_cmds (State_machine.key_history sm k)
        (List.map (fun v -> v.Model.writer) (Model.versions m k)))
    all_keys

let prop_store_matches_model =
  QCheck.Test.make ~name:"executor, state machine and kv match the model"
    ~count:200
    QCheck.(
      list_of_size
        Gen.(int_range 0 700)
        (quad (int_bound 9) (int_bound 5) (int_bound 99) (int_bound 1000)))
    (fun steps ->
      let stream = decode_stream steps in
      let e = Executor.create () and me = Model.create_exec () in
      let sm = State_machine.create () and msm = Model.create_sm () in
      List.iter
        (fun c ->
          expect "execute" pp_opt (Executor.execute e c) (Model.execute me c);
          expect "already_executed" Fmt.bool
            (Executor.already_executed e c)
            (Model.already_executed me c);
          expect "executed_count" Fmt.int (Executor.executed_count e)
            (Hashtbl.length me.Model.memo);
          let k = Command.key c in
          expect "get" pp_opt
            (Kv.get (State_machine.store (Executor.state_machine e)) k)
            (Model.get me.Model.sm k);
          (* the raw state machine applies duplicates and no-ops too *)
          expect "apply" pp_opt (State_machine.apply sm c)
            (Model.apply msm c))
        stream;
      check_final "executor" (Executor.state_machine e) me.Model.sm;
      check_final "state machine" sm msm;
      (* image -> install over a used executor rebuilds the same state *)
      Executor.install e (Executor.image e);
      check_final "installed" (Executor.state_machine e) me.Model.sm;
      expect "installed executed_count" Fmt.int (Executor.executed_count e)
        (Hashtbl.length me.Model.memo);
      List.iter
        (fun c ->
          expect "installed already_executed" Fmt.bool
            (Executor.already_executed e c)
            (Model.already_executed me c);
          expect "installed execute" pp_opt (Executor.execute e c)
            (Model.execute me c))
        stream;
      true)

let test_ballot_ordering () =
  let open Ballot in
  let b1 = initial ~owner:0 in
  let b2 = initial ~owner:1 in
  Alcotest.(check bool) "owner tiebreak" true (b1 < b2);
  Alcotest.(check bool) "round dominates" true (b2 < next b1 ~owner:0);
  Alcotest.(check bool) "zero smallest" true (zero < b1);
  Alcotest.(check bool) "succ bigger" true (b1 < succ b1);
  Alcotest.(check bool) "equal" true (equal b1 (initial ~owner:0))

(* A packed ballot orders as the ballot does and unpacks to it; a round
   or an owner outside the packable range is refused, not wrapped into
   another ballot. *)
let test_ballot_packing () =
  let b round owner = { Ballot.round; owner } in
  let ballots =
    [ Ballot.zero; b 0 0; b 1 (-1); b 1 0; b 1 2; b 2 0; b 7 Ballot.max_owner;
      b Ballot.max_round (-1); b Ballot.max_round Ballot.max_owner ]
  in
  List.iter
    (fun x ->
      Alcotest.(check bool) "round trip" true
        (Ballot.equal x (Ballot.unpack (Ballot.pack x)));
      List.iter
        (fun y ->
          Alcotest.(check int) "order kept"
            (Ballot.compare x y)
            (Int.compare (Ballot.pack x) (Ballot.pack y)))
        ballots)
    ballots;
  let refused x =
    match Ballot.pack x with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative round" true (refused (b (-1) 0));
  Alcotest.(check bool) "round above max_round" true
    (refused (b (Ballot.max_round + 1) 0));
  Alcotest.(check bool) "owner below -1" true (refused (b 1 (-2)));
  Alcotest.(check bool) "owner above max_owner" true
    (refused (b 1 (Ballot.max_owner + 1)));
  Alcotest.(check bool) "packed below 2^56" true
    (Ballot.pack (b Ballot.max_round Ballot.max_owner) < 1 lsl 56)

(* [Slot_log] holds commands; these name slot [i]'s by [i]. *)
let sl_cmd i = Command.make ~id:i ~client:0 (Command.Put (i, i))
let sl_id log i = (Slot_log.cmd log i).Command.id

let test_slot_log () =
  let log = Slot_log.create () in
  Alcotest.(check bool) "empty" false (Slot_log.mem log 0);
  Slot_log.set log 2 ~meta:7 (sl_cmd 20);
  Alcotest.(check bool) "sparse" true (Slot_log.mem log 2);
  Alcotest.(check int) "sparse meta" 7 (Slot_log.meta log 2);
  Alcotest.(check int) "sparse command" 20 (sl_id log 2);
  Alcotest.(check int) "next" 3 (Slot_log.next_slot log);
  Alcotest.(check int) "reserve" 3 (Slot_log.reserve log);
  Alcotest.(check int) "filled" 1 (Slot_log.filled_count log)

let test_slot_log_frontier () =
  let log = Slot_log.create () in
  Slot_log.set log 0 ~meta:0 (sl_cmd 0);
  Slot_log.set log 2 ~meta:0 (sl_cmd 2);
  let executed = ref [] in
  Slot_log.advance_frontier log
    ~executable:(fun _ -> true)
    ~f:(fun i -> executed := (i, sl_id log i) :: !executed);
  Alcotest.(check int) "stops at gap" 1 (Slot_log.exec_frontier log);
  Slot_log.set log 1 ~meta:0 (sl_cmd 1);
  Slot_log.advance_frontier log
    ~executable:(fun _ -> true)
    ~f:(fun i -> executed := (i, sl_id log i) :: !executed);
  Alcotest.(check int) "resumes past gap" 3 (Slot_log.exec_frontier log);
  Alcotest.(check (list (pair int int))) "order" [ (0, 0); (1, 1); (2, 2) ]
    (List.rev !executed)

let test_slot_log_growth () =
  let log = Slot_log.create () in
  Slot_log.set log 1000 ~meta:1 (sl_cmd 42);
  Alcotest.(check int) "grown" 42 (sl_id log 1000)

let test_config_validation () =
  let ok c = Alcotest.(check bool) "valid" true (Config.validate c = Ok ()) in
  let bad c = Alcotest.(check bool) "invalid" true (Config.validate c <> Ok ()) in
  ok (Config.default ~n_replicas:5);
  bad { (Config.default ~n_replicas:5) with Config.n_replicas = 0 };
  bad { (Config.default ~n_replicas:5) with Config.q2_size = Some 9 };
  ok { (Config.default ~n_replicas:9) with Config.q2_size = Some 3 };
  bad { (Config.default ~n_replicas:5) with Config.epaxos_penalty = 0.5 };
  bad { (Config.default ~n_replicas:5) with Config.fz = -1 };
  bad { (Config.default ~n_replicas:5) with Config.client_timeout_ms = 0.0 };
  (* relay trees and thrifty ask for opposite phase-2 copy lists *)
  bad { (Config.default ~n_replicas:9) with Config.relay_groups = 2; thrifty = true };
  (* relayed votes wait for the disk like direct ones, and quorum
     reads defer each write's ack per slot, batched or not *)
  ok
    {
      (Config.default ~n_replicas:9) with
      Config.relay_groups = 2;
      storage = Some Storage.default_config;
    };
  ok
    {
      (Config.default ~n_replicas:5) with
      Config.read_path = Some Config.Quorum;
      batching = Some { Config.max_batch = 8; max_wait_ms = 0.05 };
    }

let test_config_quorums () =
  let c = Config.default ~n_replicas:9 in
  Alcotest.(check int) "majority" 5 (Config.majority c);
  Alcotest.(check int) "default q2" 5 (Config.phase2_quorum_size c);
  let c = { c with Config.q2_size = Some 3 } in
  Alcotest.(check int) "fpaxos q2" 3 (Config.phase2_quorum_size c)

(* For an array past 256 words, [Array.make] with a young initial
   value empties the minor heap before it allocates. A new page of the
   applied sequence (the 1,025th command) is such an array, and so are
   the key table's arrays once it grows past 512 slots; recording a
   freshly built command, or growing the table, must start no minor
   collection. *)
let minor_collections_during f =
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  f ();
  (Gc.quick_stat ()).Gc.minor_collections - before

let test_growth_forces_no_minor () =
  let sm = State_machine.create () in
  for i = 0 to 1023 do
    ignore (State_machine.apply sm (cmd i (Command.Get 1)))
  done;
  Alcotest.(check int) "new applied page" 0
    (minor_collections_during (fun () ->
         ignore
           (State_machine.apply sm
              (cmd (Sys.opaque_identity 1024) (Command.Get 1)))));
  Alcotest.(check int) "applied" 1025 (State_machine.applied_count sm);
  (* 384 keys fill 512 slots to 3/4; the 385th doubles the table *)
  let kv = Kv.create () in
  for i = 0 to 383 do
    Kv.write kv (cmd i (Command.Put (i, i)))
  done;
  Alcotest.(check int) "full table" 512 (Kv.capacity kv);
  Alcotest.(check int) "table growth past 3/4 load" 0
    (minor_collections_during (fun () ->
         Kv.write kv (cmd (Sys.opaque_identity 384) (Command.Put (384, 384)))));
  Alcotest.(check int) "grown table" 1024 (Kv.capacity kv);
  Alcotest.(check int) "keys" 385 (Kv.size kv);
  Alcotest.(check (option int)) "moved keys kept" (Some 7) (Kv.get kv 7);
  Alcotest.(check (option int)) "new key" (Some 384) (Kv.get kv 384)

let suite =
  ( "store",
    [
      Alcotest.test_case "command conflicts" `Quick test_conflicts;
      Alcotest.test_case "command accessors" `Quick test_command_accessors;
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| 5 |])
        prop_command_equal;
      Alcotest.test_case "kv get put delete" `Quick test_kv_get_put_delete;
      Alcotest.test_case "kv keys" `Quick test_kv_keys;
      Alcotest.test_case "state machine apply" `Quick test_state_machine_apply;
      Alcotest.test_case "state machine noop" `Quick test_state_machine_noop;
      Alcotest.test_case "key history" `Quick test_key_history;
      Alcotest.test_case "page growth forces no minor collection" `Quick
        test_growth_forces_no_minor;
      Alcotest.test_case "executor dedup" `Quick test_executor_dedup;
      Alcotest.test_case "executor noop" `Quick test_executor_noop;
      Alcotest.test_case "executor distinct clients" `Quick test_executor_distinct_clients;
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| 17 |])
        prop_store_matches_model;
      Alcotest.test_case "ballot ordering" `Quick test_ballot_ordering;
      Alcotest.test_case "ballot packing range-checked" `Quick
        test_ballot_packing;
      Alcotest.test_case "slot log basics" `Quick test_slot_log;
      Alcotest.test_case "slot log frontier" `Quick test_slot_log_frontier;
      Alcotest.test_case "slot log growth" `Quick test_slot_log_growth;
      Alcotest.test_case "config validation" `Quick test_config_validation;
      Alcotest.test_case "config quorums" `Quick test_config_quorums;
    ] )
