(* Slot_log.commit_below: the incremental commit marking must make the
   same marks and return the same [changed] as a walk of the whole
   [frontier, bound) range, and its work must stay linear behind a
   permanent hole at the frontier. A slot's meta word here is a tag
   above a commit bit, the way Cmd_log packs its ballot. *)

let word ~tag ~committed = (tag lsl 1) lor if committed then 1 else 0
let committed m = m land 1 = 1
let pending m = not (committed m)
let mark m = m lor 1

(* Fill slot [i] with meta word [meta]; the command is never read. *)
let set log i meta = Slot_log.set log i ~meta Command.noop

(* The walk every protocol ran before [commit_below]; kept here as the
   reference the incremental version is checked against. *)
let reference_commit log bound ~pending ~mark =
  let changed = ref false in
  for slot = Slot_log.exec_frontier log to bound - 1 do
    if Slot_log.mem log slot && pending (Slot_log.meta log slot) then begin
      Slot_log.set_meta log slot (mark (Slot_log.meta log slot));
      changed := true
    end
  done;
  !changed

type op =
  | Set of int * bool  (** slot, entry already committed *)
  | Commit of int  (** bound *)
  | Mark of int  (** commit one slot in place, outside [commit_below] *)
  | Advance
  | Truncate of int

let show_op = function
  | Set (i, c) -> Printf.sprintf "set %d%s" i (if c then "*" else "")
  | Commit b -> Printf.sprintf "commit<%d" b
  | Mark i -> Printf.sprintf "mark %d" i
  | Advance -> "advance"
  | Truncate u -> Printf.sprintf "truncate %d" u

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map2
            (fun i c -> Set (i, c))
            (int_bound 47)
            (frequency [ (5, return false); (1, return true) ]) );
        (4, map (fun b -> Commit b) (int_bound 52));
        (2, map (fun i -> Mark i) (int_bound 47));
        (2, return Advance);
        (1, map (fun u -> Truncate u) (int_bound 16));
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 120) gen_op)

(* Apply the same operations to two logs, one committing through
   [commit_below], one through the reference walk, and compare the
   returned flag and every slot's committed bit after each step. *)
let agrees ops =
  let inc = Slot_log.create () and ref_ = Slot_log.create () in
  let tag = ref 0 in
  let slot_state log i =
    if Slot_log.mem log i then Some (Slot_log.meta log i) else None
  in
  let same_state () =
    Slot_log.exec_frontier inc = Slot_log.exec_frontier ref_
    && Slot_log.next_slot inc = Slot_log.next_slot ref_
    && Slot_log.filled_count inc = Slot_log.filled_count ref_
    && List.for_all
         (fun i -> slot_state inc i = slot_state ref_ i)
         (List.init 64 Fun.id)
  in
  List.for_all
    (fun op ->
      let step_ok =
        match op with
        | Set (i, c) ->
            incr tag;
            set inc i (word ~tag:!tag ~committed:c);
            set ref_ i (word ~tag:!tag ~committed:c);
            true
        | Commit b ->
            Slot_log.commit_below inc b ~pending ~mark
            = reference_commit ref_ b ~pending ~mark
        | Mark i ->
            List.iter
              (fun log ->
                if Slot_log.mem log i then
                  Slot_log.set_meta log i (mark (Slot_log.meta log i)))
              [ inc; ref_ ];
            true
        | Advance ->
            List.iter
              (fun log ->
                Slot_log.advance_frontier log ~executable:committed
                  ~f:(fun _ -> ()))
              [ inc; ref_ ];
            true
        | Truncate u ->
            Slot_log.truncate inc ~upto:u;
            Slot_log.truncate ref_ ~upto:u;
            true
      in
      step_ok && same_state ())
    ops

let prop_matches_reference =
  QCheck.Test.make ~name:"commit_below matches the full-range walk" ~count:500
    arb_ops agrees

(* A hole at slot [h] pins the frontier. Each round fills one new slot
   above it and commits up to that slot: [commit_below] must look at
   each slot O(1) times, where the old walk re-reads [h, s] every
   round (about N^2/2 in total). *)
let test_linear_behind_hole () =
  let n = 2_000 and h = 5 in
  let run commit =
    let log = Slot_log.create () and calls = ref 0 in
    let pending m =
      incr calls;
      not (committed m)
    in
    for s = 0 to h - 1 do
      set log s (word ~tag:s ~committed:false)
    done;
    ignore (commit log h ~pending ~mark);
    Slot_log.advance_frontier log ~executable:committed ~f:(fun _ -> ());
    Alcotest.(check int) "frontier at the hole" h (Slot_log.exec_frontier log);
    calls := 0;
    for s = h + 1 to h + n do
      set log s (word ~tag:s ~committed:false);
      if not (commit log (s + 1) ~pending ~mark) then
        Alcotest.fail "a new slot went unmarked"
    done;
    Alcotest.(check int) "frontier still at the hole" h
      (Slot_log.exec_frontier log);
    !calls
  in
  let incremental = run (fun log b -> Slot_log.commit_below log b) in
  let walk = run reference_commit in
  Alcotest.(check bool)
    (Printf.sprintf "incremental %d pending calls <= 3N + 8" incremental)
    true
    (incremental <= (3 * n) + 8);
  Alcotest.(check bool)
    (Printf.sprintf "reference walk is quadratic (%d calls)" walk)
    true
    (walk > n * n / 4)

(* The hole filled late — below the watermark — is still found, and
   filling it releases the whole run behind it. *)
let test_late_fill_below_watermark () =
  let log = Slot_log.create () in
  for s = 1 to 9 do
    set log s (word ~tag:s ~committed:false)
  done;
  Alcotest.(check bool) "slots above the hole marked" true
    (Slot_log.commit_below log 10 ~pending ~mark);
  Alcotest.(check bool) "nothing new below 10" false
    (Slot_log.commit_below log 10 ~pending ~mark);
  set log 0 (word ~tag:0 ~committed:false);
  Alcotest.(check bool) "lower bound leaves the late slot queued" false
    (Slot_log.commit_below log 0 ~pending ~mark);
  Alcotest.(check bool) "late slot marked once its bound arrives" true
    (Slot_log.commit_below log 1 ~pending ~mark);
  Slot_log.advance_frontier log ~executable:committed ~f:(fun _ -> ());
  Alcotest.(check int) "frontier past the filled hole" 10
    (Slot_log.exec_frontier log)

(* Below the frontier nothing is marked, even when the frontier moved
   past the watermark without [commit_below] and the slot is refilled. *)
let test_refill_below_frontier () =
  let log = Slot_log.create () in
  set log 0 (word ~tag:0 ~committed:true);
  Slot_log.advance_frontier log ~executable:committed ~f:(fun _ -> ());
  set log 0 (word ~tag:1 ~committed:false);
  Alcotest.(check bool) "nothing marked" false
    (Slot_log.commit_below log 1 ~pending ~mark);
  Alcotest.(check bool) "slot 0 left pending" true
    (Slot_log.mem log 0 && pending (Slot_log.meta log 0))

(* A one-member group commits inside the propose call: the reply sent
   while slot [k] executes proposes again, and the new slot commits and
   advances the frontier before [f] for [k] returns. Every slot must
   still run exactly once, in order. *)
let test_reentrant_advance () =
  let log = Slot_log.create () in
  let runs = Array.make 16 0 and order = ref [] and proposals = ref 0 in
  let rec advance () =
    Slot_log.advance_frontier log ~executable:committed ~f:(fun slot ->
        runs.(slot) <- runs.(slot) + 1;
        order := slot :: !order;
        if !proposals < 6 then begin
          incr proposals;
          let s = Slot_log.next_slot log in
          set log s (word ~tag:s ~committed:true);
          advance ()
        end)
  in
  set log 0 (word ~tag:0 ~committed:true);
  set log 1 (word ~tag:1 ~committed:true);
  advance ();
  Alcotest.(check (list int)) "each slot once, in order" (List.init 8 Fun.id)
    (List.rev !order);
  Alcotest.(check (array int)) "run counts"
    (Array.init 16 (fun i -> if i < 8 then 1 else 0))
    runs;
  Alcotest.(check int) "frontier past them all" 8 (Slot_log.exec_frontier log)

let suite =
  ( "slot_log",
    [
      Alcotest.test_case "advance_frontier is re-entrant" `Quick
        test_reentrant_advance;
      QCheck_alcotest.to_alcotest prop_matches_reference;
      Alcotest.test_case "commit_below is linear behind a hole" `Quick
        test_linear_behind_hole;
      Alcotest.test_case "commit_below finds a hole filled late" `Quick
        test_late_fill_below_watermark;
      Alcotest.test_case "commit_below skips slots below the frontier" `Quick
        test_refill_below_frontier;
    ] )
