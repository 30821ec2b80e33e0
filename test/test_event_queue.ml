(* Entries are timer slots; [pop] reads the earliest one through the
   accessors the scheduler uses. *)
let pop q =
  if Event_queue.is_empty q then None
  else begin
    let e = (Event_queue.top_time q, Event_queue.top_slot q) in
    Event_queue.drop_top q;
    Some e
  end

let drain q =
  let rec go acc = match pop q with Some e -> go (e :: acc) | None -> acc in
  List.rev (go [])

let entry = Alcotest.(pair (float 0.0) int)

let test_ordering () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3.0 30;
  Event_queue.push q ~time:1.0 10;
  Event_queue.push q ~time:2.0 20;
  Alcotest.(check (option entry)) "first" (Some (1.0, 10)) (pop q);
  Alcotest.(check (option entry)) "second" (Some (2.0, 20)) (pop q);
  Alcotest.(check (option entry)) "third" (Some (3.0, 30)) (pop q);
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let test_fifo_on_ties () =
  let q = Event_queue.create () in
  (* slot numbers run against insertion order, so only the seq can
     put them back in order *)
  for i = 0 to 9 do
    Event_queue.push q ~time:1.0 (9 - i)
  done;
  Alcotest.(check (list int)) "fifo"
    (List.init 10 (fun i -> 9 - i))
    (List.map snd (drain q))

let test_interleaved_push_pop () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:5.0 5;
  Event_queue.push q ~time:1.0 1;
  Alcotest.(check (option entry)) "early first" (Some (1.0, 1)) (pop q);
  Event_queue.push q ~time:2.0 2;
  Alcotest.(check (option entry)) "mid next" (Some (2.0, 2)) (pop q)

let test_length_and_clear () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  for i = 1 to 100 do
    Event_queue.push q ~time:(float_of_int i) i
  done;
  Alcotest.(check int) "length" 100 (Event_queue.length q);
  Event_queue.clear q;
  Alcotest.(check bool) "cleared" true (Event_queue.is_empty q);
  Alcotest.(check int) "seqs restart" 0 (Event_queue.alloc_seq q)

let test_peek () =
  let q = Event_queue.create () in
  ignore (Event_queue.alloc_seq q);
  Event_queue.push q ~time:4.2 7;
  Alcotest.(check (float 0.0)) "time" 4.2 (Event_queue.top_time q);
  Alcotest.(check int) "seq after the claimed one" 1 (Event_queue.top_seq q);
  Alcotest.(check int) "slot" 7 (Event_queue.top_slot q);
  Alcotest.(check int) "peek does not pop" 1 (Event_queue.length q)

(* Entries pushed in time order sit at their insertion index. *)
let push_in_order q times = List.iteri (fun i t -> Event_queue.push q ~time:t i) times

let test_remove_root () =
  let q = Event_queue.create () in
  push_in_order q [ 0.0; 1.0; 1.0; 2.0; 3.0; 3.0; 4.0 ];
  Event_queue.remove q (Event_queue.top_slot q);
  Alcotest.(check int) "length" 6 (Event_queue.length q);
  Alcotest.(check (list entry)) "rest in (time, seq) order"
    [ (1.0, 1); (1.0, 2); (2.0, 3); (3.0, 4); (3.0, 5); (4.0, 6) ]
    (drain q)

let test_remove_middle () =
  let q = Event_queue.create () in
  (* index 1 has children 5-8, all later than the last entry (index
     9, a child of index 2): removing index 5 moves the last entry
     into a hole below a later parent, so it must sift up *)
  push_in_order q [ 0.0; 10.0; 1.0; 1.0; 1.0; 11.0; 12.0; 13.0; 14.0; 2.0 ];
  Event_queue.remove q 5;
  (* slot 1 moved down when slot 9 rose past it: its position must
     have followed *)
  Event_queue.remove q 1;
  Alcotest.(check (list entry)) "rest in (time, seq) order"
    [ (0.0, 0); (1.0, 2); (1.0, 3); (1.0, 4); (2.0, 9); (12.0, 6); (13.0, 7); (14.0, 8) ]
    (drain q)

let test_remove_last () =
  let q = Event_queue.create () in
  push_in_order q [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 ];
  Event_queue.remove q 5;
  Event_queue.push q ~time:0.5 5;
  Alcotest.(check (list entry)) "slot requeued, rest in order"
    [ (0.5, 5); (1.0, 0); (2.0, 1); (3.0, 2); (4.0, 3); (5.0, 4) ]
    (drain q)

(* The reference model is a list of (time, slot), newest first; its
   queue order is by time, then insertion order. *)
let model_order model =
  List.stable_sort (fun (t1, _) (t2, _) -> Float.compare t1 t2) (List.rev model)

(* Interleaved push/pop/clear against a sorted-list reference model:
   pops must match the reference (min time, FIFO among ties) at every
   step, across clears. Ops are decoded from a generated int list:
   0-6 push (time derived from the op), 7-8 pop, 9 clear. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"push/pop/clear matches sorted reference" ~count:300
    QCheck.(list (int_bound 999))
    (fun ops ->
      let q = Event_queue.create () in
      let model = ref [] in
      let counter = ref 0 in
      let ok = ref true in
      let sorted () = model_order !model in
      List.iter
        (fun op ->
          match op mod 10 with
          | 9 ->
              Event_queue.clear q;
              model := []
          | 7 | 8 -> (
              let expect =
                match sorted () with
                | [] -> None
                | (t, v) :: _ ->
                    model := List.filter (fun (_, v') -> v' <> v) !model;
                    Some (t, v)
              in
              if pop q <> expect then ok := false)
          | d ->
              let time = float_of_int (d * 100) in
              incr counter;
              Event_queue.push q ~time !counter;
              model := (time, !counter) :: !model)
        ops;
      (* drain: remaining entries must come out in model order too *)
      !ok && drain q = sorted ())

(* Random pushes, pops and removals of queued slots (chosen by the
   generated op) against the same reference model; freed slots are
   pushed again, as the scheduler reuses them. *)
let prop_remove_matches_reference =
  QCheck.Test.make ~name:"push/pop/remove matches sorted reference" ~count:300
    QCheck.(list (int_bound 9999))
    (fun ops ->
      let q = Event_queue.create () in
      let model = ref [] in
      let free = ref (List.init 64 Fun.id) in
      let ok = ref true in
      let sorted () = model_order !model in
      let take v =
        model := List.filter (fun (_, v') -> v' <> v) !model;
        free := v :: !free
      in
      List.iter
        (fun op ->
          match (op mod 10, !free, !model) with
          | (0 | 1 | 2 | 3 | 4), s :: rest, _ ->
              let time = float_of_int (op / 10 mod 8) in
              free := rest;
              Event_queue.push q ~time s;
              model := (time, s) :: !model
          | (5 | 6 | 7), _, (_ :: _ as m) ->
              let _, v = List.nth m (op / 10 mod List.length m) in
              Event_queue.remove q v;
              take v
          | 8, _, _ :: _ ->
              let expect = List.hd (sorted ()) in
              if pop q <> Some expect then ok := false;
              take (snd expect)
          | _ -> ())
        ops;
      !ok
      && Event_queue.length q = List.length !model
      && drain q = sorted ())

(* Pushes, removals, rekeys and drop_tops against a list model of
   (time, seq, slot): after every step the queue's top and length
   must be the model's. A rekey moves a queued slot to a new time,
   keeping its seq, taking a fresh one or taking back an older one no
   queued entry holds, so entries move both toward the root and toward
   the leaves, and equal times are ordered by seq alone. *)
let prop_update_matches_reference =
  QCheck.Test.make ~name:"push/remove/update/drop_top matches list model"
    ~count:300
    QCheck.(list (int_bound 99_999))
    (fun ops ->
      let q = Event_queue.create () in
      let model = ref [] in
      let free = ref (List.init 64 Fun.id) in
      let spare = ref [] (* seqs of entries that left the queue *) in
      let key (t, s, _) = (t, s) in
      let sorted () = List.sort (fun a b -> compare (key a) (key b)) !model in
      let take v =
        List.iter
          (fun (_, sq, v') -> if v' = v then spare := sq :: !spare)
          !model;
        model := List.filter (fun (_, _, v') -> v' <> v) !model;
        free := v :: !free
      in
      let top_ok () =
        Event_queue.length q = List.length !model
        &&
        match sorted () with
        | [] -> Event_queue.is_empty q
        | (t, sq, v) :: _ ->
            Event_queue.top_time q = t
            && Event_queue.top_seq q = sq
            && Event_queue.top_slot q = v
      in
      let step op =
        let time = float_of_int (op / 10 mod 6) in
        match (op mod 10, !free, !model) with
        | (0 | 1 | 2), s :: rest, _ ->
            free := rest;
            let seq = Event_queue.alloc_seq q in
            Event_queue.insert q ~time ~seq s;
            model := (time, seq, s) :: !model
        | (3 | 4 | 5 | 6), _, (_ :: _ as m) ->
            let _, old_seq, v = List.nth m (op / 100 mod List.length m) in
            let seq =
              match (op / 60 mod 3, !spare) with
              | 0, _ -> old_seq
              | 1, sq :: rest ->
                  spare := old_seq :: rest;
                  sq
              | _ ->
                  spare := old_seq :: !spare;
                  Event_queue.alloc_seq q
            in
            Event_queue.update q v ~time ~seq;
            model :=
              List.map
                (fun ((_, _, v') as e) -> if v' = v then (time, seq, v) else e)
                !model
        | 7, _, (_ :: _ as m) ->
            let _, _, v = List.nth m (op / 10 mod List.length m) in
            Event_queue.remove q v;
            take v
        | (8 | 9), _, _ :: _ ->
            let _, _, v = List.hd (sorted ()) in
            Event_queue.drop_top q;
            take v
        | _ -> ()
      in
      List.for_all
        (fun op ->
          step op;
          top_ok ())
        ops)

let prop_heap_sorted =
  QCheck.Test.make ~name:"pop yields non-decreasing times" ~count:200
    QCheck.(list (float_range 0.0 1000.0))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i t -> Event_queue.push q ~time:t i) times;
      let rec check last =
        match pop q with None -> true | Some (t, _) -> t >= last && check t
      in
      check neg_infinity)

let suite =
  ( "event_queue",
    [
      Alcotest.test_case "ordering" `Quick test_ordering;
      Alcotest.test_case "fifo on equal times" `Quick test_fifo_on_ties;
      Alcotest.test_case "interleaved push/pop" `Quick test_interleaved_push_pop;
      Alcotest.test_case "length and clear" `Quick test_length_and_clear;
      Alcotest.test_case "peek" `Quick test_peek;
      Alcotest.test_case "remove at the root" `Quick test_remove_root;
      Alcotest.test_case "remove in the middle" `Quick test_remove_middle;
      Alcotest.test_case "remove at the last index" `Quick test_remove_last;
      QCheck_alcotest.to_alcotest prop_heap_sorted;
      QCheck_alcotest.to_alcotest prop_matches_reference;
      QCheck_alcotest.to_alcotest prop_remove_matches_reference;
      QCheck_alcotest.to_alcotest prop_update_matches_reference;
    ] )
