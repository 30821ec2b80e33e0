let ids n = List.init n Fun.id

let test_thresholds () =
  Alcotest.(check int) "majority 9" 5 (Quorum.majority_threshold 9);
  Alcotest.(check int) "majority 5" 3 (Quorum.majority_threshold 5);
  Alcotest.(check int) "majority 4" 3 (Quorum.majority_threshold 4);
  Alcotest.(check int) "fast 5" 4 (Quorum.fast_threshold 5);
  Alcotest.(check int) "fast 9" 7 (Quorum.fast_threshold 9)

let test_majority_tracker () =
  let t = Quorum.create (Quorum.Majority (ids 5)) in
  Quorum.ack t 0;
  Quorum.ack t 1;
  Alcotest.(check bool) "2/5 not yet" false (Quorum.satisfied t);
  Quorum.ack t 2;
  Alcotest.(check bool) "3/5 satisfied" true (Quorum.satisfied t)

let test_duplicate_acks_ignored () =
  let t = Quorum.create (Quorum.Majority (ids 5)) in
  Quorum.ack t 0;
  Quorum.ack t 0;
  Quorum.ack t 0;
  Alcotest.(check bool) "still 1 ack" false (Quorum.satisfied t);
  Alcotest.(check int) "acks" 1 (List.length (Quorum.acks t))

let test_unknown_voter_ignored () =
  let t = Quorum.create (Quorum.Majority [ 0; 1; 2 ]) in
  Quorum.ack t 9;
  Alcotest.(check int) "ignored" 0 (List.length (Quorum.acks t))

let test_rejected () =
  let t = Quorum.create (Quorum.Majority (ids 3)) in
  Quorum.nack t 0;
  Alcotest.(check bool) "1 nack of 3 not fatal" false (Quorum.rejected t);
  Quorum.nack t 1;
  Alcotest.(check bool) "2 nacks fatal" true (Quorum.rejected t)

let test_count_quorum () =
  let t = Quorum.create (Quorum.Count { members = ids 9; threshold = 3 }) in
  Quorum.ack t 0;
  Quorum.ack t 5;
  Alcotest.(check bool) "2/3" false (Quorum.satisfied t);
  Quorum.ack t 8;
  Alcotest.(check bool) "3/3" true (Quorum.satisfied t)

let test_fast_quorum () =
  let t = Quorum.create (Quorum.Fast (ids 5)) in
  List.iter (Quorum.ack t) [ 0; 1; 2 ];
  Alcotest.(check bool) "3/4 needed" false (Quorum.satisfied t);
  Quorum.ack t 3;
  Alcotest.(check bool) "4 acks" true (Quorum.satisfied t)

let test_zones_majority () =
  (* 3 zones of 3; need majority in 2 zones *)
  let zones = [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 6; 7; 8 ] ] in
  let t =
    Quorum.create (Quorum.Zones { zones; need_zones = 2; per_zone = Quorum.Per_zone_majority })
  in
  List.iter (Quorum.ack t) [ 0; 1 ];
  Alcotest.(check bool) "one zone only" false (Quorum.satisfied t);
  Quorum.ack t 3;
  Alcotest.(check bool) "second zone partial" false (Quorum.satisfied t);
  Quorum.ack t 4;
  Alcotest.(check bool) "two zone majorities" true (Quorum.satisfied t)

let test_zones_all () =
  (* grid row: all of one zone *)
  let zones = [ [ 0; 1 ]; [ 2; 3 ] ] in
  let t =
    Quorum.create (Quorum.Zones { zones; need_zones = 1; per_zone = Quorum.Per_zone_all })
  in
  Quorum.ack t 0;
  Alcotest.(check bool) "half a row" false (Quorum.satisfied t);
  Quorum.ack t 1;
  Alcotest.(check bool) "full row" true (Quorum.satisfied t)

(* Relay aggregation leans on the tracker staying O(1) per vote at
   big n — one flag-byte read/write, no list scan. At n = 81 the
   tracker must count an exact majority (41 of 81), ignore duplicates
   and strays, and reset clean for slot reuse. *)
let test_majority_n81 () =
  Alcotest.(check int) "majority of 81" 41
    (Quorum.min_size (Quorum.Majority (ids 81)));
  let t = Quorum.create (Quorum.Majority (ids 81)) in
  for i = 0 to 39 do
    Quorum.ack t (2 * i);
    Quorum.ack t (2 * i) (* duplicate vote must not double-count *)
  done;
  Quorum.ack t 200 (* stray id outside the membership *);
  Alcotest.(check bool) "40/81 not yet" false (Quorum.satisfied t);
  Alcotest.(check int) "40 distinct acks" 40 (List.length (Quorum.acks t));
  Quorum.ack t 79;
  Alcotest.(check bool) "41/81 satisfied" true (Quorum.satisfied t);
  Quorum.reset t;
  Alcotest.(check bool) "reset clears" false (Quorum.satisfied t);
  for i = 0 to 80 do
    Quorum.ack t i
  done;
  Alcotest.(check bool) "all 81 after reset" true (Quorum.satisfied t);
  Alcotest.(check int) "81 acks" 81 (List.length (Quorum.acks t))

let test_reset () =
  let t = Quorum.create (Quorum.Majority (ids 3)) in
  List.iter (Quorum.ack t) [ 0; 1 ];
  Quorum.reset t;
  Alcotest.(check bool) "reset" false (Quorum.satisfied t)

(* Votes live in the tracker's flag bytes: [acks] reads them back in
   id order whatever order they arrived in, and [reset] clears them
   member by member, nacks too, so the tracker counts a new round from
   zero. *)
let test_acks_in_id_order () =
  let t = Quorum.create (Quorum.Count { members = [ 7; 2; 9; 4; 0 ]; threshold = 3 }) in
  List.iter (Quorum.ack t) [ 9; 2; 11; 7; 2 ];
  Alcotest.(check (list int)) "id order, strays and duplicates out" [ 2; 7; 9 ]
    (Quorum.acks t);
  Alcotest.(check bool) "3 of threshold 3" true (Quorum.satisfied t);
  Quorum.nack t 0;
  Quorum.nack t 4;
  Quorum.reset t;
  Alcotest.(check (list int)) "reset clears acks" [] (Quorum.acks t);
  Alcotest.(check bool) "reset clears satisfied" false (Quorum.satisfied t);
  Alcotest.(check bool) "reset clears nacks" false (Quorum.rejected t);
  List.iter (Quorum.ack t) [ 4; 0 ];
  Alcotest.(check bool) "re-acked members count again" false (Quorum.satisfied t);
  Quorum.ack t 9;
  Alcotest.(check bool) "3 re-acks satisfy" true (Quorum.satisfied t);
  Alcotest.(check (list int)) "re-acks in id order" [ 0; 4; 9 ] (Quorum.acks t);
  Alcotest.(check (list int)) "members kept" [ 0; 2; 4; 7; 9 ]
    (Quorum.members (Quorum.spec t))

let test_zones_reset_reack () =
  let zones = [ [ 6; 7; 8 ]; [ 0; 1; 2 ]; [ 3; 4; 5 ] ] in
  let t =
    Quorum.create
      (Quorum.Zones { zones; need_zones = 2; per_zone = Quorum.Per_zone_majority })
  in
  List.iter (Quorum.ack t) [ 8; 1; 6; 2 ];
  Alcotest.(check bool) "zones {6,7,8} and {0,1,2}" true (Quorum.satisfied t);
  Alcotest.(check (list int)) "zone acks in id order" [ 1; 2; 6; 8 ] (Quorum.acks t);
  Quorum.reset t;
  Alcotest.(check bool) "reset" false (Quorum.satisfied t);
  List.iter (Quorum.ack t) [ 5; 6; 3 ];
  Alcotest.(check bool) "one zone after re-ack" false (Quorum.satisfied t);
  Quorum.ack t 7;
  Alcotest.(check bool) "two zones after re-ack" true (Quorum.satisfied t);
  Alcotest.(check (list int)) "re-acks in id order" [ 3; 5; 6; 7 ] (Quorum.acks t)

let test_min_size () =
  Alcotest.(check int) "majority 9" 5 (Quorum.min_size (Quorum.Majority (ids 9)));
  Alcotest.(check int) "count" 3
    (Quorum.min_size (Quorum.Count { members = ids 9; threshold = 3 }));
  Alcotest.(check int) "zones" 4
    (Quorum.min_size
       (Quorum.Zones
          {
            zones = [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 6; 7; 8 ] ];
            need_zones = 2;
            per_zone = Quorum.Per_zone_majority;
          }))

let test_minimal_quorums_majority () =
  let qs = Quorum.minimal_quorums (Quorum.Majority (ids 3)) in
  Alcotest.(check int) "C(3,2)" 3 (List.length qs);
  List.iter (fun q -> Alcotest.(check int) "size 2" 2 (List.length q)) qs

let test_majority_intersects_itself () =
  let spec = Quorum.Majority (ids 5) in
  Alcotest.(check bool) "intersects" true (Quorum.intersects spec spec)

let test_fpaxos_intersection () =
  (* q1 of size n-q2+1 intersects q2 of size q2 *)
  let n = 9 in
  List.iter
    (fun q2 ->
      let q1 = Quorum.Count { members = ids n; threshold = n - q2 + 1 } in
      let q2s = Quorum.Count { members = ids n; threshold = q2 } in
      Alcotest.(check bool)
        (Printf.sprintf "q2=%d" q2)
        true (Quorum.intersects q1 q2s))
    [ 1; 2; 3; 4; 5 ]

let test_too_small_quorums_do_not_intersect () =
  let spec = Quorum.Count { members = ids 9; threshold = 3 } in
  Alcotest.(check bool) "3+3 of 9 can miss" false (Quorum.intersects spec spec)

let test_wpaxos_grid_intersection () =
  (* q1: majority in Z - fz zones; q2: majority in fz + 1 zones *)
  let zones = [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 6; 7; 8 ] ] in
  List.iter
    (fun fz ->
      let q1 =
        Quorum.Zones { zones; need_zones = 3 - fz; per_zone = Quorum.Per_zone_majority }
      in
      let q2 =
        Quorum.Zones { zones; need_zones = fz + 1; per_zone = Quorum.Per_zone_majority }
      in
      Alcotest.(check bool)
        (Printf.sprintf "fz=%d" fz)
        true (Quorum.intersects q1 q2))
    [ 0; 1; 2 ]

let test_grid_row_column_intersection () =
  let rows = [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ] in
  let cols = [ [ 0; 3 ]; [ 1; 4 ]; [ 2; 5 ] ] in
  let row_q = Quorum.Zones { zones = rows; need_zones = 1; per_zone = Quorum.Per_zone_all } in
  let col_q = Quorum.Zones { zones = cols; need_zones = 1; per_zone = Quorum.Per_zone_all } in
  Alcotest.(check bool) "row x column" true (Quorum.intersects row_q col_q)

let prop_majority_pairs_intersect =
  QCheck.Test.make ~name:"any two majorities intersect" ~count:100
    QCheck.(int_range 1 11)
    (fun n ->
      let spec = Quorum.Majority (ids n) in
      Quorum.intersects spec spec)

let prop_is_quorum_matches_tracker =
  QCheck.Test.make ~name:"is_quorum agrees with tracker" ~count:200
    QCheck.(pair (int_range 1 9) (list_of_size (QCheck.Gen.int_range 0 9) (int_range 0 8)))
    (fun (n, acks) ->
      let spec = Quorum.Majority (ids n) in
      let t = Quorum.create spec in
      List.iter (Quorum.ack t) acks;
      Quorum.satisfied t = Quorum.is_quorum spec (Quorum.acks t))

let suite =
  ( "quorum",
    [
      Alcotest.test_case "thresholds" `Quick test_thresholds;
      Alcotest.test_case "majority tracker" `Quick test_majority_tracker;
      Alcotest.test_case "duplicate acks ignored" `Quick test_duplicate_acks_ignored;
      Alcotest.test_case "unknown voter ignored" `Quick test_unknown_voter_ignored;
      Alcotest.test_case "rejected" `Quick test_rejected;
      Alcotest.test_case "count quorum" `Quick test_count_quorum;
      Alcotest.test_case "fast quorum" `Quick test_fast_quorum;
      Alcotest.test_case "zones majority" `Quick test_zones_majority;
      Alcotest.test_case "zones all (grid row)" `Quick test_zones_all;
      Alcotest.test_case "majority tracker at n=81" `Quick test_majority_n81;
      Alcotest.test_case "reset" `Quick test_reset;
      Alcotest.test_case "acks in id order, reset then re-ack" `Quick
        test_acks_in_id_order;
      Alcotest.test_case "zones reset then re-ack" `Quick test_zones_reset_reack;
      Alcotest.test_case "min_size" `Quick test_min_size;
      Alcotest.test_case "minimal quorums of majority" `Quick test_minimal_quorums_majority;
      Alcotest.test_case "majority self-intersection" `Quick test_majority_intersects_itself;
      Alcotest.test_case "fpaxos q1/q2 intersection" `Quick test_fpaxos_intersection;
      Alcotest.test_case "small quorums don't intersect" `Quick test_too_small_quorums_do_not_intersect;
      Alcotest.test_case "wpaxos flexible grid intersection" `Quick test_wpaxos_grid_intersection;
      Alcotest.test_case "grid row/column intersection" `Quick test_grid_row_column_intersection;
      QCheck_alcotest.to_alcotest prop_majority_pairs_intersect;
      QCheck_alcotest.to_alcotest prop_is_quorum_matches_tracker;
    ] )
