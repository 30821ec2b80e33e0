open Paxi_benchmark

let gen ?(spec = Workload.default) () =
  Workload.generator spec ~rng:(Rng.create ~seed:5) ~client:0

let collect g n = List.init n (fun _ -> Workload.next_op g ~now_ms:0.0)

let test_keys_in_range () =
  let spec = { Workload.default with Workload.keys = 50; min_key = 100 } in
  let ops = collect (gen ~spec ()) 1000 in
  List.iter
    (fun op ->
      let k = match op with Command.Get k | Command.Put (k, _) | Command.Delete k -> k in
      Alcotest.(check bool) "in [100,150)" true (k >= 100 && k < 150))
    ops

let test_write_ratio () =
  let count ratio =
    let spec = { Workload.default with Workload.write_ratio = ratio } in
    let ops = collect (gen ~spec ()) 4000 in
    List.length (List.filter (function Command.Put _ -> true | _ -> false) ops)
  in
  Alcotest.(check bool) "~50%" true (abs (count 0.5 - 2000) < 150);
  Alcotest.(check int) "0% writes" 0 (count 0.0);
  Alcotest.(check int) "100% writes" 4000 (count 1.0)

let test_conflict_ratio_targets_hot_key () =
  let spec =
    { Workload.default with Workload.conflict_ratio = 0.3; hot_key = 7; keys = 10_000 }
  in
  let ops = collect (gen ~spec ()) 5000 in
  let hot =
    List.length
      (List.filter
         (fun op -> (match op with Command.Get k | Command.Put (k, _) | Command.Delete k -> k) = 7)
         ops)
  in
  let f = float_of_int hot /. 5000.0 in
  Alcotest.(check bool) (Printf.sprintf "~30%% hot (%.2f)" f) true (Float.abs (f -. 0.3) < 0.03)

let test_unique_write_values () =
  let spec = { Workload.default with Workload.write_ratio = 1.0 } in
  let ops = collect (gen ~spec ()) 1000 in
  let values =
    List.filter_map (function Command.Put (_, v) -> Some v | _ -> None) ops
  in
  Alcotest.(check int) "all distinct" 1000
    (List.length (List.sort_uniq Int.compare values))

let test_locality_separates_regions () =
  let mean_key region_index =
    let spec =
      Workload.with_locality
        { Workload.default with Workload.keys = 900 }
        ~region_index ~regions:3
    in
    let ops = collect (Workload.generator spec ~rng:(Rng.create ~seed:9) ~client:0) 2000 in
    let sum =
      List.fold_left
        (fun acc op ->
          acc + match op with Command.Get k | Command.Put (k, _) | Command.Delete k -> k)
        0 ops
    in
    float_of_int sum /. 2000.0
  in
  let m0 = mean_key 0 and m1 = mean_key 1 and m2 = mean_key 2 in
  Alcotest.(check bool) "region 0 ~150" true (Float.abs (m0 -. 150.0) < 40.0);
  Alcotest.(check bool) "region 1 ~450" true (Float.abs (m1 -. 450.0) < 40.0);
  Alcotest.(check bool) "region 2 ~750" true (Float.abs (m2 -. 750.0) < 40.0)

let test_validation () =
  let bad spec =
    Alcotest.(check bool) "invalid" true (Workload.validate spec <> Ok ())
  in
  bad { Workload.default with Workload.keys = 0 };
  bad { Workload.default with Workload.write_ratio = 1.5 };
  bad { Workload.default with Workload.conflict_ratio = -0.1 };
  bad { Workload.default with Workload.dist = Workload.Zipfian { s = 0.0; v = 1.0 } };
  Alcotest.(check bool) "default valid" true (Workload.validate Workload.default = Ok ())

let test_ycsb_presets () =
  let frac_writes kind =
    let spec = Workload.ycsb kind ~keys:500 in
    (match Workload.validate spec with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    let g = Workload.generator spec ~rng:(Rng.create ~seed:3) ~client:0 in
    let ops = collect g 2000 in
    float_of_int
      (List.length (List.filter (function Command.Put _ -> true | _ -> false) ops))
    /. 2000.0
  in
  Alcotest.(check bool) "A ~50% writes" true (Float.abs (frac_writes `A -. 0.5) < 0.05);
  Alcotest.(check bool) "B ~5% writes" true (Float.abs (frac_writes `B -. 0.05) < 0.02);
  Alcotest.(check (float 0.0)) "C read-only" 0.0 (frac_writes `C);
  Alcotest.(check bool) "D ~5% writes" true (Float.abs (frac_writes `D -. 0.05) < 0.02);
  Alcotest.(check bool) "F ~50% writes" true (Float.abs (frac_writes `F -. 0.5) < 0.05)

let test_ycsb_zipf_skew () =
  let spec = Workload.ycsb `A ~keys:500 in
  let g = Workload.generator spec ~rng:(Rng.create ~seed:7) ~client:0 in
  let ops = collect g 3000 in
  let hot =
    List.length
      (List.filter
         (fun op ->
           (match op with Command.Get k | Command.Put (k, _) | Command.Delete k -> k) < 10)
         ops)
  in
  (* zipfian: the 10 hottest of 500 keys draw a large share *)
  Alcotest.(check bool) "head-heavy" true (hot > 600)

let test_op_count () =
  let g = gen () in
  ignore (collect g 17);
  Alcotest.(check int) "counted" 17 (Workload.op_count g)

(* Read-ratio sweeps set write_ratio = 1 - r: the generated mix lands
   within tolerance of r for any seed and any of the swept ratios. *)
let test_read_ratio_mix () =
  List.iter
    (fun seed ->
      List.iter
        (fun r ->
          let spec =
            { Workload.default with Workload.write_ratio = 1.0 -. r }
          in
          let g =
            Workload.generator spec ~rng:(Rng.create ~seed) ~client:0
          in
          let ops = collect g 4000 in
          let reads =
            List.length
              (List.filter (function Command.Get _ -> true | _ -> false) ops)
          in
          let f = float_of_int reads /. 4000.0 in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d r=%.2f measured %.3f" seed r f)
            true
            (Float.abs (f -. r) < 0.025))
        [ 0.5; 0.95; 0.99 ])
    [ 1; 7; 42; 1000; 20190630 ]

let suite =
  ( "workload",
    [
      Alcotest.test_case "keys in range" `Quick test_keys_in_range;
      Alcotest.test_case "write ratio" `Quick test_write_ratio;
      Alcotest.test_case "conflict ratio targets hot key" `Quick test_conflict_ratio_targets_hot_key;
      Alcotest.test_case "unique write values" `Quick test_unique_write_values;
      Alcotest.test_case "locality separates regions" `Quick test_locality_separates_regions;
      Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "ycsb presets" `Quick test_ycsb_presets;
      Alcotest.test_case "ycsb zipf skew" `Quick test_ycsb_zipf_skew;
      Alcotest.test_case "op count" `Quick test_op_count;
      Alcotest.test_case "read ratio mix" `Quick test_read_ratio_mix;
    ] )
