let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S: %s" s e

let test_scalars () =
  Alcotest.(check bool) "null" true (parse_ok "null" = Json.Null);
  Alcotest.(check bool) "true" true (parse_ok "true" = Json.Bool true);
  Alcotest.(check bool) "false" true (parse_ok " false " = Json.Bool false);
  Alcotest.(check bool) "int" true (parse_ok "42" = Json.Number 42.0);
  Alcotest.(check bool) "negative" true (parse_ok "-7" = Json.Number (-7.0));
  Alcotest.(check bool) "float" true (parse_ok "3.5e2" = Json.Number 350.0);
  Alcotest.(check bool) "string" true (parse_ok "\"hi\"" = Json.String "hi")

let test_escapes () =
  Alcotest.(check bool) "newline" true
    (parse_ok {|"a\nb"|} = Json.String "a\nb");
  Alcotest.(check bool) "quote" true
    (parse_ok {|"a\"b"|} = Json.String "a\"b");
  Alcotest.(check bool) "unicode" true
    (parse_ok {|"A"|} = Json.String "A")

let test_containers () =
  Alcotest.(check bool) "array" true
    (parse_ok "[1, 2, 3]" = Json.List [ Json.Number 1.0; Json.Number 2.0; Json.Number 3.0 ]);
  Alcotest.(check bool) "empty array" true (parse_ok "[]" = Json.List []);
  Alcotest.(check bool) "empty object" true (parse_ok "{}" = Json.Obj []);
  Alcotest.(check bool) "nested" true
    (parse_ok {|{"a": [true, {"b": 1}]}|}
    = Json.Obj
        [ ("a", Json.List [ Json.Bool true; Json.Obj [ ("b", Json.Number 1.0) ] ]) ])

let test_errors () =
  let bad s = Alcotest.(check bool) s true (Result.is_error (Json.parse s)) in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "tru";
  bad "1 2";
  bad "\"unterminated"

let test_roundtrip () =
  let v =
    Json.Obj
      [
        ("n", Json.Number 9.0);
        ("name", Json.String "pa\"xi\n");
        ("flags", Json.List [ Json.Bool true; Json.Null ]);
        ("rate", Json.Number 1.5);
      ]
  in
  Alcotest.(check bool) "roundtrip" true (parse_ok (Json.to_string v) = v)

let prop_roundtrip =
  let rec gen_value depth =
    QCheck.Gen.(
      if depth = 0 then
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Number (float_of_int i)) (int_range (-1000) 1000);
            map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 8));
          ]
      else
        oneof
          [
            map (fun i -> Json.Number (float_of_int i)) (int_range (-1000) 1000);
            map (fun l -> Json.List l) (list_size (int_range 0 4) (gen_value (depth - 1)));
            map
              (fun kvs -> Json.Obj (List.mapi (fun i (_, v) -> (Printf.sprintf "k%d" i, v)) kvs))
              (list_size (int_range 0 4) (pair unit (gen_value (depth - 1))));
          ])
  in
  QCheck.Test.make ~name:"json print/parse roundtrip" ~count:200
    (QCheck.make (gen_value 3))
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let test_accessors () =
  let v = parse_ok {|{"a": 1, "b": "x", "c": true, "d": 1.5}|} in
  Alcotest.(check (option int)) "int" (Some 1)
    (Option.bind (Json.member "a" v) Json.to_int);
  Alcotest.(check (option string)) "string" (Some "x")
    (Option.bind (Json.member "b" v) Json.get_string);
  Alcotest.(check (option bool)) "bool" (Some true)
    (Option.bind (Json.member "c" v) Json.to_bool);
  Alcotest.(check bool) "1.5 not int" true
    (Option.bind (Json.member "d" v) Json.to_int = None);
  Alcotest.(check bool) "missing" true (Json.member "z" v = None)

let test_config_roundtrip () =
  let config =
    {
      (Config.default ~n_replicas:9) with
      Config.q2_size = Some 3;
      thrifty = true;
      initial_object_owner = Some 1;
    }
  in
  match Config.of_json (Config.to_json config) with
  | Ok c -> Alcotest.(check bool) "roundtrip" true (c = config)
  | Error e -> Alcotest.fail e

let test_config_minimal () =
  match Config.of_json (Result.get_ok (Json.parse {|{"n_replicas": 5}|})) with
  | Ok c ->
      Alcotest.(check bool) "defaults fill in" true (c = Config.default ~n_replicas:5)
  | Error e -> Alcotest.fail e

(* typos, and fields that no longer exist, are errors at any depth *)
let test_config_rejects_unknown_field () =
  List.iter
    (fun text ->
      Alcotest.(check bool) text true
        (Result.is_error (Config.of_json (Result.get_ok (Json.parse text)))))
    [
      {|{"n_replicas": 5, "thirfty": true}|};
      {|{"n_replicas": 5, "read_ratio": 0.95}|};
      {|{"n_replicas": 5, "storage": {"mode": "every", "fsync_jitter_ms": 0.1}}|};
    ]

let test_config_requires_n () =
  Alcotest.(check bool) "missing n" true
    (Result.is_error (Config.of_json (Result.get_ok (Json.parse "{}"))))

let test_config_validates () =
  Alcotest.(check bool) "bad q2" true
    (Result.is_error
       (Config.of_json
          (Result.get_ok (Json.parse {|{"n_replicas": 5, "q2_size": 99}|}))))

let test_config_file () =
  let path = Filename.temp_file "paxi_config" ".json" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        {|{"n_replicas": 7, "thrifty": true, "seed": 123}|});
  (match Config.load_file path with
  | Ok c ->
      Alcotest.(check int) "n" 7 c.Config.n_replicas;
      Alcotest.(check bool) "thrifty" true c.Config.thrifty;
      Alcotest.(check int) "seed" 123 c.Config.seed
  | Error e -> Alcotest.fail e);
  Sys.remove path;
  Alcotest.(check bool) "missing file is an error" true
    (Result.is_error (Config.load_file path))

let suite =
  ( "json",
    [
      Alcotest.test_case "scalars" `Quick test_scalars;
      Alcotest.test_case "escapes" `Quick test_escapes;
      Alcotest.test_case "containers" `Quick test_containers;
      Alcotest.test_case "errors" `Quick test_errors;
      Alcotest.test_case "roundtrip" `Quick test_roundtrip;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      Alcotest.test_case "accessors" `Quick test_accessors;
      Alcotest.test_case "config roundtrip" `Quick test_config_roundtrip;
      Alcotest.test_case "config minimal" `Quick test_config_minimal;
      Alcotest.test_case "config rejects unknown field" `Quick test_config_rejects_unknown_field;
      Alcotest.test_case "config requires n" `Quick test_config_requires_n;
      Alcotest.test_case "config validates" `Quick test_config_validates;
      Alcotest.test_case "config file" `Quick test_config_file;
    ] )
