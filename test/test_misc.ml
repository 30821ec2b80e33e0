(* Report, Registry *)

open Paxi_benchmark

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_report_table () =
  let out =
    Format.asprintf "%t" (fun ppf ->
        Report.table ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ] ppf)
  in
  Alcotest.(check bool) "has rule" true (String.contains out '-');
  Alcotest.(check bool) "contains cells" true
    (contains out "333" && contains out "bb")

let test_report_csv () =
  Alcotest.(check string) "csv" "a,b\n1,2\n"
    (Report.csv ~header:[ "a"; "b" ] ~rows:[ [ "1"; "2" ] ])

let test_report_csv_quoting () =
  (* RFC 4180: cells containing separators, quotes or newlines are
     quoted; embedded quotes double *)
  Alcotest.(check string) "quoted cells"
    "\"a,b\",plain\n\"say \"\"hi\"\"\",\"line\nbreak\"\n"
    (Report.csv
       ~header:[ "a,b"; "plain" ]
       ~rows:[ [ "say \"hi\""; "line\nbreak" ] ])

let test_report_csv_roundtrip () =
  let rows =
    [
      [ "plain"; "with,comma"; "with \"quote\"" ];
      [ "line\nbreak"; "trailing space "; "" ];
      [ "crlf\r\npair"; ","; "\"" ];
    ]
  in
  let header = [ "h1"; "h,2"; "h\"3" ] in
  Alcotest.(check (list (list string)))
    "round trip" (header :: rows)
    (Report.csv_parse (Report.csv ~header ~rows))

let prop_csv_roundtrip =
  let cell_gen =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ 'a'; 'b'; ','; '"'; '\n'; '\r'; ' ' ])
        (int_range 0 8))
  in
  QCheck.Test.make ~name:"csv round-trips arbitrary cells" ~count:300
    QCheck.(
      list_of_size
        (Gen.int_range 1 5)
        (list_of_size (Gen.int_range 1 5) (make cell_gen)))
    (fun rows ->
      match rows with
      | [] -> true
      | header :: body ->
          (* csv requires rows to match header width; pad/trim *)
          let w = List.length header in
          let body =
            List.map
              (fun r ->
                let r = List.filteri (fun i _ -> i < w) r in
                r @ List.init (w - List.length r) (fun _ -> ""))
              body
          in
          Report.csv_parse (Report.csv ~header ~rows:body) = header :: body)

let test_report_formats () =
  Alcotest.(check string) "ms" "1.235" (Report.fms 1.2351);
  Alcotest.(check string) "nan" "-" (Report.fms nan);
  Alcotest.(check string) "inf" "-" (Report.fms infinity);
  Alcotest.(check string) "rate" "1235" (Report.frate 1234.6)

let test_registry () =
  Alcotest.(check int) "ten protocols" 10 (List.length Paxi_protocols.Registry.all);
  Alcotest.(check bool) "finds paxos" true
    (Paxi_protocols.Registry.find "paxos" <> None);
  Alcotest.(check bool) "misses unknown" true
    (Paxi_protocols.Registry.find "zab" = None);
  List.iter
    (fun name ->
      let (module P) = Paxi_protocols.Registry.find_exn name in
      Alcotest.(check string) "name matches" name P.name)
    Paxi_protocols.Registry.names

let test_registry_find_exn_raises () =
  match Paxi_protocols.Registry.find_exn "nope" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let suite =
  ( "misc",
    [
      Alcotest.test_case "report table" `Quick test_report_table;
      Alcotest.test_case "report csv" `Quick test_report_csv;
      Alcotest.test_case "report csv quoting" `Quick test_report_csv_quoting;
      Alcotest.test_case "report csv roundtrip" `Quick test_report_csv_roundtrip;
      QCheck_alcotest.to_alcotest prop_csv_roundtrip;
      Alcotest.test_case "report formats" `Quick test_report_formats;
      Alcotest.test_case "registry" `Quick test_registry;
      Alcotest.test_case "registry find_exn" `Quick test_registry_find_exn_raises;
    ] )
