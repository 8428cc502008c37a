(* Tests for DOT/GML/edge-list I/O. *)

module Graph = Cold_graph.Graph
module Builders = Cold_graph.Builders
module Prng = Cold_prng.Prng
module Point = Cold_geom.Point
module Context = Cold_context.Context
module Network = Cold_net.Network
module Dot = Cold_netio.Dot
module Gml = Cold_netio.Gml
module Edge_list = Cold_netio.Edge_list

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Unwrap a parser result; tests operate on known-good inputs. *)
let ok_exn name = function
  | Ok g -> g
  | Error e ->
    Alcotest.failf "%s: unexpected parse error: %s" name
      (Cold_netio.Parse_error.to_string e)

let sample_network () =
  let points =
    [| Point.make 0.0 0.0; Point.make 1.0 0.0; Point.make 0.5 1.0 |]
  in
  let ctx = Context.of_points_and_populations points [| 1.0; 2.0; 3.0 |] in
  Network.build ctx (Builders.path 3)

let test_dot_graph () =
  let s = Dot.of_graph ~name:"g" (Builders.path 3) in
  Alcotest.(check bool) "header" true (contains s "graph g {");
  Alcotest.(check bool) "edge 0-1" true (contains s "0 -- 1");
  Alcotest.(check bool) "edge 1-2" true (contains s "1 -- 2");
  Alcotest.(check bool) "closes" true (contains s "}")

let test_dot_network () =
  let s = Dot.of_network (sample_network ()) in
  Alcotest.(check bool) "positions" true (contains s "pos=");
  Alcotest.(check bool) "capacity labels" true (contains s "label=");
  (* PoP 1 has degree 2 → box; leaves → circle. *)
  Alcotest.(check bool) "core box" true (contains s "shape=box");
  Alcotest.(check bool) "leaf circle" true (contains s "shape=circle")

let test_dot_write_file () =
  let path = Filename.temp_file "cold_test" ".dot" in
  Dot.write_file ~path "graph x {}\n";
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "written" "graph x {}" line

let test_gml () =
  let s = Gml.of_network ~label:"test" (sample_network ()) in
  Alcotest.(check bool) "label" true (contains s "label \"test\"");
  Alcotest.(check bool) "nodes" true (contains s "node [");
  Alcotest.(check bool) "edges" true (contains s "edge [");
  Alcotest.(check bool) "graphics" true (contains s "graphics [");
  Alcotest.(check bool) "capacity attr" true (contains s "capacity");
  let sg = Gml.of_graph (Builders.star 4) in
  Alcotest.(check bool) "graph form" true (contains sg "source 0")

let test_edge_list_round_trip () =
  let rng = Prng.create 1 in
  for _ = 1 to 20 do
    let g = Builders.random_tree (2 + Prng.int rng 20) rng in
    let s = Edge_list.to_string g in
    let h = ok_exn "edge list" (Edge_list.of_string s) in
    Alcotest.(check bool) "round trip" true (Graph.equal g h)
  done

let test_edge_list_comments_blanks () =
  let g = ok_exn "comments" (Edge_list.of_string "# comment\n3 2\n\n0 1\n# another\n1 2\n") in
  Alcotest.(check int) "nodes" 3 (Graph.node_count g);
  Alcotest.(check int) "edges" 2 (Graph.edge_count g)

let expect_failure ?line name input =
  match Edge_list.of_string input with
  | Error e ->
    Option.iter
      (fun l -> Alcotest.(check int) (name ^ ": error line") l e.Cold_netio.Parse_error.line)
      line
  | Ok _ -> Alcotest.failf "%s: expected parse error" name

let test_edge_list_errors () =
  expect_failure ~line:0 "empty" "";
  expect_failure ~line:0 "only comments" "# a\n\n# b\n";
  expect_failure ~line:1 "bad header" "x y\n";
  expect_failure ~line:1 "negative header" "-1 0\n";
  expect_failure ~line:2 "out of range" "2 1\n0 5\n";
  expect_failure ~line:2 "self loop" "3 1\n1 1\n";
  expect_failure ~line:1 "wrong count" "3 5\n0 1\n";
  expect_failure ~line:2 "three fields" "2 1\n0 1 9\n";
  expect_failure ~line:2 "non-integer edge" "2 1\nzero 1\n";
  (* Line numbers count raw input lines, so comments and blanks offset the
     reported position. *)
  expect_failure ~line:5 "comments offset the count" "# c\n\n3 2\n0 1\n0 9\n"

let test_edge_list_files () =
  let path = Filename.temp_file "cold_test" ".edges" in
  let g = Builders.cycle 6 in
  Edge_list.write_file ~path g;
  let h = ok_exn "edge file" (Edge_list.read_file ~path) in
  Sys.remove path;
  Alcotest.(check bool) "file round trip" true (Graph.equal g h)

(* --- GML parser --------------------------------------------------------------- *)

module Gml_parser = Cold_netio.Gml_parser

let test_gml_parse_writer_output () =
  let g = Builders.cycle 7 in
  Alcotest.(check bool) "round trip via writer" true (Gml_parser.roundtrip_check g);
  let net = sample_network () in
  let parsed = ok_exn "network gml" (Gml_parser.parse (Gml.of_network net)) in
  Alcotest.(check bool) "network GML parses to same topology" true
    (Graph.equal parsed net.Network.graph)

let test_gml_parse_zoo_style () =
  (* Sparse ids, labels, nested graphics, Zoo-style attributes. *)
  let text =
    {|
Creator "Topology Zoo Toolset"
graph [
  directed 0
  label "TestNet"
  node [ id 10 label "Adelaide" graphics [ x 138.6 y -34.9 w 10 ] ]
  node [ id 20 label "Sydney" Internal 1 ]
  node [ id 7 label "Melbourne" ]
  edge [ source 10 target 20 LinkLabel "10 Gbps" ]
  edge [ source 20 target 7 ]
  edge [ source 7 target 7 ]
  edge [ source 10 target 20 ]
]
|}
  in
  let g = ok_exn "zoo gml" (Gml_parser.parse text) in
  Alcotest.(check int) "three nodes" 3 (Graph.node_count g);
  (* ids compact in order 7 -> 0, 10 -> 1, 20 -> 2; self-loop dropped,
     duplicate collapsed. *)
  Alcotest.(check int) "two edges" 2 (Graph.edge_count g);
  Alcotest.(check bool) "10-20 edge" true (Graph.mem_edge g 1 2);
  Alcotest.(check bool) "20-7 edge" true (Graph.mem_edge g 0 2)

let gml_expect_failure ?line name input =
  match Gml_parser.parse input with
  | Error e ->
    Option.iter
      (fun l -> Alcotest.(check int) (name ^ ": error line") l e.Cold_netio.Parse_error.line)
      line
  | Ok _ -> Alcotest.failf "%s: expected parse error" name

let test_gml_parse_errors () =
  (* Whole-document problems report line 0; everything else reports the
     line of the offending key, even in multi-line input. *)
  gml_expect_failure ~line:0 "no graph" "node [ id 1 ]";
  gml_expect_failure ~line:0 "trailing bracket" "graph [ ]\n]";
  gml_expect_failure ~line:1 "unbalanced" "graph [\n  node [ id 1 ]";
  gml_expect_failure ~line:2 "node without id"
    "graph [\n  node [ label \"x\" ]\n]";
  gml_expect_failure ~line:2 "non-integer node id"
    "graph [\n  node [ id seven ]\n]";
  gml_expect_failure ~line:2 "malformed node" "graph [\n  node 5\n]";
  gml_expect_failure ~line:3 "edge to unknown node"
    "graph [\n  node [ id 1 ]\n  edge [ source 1 target 2 ]\n]";
  gml_expect_failure ~line:3 "non-integer edge endpoint"
    "graph [\n  node [ id 1 ]\n  edge [ source 1 target x ]\n]";
  gml_expect_failure ~line:3 "edge without source"
    "graph [\n  node [ id 1 ]\n  edge [ target 1 ]\n]";
  gml_expect_failure ~line:2 "malformed edge" "graph [\n  edge 5\n]";
  gml_expect_failure ~line:2 "unterminated string" "graph [\n  label \"oops\n]";
  gml_expect_failure ~line:2 "key without value" "graph [\n  node [ id ]\n]";
  gml_expect_failure ~line:2 "unexpected bracket" "graph [\n  [ id 1 ]\n]"

(* A size read from the input is checked before the n²-byte graph is
   allocated: one over the shared limit is a typed error on the line that
   claims it, and the limit itself is accepted. *)
let test_oversized_inputs () =
  let max_n = Cold_util.Limits.max_n in
  let message = function
    | Ok _ -> Alcotest.fail "expected parse error"
    | Error e -> Cold_netio.Parse_error.to_string e
  in
  Alcotest.(check string) "edge list: 13-byte header"
    "line 1: header claims 1000000000 nodes, more than the limit of 2000"
    (message (Edge_list.of_string "1000000000 0\n"));
  expect_failure ~line:2 "edge list: one over" (Printf.sprintf "# c\n%d 0\n" (max_n + 1));
  Alcotest.(check int) "edge list: at the limit" max_n
    (Graph.node_count (ok_exn "at the limit" (Edge_list.of_string (Printf.sprintf "%d 0\n" max_n))));
  let gml count =
    let b = Buffer.create (16 * count) in
    Buffer.add_string b "Creator \"test\"\ngraph [\n";
    for i = 0 to count - 1 do
      Buffer.add_string b (Printf.sprintf "  node [ id %d ]\n" i)
    done;
    Buffer.add_string b "]\n";
    Buffer.contents b
  in
  Alcotest.(check string) "gml: one over"
    "line 2: graph has 2001 nodes, more than the limit of 2000"
    (message (Gml_parser.parse (gml (max_n + 1))));
  Alcotest.(check int) "gml: at the limit" max_n
    (Graph.node_count (ok_exn "gml at the limit" (Gml_parser.parse (gml max_n))))

let test_gml_file_round_trip () =
  let path = Filename.temp_file "cold_test" ".gml" in
  let g = Builders.double_star 9 in
  Dot.write_file ~path (Gml.of_graph g);
  let h = ok_exn "gml file" (Gml_parser.read_file ~path) in
  Sys.remove path;
  Alcotest.(check bool) "file round trip" true (Graph.equal g h)

(* --- ASCII map ------------------------------------------------------------- *)

module Ascii_map = Cold_netio.Ascii_map

let test_ascii_map () =
  let art = Ascii_map.render ~width:40 ~height:12 (sample_network ()) in
  let lines = String.split_on_char '\n' art in
  Alcotest.(check int) "height + legend" 13 (List.length lines);
  List.iteri
    (fun i l -> if i < 12 then Alcotest.(check int) "width" 40 (String.length l))
    lines;
  Alcotest.(check bool) "has hub marker" true (contains art "#");
  Alcotest.(check bool) "has leaf marker" true (contains art "o");
  Alcotest.(check bool) "has links" true (contains art ".");
  Alcotest.(check bool) "legend" true (contains art "legend:")

let test_ascii_map_errors () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Ascii_map.render_graph: size mismatch")
    (fun () ->
      ignore (Ascii_map.render_graph [| Point.make 0.0 0.0 |] (Builders.path 3)));
  Alcotest.check_raises "tiny canvas" (Invalid_argument "Ascii_map: canvas too small")
    (fun () ->
      ignore
        (Ascii_map.render_graph ~width:2 ~height:2
           [| Point.make 0.0 0.0 |]
           (Graph.create 1)))

let qcheck_gml_round_trip =
  QCheck.Test.make ~name:"GML writer/parser round-trips arbitrary graphs" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_bound 30) (pair (int_bound 9) (int_bound 9)))
    (fun pairs ->
      let g = Graph.create 10 in
      List.iter (fun (u, v) -> if u <> v then Graph.add_edge g u v) pairs;
      Gml_parser.roundtrip_check g)

let qcheck_edge_list_round_trip =
  QCheck.Test.make ~name:"edge list round-trips arbitrary graphs" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_bound 30) (pair (int_bound 9) (int_bound 9)))
    (fun pairs ->
      let g = Graph.create 10 in
      List.iter (fun (u, v) -> if u <> v then Graph.add_edge g u v) pairs;
      match Edge_list.of_string (Edge_list.to_string g) with
      | Ok h -> Graph.equal g h
      | Error _ -> false)

(* The readers against random and mutated bytes; the seeds are the
   goldens' inputs and a writer's output. *)
let fuzz_seeds () =
  [
    Fuzz.read_file "golden/fit_input.gml";
    Fuzz.read_file "golden/generate.expected";
    Fuzz.read_file "golden/oversized.edges";
    Edge_list.to_string (Builders.cycle 5);
  ]

let fuzz_gml_parser =
  Fuzz.never_raises ~name:"fuzz" ~count:3000 (fuzz_seeds ()) (fun s ->
      ignore (Gml_parser.parse s))

let fuzz_edge_list =
  Fuzz.never_raises ~name:"fuzz" ~count:3000 (fuzz_seeds ()) (fun s ->
      ignore (Edge_list.of_string s))

let () =
  Alcotest.run "cold_netio"
    [
      ( "dot",
        [
          Alcotest.test_case "graph" `Quick test_dot_graph;
          Alcotest.test_case "network" `Quick test_dot_network;
          Alcotest.test_case "write file" `Quick test_dot_write_file;
        ] );
      ("gml", [ Alcotest.test_case "network" `Quick test_gml ]);
      ( "ascii_map",
        [
          Alcotest.test_case "render" `Quick test_ascii_map;
          Alcotest.test_case "errors" `Quick test_ascii_map_errors;
        ] );
      ( "gml_parser",
        [
          Alcotest.test_case "writer output" `Quick test_gml_parse_writer_output;
          Alcotest.test_case "zoo style" `Quick test_gml_parse_zoo_style;
          Alcotest.test_case "errors" `Quick test_gml_parse_errors;
          Alcotest.test_case "file round trip" `Quick test_gml_file_round_trip;
          fuzz_gml_parser;
        ] );
      ( "edge_list",
        [
          Alcotest.test_case "round trip" `Quick test_edge_list_round_trip;
          Alcotest.test_case "comments/blanks" `Quick test_edge_list_comments_blanks;
          Alcotest.test_case "errors" `Quick test_edge_list_errors;
          Alcotest.test_case "oversized inputs" `Quick test_oversized_inputs;
          Alcotest.test_case "files" `Quick test_edge_list_files;
          fuzz_edge_list;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_edge_list_round_trip;
          QCheck_alcotest.to_alcotest qcheck_gml_round_trip;
        ] );
    ]
