(* Tests for the failure-injection engine (Cold_sim.Failure), the
   survivability pass (Cold_net.Survivability) and the 2-edge-connected
   repair (Cold.Repair.two_edge_connect) plus its GA knob.

   The determinism contract mirrors test_incremental: same seed means
   bit-identical traces, and replaying a trace must produce byte-for-byte
   equal report arrays at every domain count — floats are compared through
   Int64.bits_of_float, no tolerances. *)

module Graph = Cold_graph.Graph
module Builders = Cold_graph.Builders
module Mst = Cold_graph.Mst
module Robustness = Cold_graph.Robustness
module Traversal = Cold_graph.Traversal
module Prng = Cold_prng.Prng
module Point = Cold_geom.Point
module Context = Cold_context.Context
module Network = Cold_net.Network
module Survivability = Cold_net.Survivability
module Failure = Cold_sim.Failure

let bits = Int64.bits_of_float

let feq_bits a b = Int64.equal (bits a) (bits b)

let ctx_of seed n = Context.generate (Context.default_spec ~n) (Prng.create seed)

let edge_list g = List.rev (Graph.fold_edges g (fun acc u v -> (u, v) :: acc) [])

(* Elevated rates so short traces still exercise every failure mode. *)
let busy_rates =
  { Failure.link_rate = 0.05; node_rate = 0.03; regional_rate = 0.1;
    regional_radius = 15.0 }

(* --- trace generation ----------------------------------------------------- *)

let test_trace_deterministic () =
  List.iter
    (fun seed ->
      let ctx = ctx_of (seed + 100) 14 in
      let t1 = Failure.generate ~rates:busy_rates ~steps:25 ctx ~seed in
      let t2 = Failure.generate ~rates:busy_rates ~steps:25 ctx ~seed in
      (* Events carry only ints: structural equality IS bit-identity. *)
      Alcotest.(check bool) "same seed, same trace" true
        (t1.Failure.events = t2.Failure.events);
      let t3 = Failure.generate ~rates:busy_rates ~steps:25 ctx ~seed:(seed + 1) in
      Alcotest.(check bool) "different seed, different trace" false
        (t1.Failure.events = t3.Failure.events))
    [ 1; 2; 3 ]

let test_trace_prefix_stable () =
  (* Step i draws from an independent child stream, so a longer schedule is
     an extension of a shorter one, not a reshuffle. *)
  let ctx = ctx_of 9 10 in
  let short = Failure.generate ~rates:busy_rates ~steps:10 ctx ~seed:4 in
  let long = Failure.generate ~rates:busy_rates ~steps:30 ctx ~seed:4 in
  Alcotest.(check bool) "prefix unchanged" true
    (short.Failure.events = Array.sub long.Failure.events 0 10)

let test_trace_shape () =
  let ctx = ctx_of 5 9 in
  let t = Failure.generate ~rates:busy_rates ~steps:40 ctx ~seed:2 in
  Alcotest.(check int) "length" 40 (Failure.length t);
  Array.iteri
    (fun i e ->
      Alcotest.(check int) "step index" i e.Failure.step;
      let sorted_asc a = Array.for_all2 ( < ) (Array.sub a 0 (Array.length a - 1))
          (Array.sub a 1 (Array.length a - 1)) in
      if Array.length e.Failure.down_nodes > 1 then
        Alcotest.(check bool) "nodes ascending" true (sorted_asc e.Failure.down_nodes);
      Array.iter
        (fun (u, v) ->
          Alcotest.(check bool) "link u < v" true (0 <= u && u < v && v < 9))
        e.Failure.down_links;
      let l = Array.to_list e.Failure.down_links in
      Alcotest.(check bool) "links lexicographic" true
        (l = List.sort compare l))
    t.Failure.events

let test_regional_cut_extremes () =
  (* Regional rate 1 with a radius covering the whole region downs every
     node every step; radius 0 downs exactly the epicentre. *)
  let ctx = ctx_of 3 8 in
  let all =
    Failure.generate
      ~rates:{ Failure.link_rate = 0.0; node_rate = 0.0; regional_rate = 1.0;
               regional_radius = 1000.0 }
      ~steps:6 ctx ~seed:11
  in
  Array.iter
    (fun e ->
      Alcotest.(check (array int)) "everyone down"
        (Array.init 8 Fun.id) e.Failure.down_nodes)
    all.Failure.events;
  let point =
    Failure.generate
      ~rates:{ Failure.link_rate = 0.0; node_rate = 0.0; regional_rate = 1.0;
               regional_radius = 0.0 }
      ~steps:6 ctx ~seed:11
  in
  Array.iter
    (fun e ->
      Alcotest.(check int) "epicentre only" 1 (Array.length e.Failure.down_nodes))
    point.Failure.events;
  let quiet =
    Failure.generate
      ~rates:{ Failure.link_rate = 0.0; node_rate = 0.0; regional_rate = 0.0;
               regional_radius = 10.0 }
      ~steps:6 ctx ~seed:11
  in
  Array.iter
    (fun e ->
      Alcotest.(check int) "no nodes" 0 (Array.length e.Failure.down_nodes);
      Alcotest.(check int) "no links" 0 (Array.length e.Failure.down_links))
    quiet.Failure.events;
  (* In between, on a context where every third PoP sits on one anchor:
     each step's cut is exactly the PoPs within the radius of one of its
     own members, the epicentre, by Point.distance on the raw points. A
     co-located epicentre takes its twins down even at radius 0. *)
  let n = 15 in
  let rng = Prng.create 8 in
  let anchor = Point.make 20.0 30.0 in
  let pts =
    Array.init n (fun i ->
        if i mod 3 = 0 then anchor
        else Point.make (50.0 *. Prng.float rng) (50.0 *. Prng.float rng))
  in
  let ctx = Context.of_points_and_populations pts (Array.make n 1.0) in
  let partial = ref 0 in
  List.iter
    (fun radius ->
      let trace =
        Failure.generate
          ~rates:{ Failure.link_rate = 0.0; node_rate = 0.0;
                   regional_rate = 1.0; regional_radius = radius }
          ~steps:40 ctx ~seed:5
      in
      Array.iter
        (fun e ->
          let down = Array.to_list e.Failure.down_nodes in
          let cut epicentre =
            List.filter
              (fun j -> Point.distance pts.(epicentre) pts.(j) <= radius)
              (List.init n Fun.id)
          in
          Alcotest.(check bool)
            (Printf.sprintf "r=%g step %d is one epicentre's cut" radius
               e.Failure.step)
            true
            (List.exists (fun c -> cut c = down) down);
          if List.length down > 1 && List.length down < n then incr partial)
        trace.Failure.events)
    [ 0.0; 12.0 ];
  Alcotest.(check bool) "some cuts are partial" true (!partial > 0)

let test_generate_validation () =
  let ctx = ctx_of 1 5 in
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Failure: link_rate must be a probability") (fun () ->
      ignore
        (Failure.generate
           ~rates:{ busy_rates with Failure.link_rate = 1.5 }
           ~steps:1 ctx ~seed:1));
  Alcotest.check_raises "bad radius"
    (Invalid_argument "Failure: regional_radius must be >= 0") (fun () ->
      ignore
        (Failure.generate
           ~rates:{ busy_rates with Failure.regional_radius = -1.0 }
           ~steps:1 ctx ~seed:1));
  Alcotest.check_raises "bad steps"
    (Invalid_argument "Failure.generate: steps must be >= 0") (fun () ->
      ignore (Failure.generate ~steps:(-1) ctx ~seed:1));
  Alcotest.(check int) "zero steps fine" 0
    (Failure.length (Failure.generate ~steps:0 ctx ~seed:1))

(* --- replay determinism across domains ------------------------------------ *)

let check_report_eq label (a : Survivability.report) (b : Survivability.report) =
  let int_field name x y =
    if x <> y then Alcotest.failf "%s: %s: got %d, want %d" label name x y
  in
  let float_field name x y =
    if not (feq_bits x y) then
      Alcotest.failf "%s: %s: got %h, want %h" label name x y
  in
  int_field "down_node_count" a.Survivability.down_node_count b.Survivability.down_node_count;
  int_field "down_link_count" a.Survivability.down_link_count b.Survivability.down_link_count;
  int_field "failed_pairs" a.Survivability.failed_pairs b.Survivability.failed_pairs;
  int_field "disconnected_pairs" a.Survivability.disconnected_pairs
    b.Survivability.disconnected_pairs;
  int_field "overloaded_links" a.Survivability.overloaded_links b.Survivability.overloaded_links;
  float_field "delivered_fraction" a.Survivability.delivered_fraction
    b.Survivability.delivered_fraction;
  float_field "lost_fraction" a.Survivability.lost_fraction b.Survivability.lost_fraction;
  float_field "stretch" a.Survivability.stretch b.Survivability.stretch;
  float_field "routed_volume_length" a.Survivability.routed_volume_length
    b.Survivability.routed_volume_length;
  float_field "max_utilization" a.Survivability.max_utilization b.Survivability.max_utilization

let test_evaluate_domain_invariance () =
  List.iter
    (fun seed ->
      let n = 10 in
      let ctx = ctx_of seed n in
      (* An MST plus a few shortcuts: bridges AND redundancy, so steps hit
         every report path (disconnection, detours, overload). *)
      let g = Mst.mst_graph ~n ~weight:(fun u v -> Context.distance ctx u v) in
      Graph.add_edge g 0 (n - 1);
      Graph.add_edge g 1 (n - 2);
      let net = Network.build ctx g in
      let trace = Failure.generate ~rates:busy_rates ~steps:12 ctx ~seed in
      let baseline = Failure.evaluate ~domains:1 net trace in
      List.iter
        (fun domains ->
          let got = Failure.evaluate ~domains net trace in
          Array.iteri
            (fun i r ->
              check_report_eq
                (Printf.sprintf "seed %d, %d domains, step %d" seed domains i)
                got.(i) r)
            baseline)
        [ 2; 4; 8 ];
      (* The summary is a pure fold over the reports plus a seeded
         bootstrap: bit-identical too. *)
      let s1 = Failure.summarize (Prng.create 9) baseline in
      let s8 =
        Failure.summarize (Prng.create 9) (Failure.evaluate ~domains:8 net trace)
      in
      Alcotest.(check bool) "summaries bit-identical" true (s1 = s8))
    [ 1; 2; 3 ]

let test_evaluate_size_mismatch () =
  let ctx = ctx_of 1 6 in
  let trace = Failure.generate ~steps:2 ctx ~seed:1 in
  let other = ctx_of 1 7 in
  let net = Network.build other (Builders.cycle 7) in
  Alcotest.check_raises "wrong n"
    (Invalid_argument "Failure.evaluate: trace size does not match network")
    (fun () -> ignore (Failure.evaluate net trace))

let test_summarize_empty () =
  Alcotest.check_raises "no reports"
    (Invalid_argument "Failure.summarize: no reports") (fun () ->
      ignore (Failure.summarize (Prng.create 1) [||]))

(* --- two_edge_connect ----------------------------------------------------- *)

let line_ctx n =
  let points = Array.init n (fun i -> Point.make (float_of_int i) 0.0) in
  Context.of_points_and_populations points (Array.make n 1.0)

let test_two_edge_connect_hand_computed () =
  (* Path 0-1-2-3 on a unit-spaced line. First bridge (0,1): cheapest absent
     crossing pair is (0,2) at distance 2 (vs (0,3) at 3). Remaining bridge
     (2,3): cheapest is (1,3) at 2 (vs (0,3) at 3). Two additions, then
     bridge-free. *)
  let ctx = line_ctx 4 in
  let g = Builders.path 4 in
  let added = Cold.Repair.two_edge_connect ctx g in
  Alcotest.(check int) "added" 2 added;
  Alcotest.(check (list (pair int int))) "edges"
    [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ]
    (List.sort compare (edge_list g));
  Alcotest.(check bool) "2-edge-connected" true (Robustness.is_two_edge_connected g)

let random_graph ctx rng ~p =
  let n = Context.n ctx in
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Cold_prng.Dist.bernoulli rng ~p then Graph.add_edge g u v
    done
  done;
  g

let test_two_edge_connect_random () =
  let rng = Prng.create 77 in
  for trial = 0 to 19 do
    let n = 3 + (trial mod 10) in
    let ctx = ctx_of (trial + 1) n in
    (* Sparse draws are often disconnected — exactly the hard inputs. *)
    let g = random_graph ctx rng ~p:0.15 in
    let twin = Graph.copy g in
    let added = Cold.Repair.two_edge_connect ctx g in
    Alcotest.(check bool) "2-edge-connected" true (Robustness.is_two_edge_connected g);
    Alcotest.(check bool) "connected" true (Traversal.is_connected g);
    Alcotest.(check bool) "added some" true (added >= 0);
    (* Idempotent: a second pass has nothing to do. *)
    Alcotest.(check int) "idempotent" 0 (Cold.Repair.two_edge_connect ctx g);
    (* Deterministic: an identical copy repairs to the identical graph. *)
    ignore (Cold.Repair.two_edge_connect ctx twin);
    Alcotest.(check (list (pair int int))) "deterministic"
      (List.sort compare (edge_list g))
      (List.sort compare (edge_list twin))
  done

let test_two_edge_connect_cycle_noop () =
  let ctx = ctx_of 4 6 in
  let g = Builders.cycle 6 in
  Alcotest.(check int) "nothing added" 0 (Cold.Repair.two_edge_connect ctx g);
  Alcotest.(check int) "edges kept" 6 (Graph.edge_count g)

let test_two_edge_connect_empty_input () =
  let ctx = ctx_of 8 5 in
  let g = Graph.create 5 in
  ignore (Cold.Repair.two_edge_connect ctx g);
  Alcotest.(check bool) "from edgeless" true (Robustness.is_two_edge_connected g)

let test_two_edge_connect_tiny () =
  (* n <= 2 cannot be 2-edge-connected as a simple graph: connected is the
     best the repair can (and does) deliver. *)
  let ctx1 = line_ctx 1 in
  let g1 = Graph.create 1 in
  Alcotest.(check int) "n=1 nothing" 0 (Cold.Repair.two_edge_connect ctx1 g1);
  let ctx2 = line_ctx 2 in
  let g2 = Graph.create 2 in
  Alcotest.(check int) "n=2 connects" 1 (Cold.Repair.two_edge_connect ctx2 g2);
  Alcotest.(check bool) "n=2 connected" true (Traversal.is_connected g2);
  Alcotest.(check int) "n=2 stable" 0 (Cold.Repair.two_edge_connect ctx2 g2)

let test_two_edge_connect_size_mismatch () =
  let ctx = line_ctx 3 in
  Alcotest.check_raises "size"
    (Invalid_argument "Repair.two_edge_connect: graph size does not match context")
    (fun () -> ignore (Cold.Repair.two_edge_connect ctx (Graph.create 4)))

(* --- the survivable GA knob ----------------------------------------------- *)

let small_settings =
  {
    Cold.Ga.default_settings with
    Cold.Ga.population_size = 12;
    generations = 5;
    num_saved = 3;
    num_crossover = 6;
    num_mutation = 3;
  }

let test_survivable_ga () =
  let ctx = ctx_of 21 8 in
  let params = Cold.Cost.params ~k2:3e-4 () in
  let run domains =
    Cold.Ga.run ~domains ~survivable:true small_settings params ctx
      (Prng.create 6)
  in
  let r = run 1 in
  Alcotest.(check bool) "best 2-edge-connected" true
    (Robustness.is_two_edge_connected r.Cold.Ga.best);
  Array.iter
    (fun (g, _) ->
      Alcotest.(check bool) "population member 2-edge-connected" true
        (Robustness.is_two_edge_connected g))
    r.Cold.Ga.final_population;
  (* The repair consumes no randomness, so domain-count determinism holds. *)
  let r2 = run 2 in
  Alcotest.(check bool) "best cost bit-identical across domains" true
    (feq_bits r.Cold.Ga.best_cost r2.Cold.Ga.best_cost);
  Alcotest.(check bool) "history bit-identical across domains" true
    (Array.for_all2 feq_bits r.Cold.Ga.history r2.Cold.Ga.history)

let test_survivable_synthesis () =
  let cfg =
    {
      (Cold.Synthesis.default_config ~params:(Cold.Cost.params ~k2:4e-4 ()) ()) with
      Cold.Synthesis.ga = small_settings;
      heuristic_permutations = 2;
      survivable = true;
    }
  in
  let net = Cold.Synthesis.synthesize cfg (Context.default_spec ~n:9) ~seed:13 in
  Alcotest.(check bool) "designed network 2-edge-connected" true
    (Robustness.is_two_edge_connected net.Network.graph)

let () =
  Alcotest.run "cold_failure"
    [
      ( "trace",
        [
          Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
          Alcotest.test_case "prefix stable" `Quick test_trace_prefix_stable;
          Alcotest.test_case "shape" `Quick test_trace_shape;
          Alcotest.test_case "regional extremes" `Quick test_regional_cut_extremes;
          Alcotest.test_case "validation" `Quick test_generate_validation;
        ] );
      ( "replay",
        [
          Alcotest.test_case "domain invariance" `Quick test_evaluate_domain_invariance;
          Alcotest.test_case "size mismatch" `Quick test_evaluate_size_mismatch;
          Alcotest.test_case "empty summary" `Quick test_summarize_empty;
        ] );
      ( "two_edge_connect",
        [
          Alcotest.test_case "hand computed" `Quick test_two_edge_connect_hand_computed;
          Alcotest.test_case "random graphs" `Quick test_two_edge_connect_random;
          Alcotest.test_case "cycle no-op" `Quick test_two_edge_connect_cycle_noop;
          Alcotest.test_case "edgeless input" `Quick test_two_edge_connect_empty_input;
          Alcotest.test_case "tiny graphs" `Quick test_two_edge_connect_tiny;
          Alcotest.test_case "size mismatch" `Quick test_two_edge_connect_size_mismatch;
        ] );
      ( "survivable_ga",
        [
          Alcotest.test_case "ga knob" `Quick test_survivable_ga;
          Alcotest.test_case "synthesis knob" `Quick test_survivable_synthesis;
        ] );
    ]
