(* Tests for the §5 greedy hub heuristics. *)

module Graph = Cold_graph.Graph
module Traversal = Cold_graph.Traversal
module Prng = Cold_prng.Prng
module Context = Cold_context.Context
module Cost = Cold.Cost
module Heuristics = Cold.Heuristics

let ctx_of seed n = Context.generate (Context.default_spec ~n) (Prng.create seed)

let test_names () =
  Alcotest.(check string) "complete" "complete" (Heuristics.name Heuristics.Complete);
  Alcotest.(check string) "random greedy" "random greedy"
    (Heuristics.name (Heuristics.Random_greedy { permutations = 3 }));
  Alcotest.(check int) "all four" 4 (List.length (Heuristics.all ~permutations:3))

let test_best_star_structure () =
  let ctx = ctx_of 1 10 in
  let (star, cost) = Heuristics.best_star (Cost.params ()) ctx in
  Alcotest.(check int) "star edges" 9 (Graph.edge_count star);
  Alcotest.(check int) "one hub" 1 (Cold_metrics.Degree.hub_count star);
  Alcotest.(check bool) "finite" true (Float.is_finite cost)

let test_best_star_is_best () =
  (* Exhaustively check the best star beats every other star. *)
  let ctx = ctx_of 2 8 in
  let p = Cost.params ~k3:20.0 () in
  let (_, best) = Heuristics.best_star p ctx in
  for hub = 0 to 7 do
    let g = Graph.create 8 in
    for v = 0 to 7 do
      if v <> hub then Graph.add_edge g hub v
    done;
    Alcotest.(check bool) "no star beats it" true (Cost.evaluate p ctx g >= best -. 1e-9)
  done

let test_mst_and_clique_topologies () =
  let ctx = ctx_of 3 9 in
  let mst = Heuristics.mst_topology ctx in
  Alcotest.(check int) "mst edges" 8 (Graph.edge_count mst);
  Alcotest.(check bool) "mst connected" true (Traversal.is_connected mst);
  Alcotest.(check int) "clique edges" 36 (Graph.edge_count (Heuristics.clique_topology ctx))

let all_algorithms = Heuristics.all ~permutations:4

let test_outputs_connected () =
  let ctx = ctx_of 4 15 in
  let p = Cost.params ~k2:2e-4 ~k3:10.0 () in
  List.iter
    (fun alg ->
      let (g, c) = Heuristics.run alg p ctx (Prng.create 5) in
      Alcotest.(check bool)
        (Heuristics.name alg ^ " connected")
        true (Traversal.is_connected g);
      Alcotest.(check (float 1e-6))
        (Heuristics.name alg ^ " cost agrees with evaluate")
        (Cost.evaluate p ctx g) c)
    all_algorithms

let test_never_worse_than_star () =
  let ctx = ctx_of 6 15 in
  let p = Cost.params ~k3:50.0 () in
  let (_, star_cost) = Heuristics.best_star p ctx in
  List.iter
    (fun alg ->
      let (_, c) = Heuristics.run alg p ctx (Prng.create 7) in
      Alcotest.(check bool)
        (Heuristics.name alg ^ " <= star")
        true (c <= star_cost +. 1e-9))
    all_algorithms

let test_deterministic () =
  let p = Cost.params ~k2:1e-4 () in
  List.iter
    (fun alg ->
      let run () =
        let ctx = ctx_of 8 12 in
        snd (Heuristics.run alg p ctx (Prng.create 9))
      in
      Alcotest.(check (float 1e-9)) (Heuristics.name alg ^ " deterministic") (run ())
        (run ()))
    all_algorithms

let test_near_optimal_small_n () =
  (* On 6 nodes the heuristics should be within 20 % of the brute-force
     optimum at moderate parameters (they are competitive algorithms, §5). *)
  let ctx = ctx_of 10 6 in
  let p = Cost.params ~k2:2e-4 ~k3:5.0 () in
  let (_, opt) = Cold.Brute_force.optimal p ctx in
  List.iter
    (fun alg ->
      let (_, c) = Heuristics.run alg p ctx (Prng.create 11) in
      Alcotest.(check bool)
        (Printf.sprintf "%s within 20%% (got %.2f vs %.2f)" (Heuristics.name alg) c opt)
        true
        (c <= 1.2 *. opt))
    all_algorithms

let test_k3_dominant_yields_star () =
  (* With an overwhelming hub cost every heuristic should end hub-and-spoke. *)
  let ctx = ctx_of 12 10 in
  let p = Cost.params ~k3:100_000.0 () in
  List.iter
    (fun alg ->
      let (g, _) = Heuristics.run alg p ctx (Prng.create 13) in
      Alcotest.(check int) (Heuristics.name alg ^ " single hub") 1
        (Cold_metrics.Degree.hub_count g))
    all_algorithms

let test_seed_set () =
  let ctx = ctx_of 14 10 in
  let seeds = Heuristics.seed_set ~permutations:3 (Cost.params ()) ctx (Prng.create 15) in
  Alcotest.(check int) "five seeds (star + 4 heuristics)" 5 (List.length seeds);
  List.iter
    (fun g ->
      Alcotest.(check int) "right size" 10 (Graph.node_count g);
      Alcotest.(check bool) "connected" true (Traversal.is_connected g))
    seeds

let test_too_small () =
  let ctx = ctx_of 16 1 in
  Alcotest.check_raises "one PoP" (Invalid_argument "Heuristics.run: need at least 2 PoPs")
    (fun () -> ignore (Heuristics.run Heuristics.Complete (Cost.params ()) ctx (Prng.create 1)));
  (* seed_set checks the size itself, before pricing the star. *)
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "seed_set at n = %d" n)
        (Invalid_argument "Heuristics.seed_set: need at least 2 PoPs")
        (fun () ->
          ignore (Heuristics.seed_set (Cost.params ()) (ctx_of 16 n) (Prng.create 1))))
    [ 0; 1 ]

let () =
  Alcotest.run "cold_heuristics"
    [
      ( "heuristics",
        [
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "best star structure" `Quick test_best_star_structure;
          Alcotest.test_case "best star optimal among stars" `Quick test_best_star_is_best;
          Alcotest.test_case "mst/clique topologies" `Quick test_mst_and_clique_topologies;
          Alcotest.test_case "outputs connected + cost consistent" `Quick
            test_outputs_connected;
          Alcotest.test_case "never worse than star" `Quick test_never_worse_than_star;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "near optimal small n" `Slow test_near_optimal_small_n;
          Alcotest.test_case "k3 dominant -> star" `Quick test_k3_dominant_yields_star;
          Alcotest.test_case "seed set" `Quick test_seed_set;
          Alcotest.test_case "too small" `Quick test_too_small;
        ] );
    ]
