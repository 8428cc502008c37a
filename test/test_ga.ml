(* Tests for the genetic algorithm and its operators (§4). *)

module Graph = Cold_graph.Graph
module Traversal = Cold_graph.Traversal
module Prng = Cold_prng.Prng
module Context = Cold_context.Context
module Cost = Cold.Cost
module Ga = Cold.Ga
module Operators = Cold.Operators
module Repair = Cold.Repair

let ctx_of seed n = Context.generate (Context.default_spec ~n) (Prng.create seed)

let small_settings =
  {
    Ga.default_settings with
    Ga.population_size = 30;
    generations = 25;
    num_saved = 6;
    num_crossover = 15;
    num_mutation = 9;
  }

let test_validate_ok () = Ga.validate Ga.default_settings

let test_validate_errors () =
  Alcotest.check_raises "counts must sum"
    (Invalid_argument
       "Ga: num_saved + num_crossover + num_mutation must equal population_size")
    (fun () -> Ga.validate { Ga.default_settings with Ga.num_saved = 21 });
  Alcotest.check_raises "pool >= winners"
    (Invalid_argument "Ga: need tournament_pool >= tournament_winners >= 1") (fun () ->
      Ga.validate { Ga.default_settings with Ga.tournament_pool = 1 });
  Alcotest.check_raises "bad prob"
    (Invalid_argument "Ga: node_mutation_prob out of range") (fun () ->
      Ga.validate { Ga.default_settings with Ga.node_mutation_prob = 1.5 })

let test_run_returns_connected () =
  let ctx = ctx_of 1 12 in
  let r = Ga.run small_settings (Cost.params ()) ctx (Prng.create 2) in
  Alcotest.(check bool) "best connected" true (Traversal.is_connected r.Ga.best);
  Array.iter
    (fun (g, c) ->
      Alcotest.(check bool) "population connected" true (Traversal.is_connected g);
      Alcotest.(check bool) "finite cost" true (Float.is_finite c))
    r.Ga.final_population

let test_run_deterministic () =
  let run () =
    let ctx = ctx_of 3 10 in
    Ga.run small_settings (Cost.params ()) ctx (Prng.create 4)
  in
  let a = run () and b = run () in
  Alcotest.(check (float 1e-9)) "same best cost" a.Ga.best_cost b.Ga.best_cost;
  Alcotest.(check bool) "same topology" true (Graph.equal a.Ga.best b.Ga.best)

let test_history_monotone () =
  let ctx = ctx_of 5 12 in
  let r = Ga.run small_settings (Cost.params ~k2:2e-4 ()) ctx (Prng.create 6) in
  let prev = ref infinity in
  Array.iter
    (fun c ->
      Alcotest.(check bool) "elitism keeps best cost non-increasing" true (c <= !prev);
      prev := c)
    r.Ga.history;
  Alcotest.(check (float 1e-9)) "history ends at best"
    r.Ga.best_cost r.Ga.history.(Array.length r.Ga.history - 1)

let test_improves_over_mst_and_clique () =
  let ctx = ctx_of 7 12 in
  let p = Cost.params ~k2:2e-4 () in
  let r = Ga.run small_settings p ctx (Prng.create 8) in
  let mst_cost = Cost.evaluate p ctx (Cold.Heuristics.mst_topology ctx) in
  let clique_cost = Cost.evaluate p ctx (Cold.Heuristics.clique_topology ctx) in
  (* MST and clique are in the initial population, so the result can never be
     worse. *)
  Alcotest.(check bool) "<= MST" true (r.Ga.best_cost <= mst_cost +. 1e-9);
  Alcotest.(check bool) "<= clique" true (r.Ga.best_cost <= clique_cost +. 1e-9)

let test_seeds_respected () =
  let ctx = ctx_of 9 6 in
  let p = Cost.params () in
  (* Seed with the true brute-force optimum: the GA can then never return
     anything worse. *)
  let (opt, opt_cost) = Cold.Brute_force.optimal p ctx in
  let r = Ga.run ~seeds:[ opt ] small_settings p ctx (Prng.create 10) in
  Alcotest.(check (float 1e-6)) "seeded optimum survives" opt_cost r.Ga.best_cost

let test_seed_size_mismatch () =
  let ctx = ctx_of 11 10 in
  Alcotest.check_raises "seed size"
    (Invalid_argument "Ga.run: seed topology size does not match context") (fun () ->
      ignore
        (Ga.run ~seeds:[ Graph.create 5 ] small_settings (Cost.params ()) ctx
           (Prng.create 1)))

let test_finds_optimum_small_n () =
  (* §5: the GA finds the true optimum for small instances. Check at n = 5
     across several cost corners. *)
  let corners =
    [
      Cost.params ();
      Cost.params ~k2:1e-3 ();
      Cost.params ~k3:50.0 ();
      Cost.params ~k0:1.0 ~k2:5e-4 ~k3:10.0 ();
    ]
  in
  List.iteri
    (fun i p ->
      let ctx = ctx_of (100 + i) 5 in
      let (_, opt_cost) = Cold.Brute_force.optimal p ctx in
      let r = Ga.run small_settings p ctx (Prng.create (200 + i)) in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "corner %d matches brute force" i)
        opt_cost r.Ga.best_cost)
    corners

(* --- operators -------------------------------------------------------------- *)

let test_tournament () =
  let pop =
    Array.init 10 (fun i -> (Graph.create 2, float_of_int (10 - i)))
    (* costs 10,9,...,1 *)
  in
  let rng = Prng.create 12 in
  let winners = Operators.tournament ~pool:10 ~winners:2 pop rng in
  Alcotest.(check int) "two winners" 2 (Array.length winners);
  Alcotest.(check bool) "winners sorted" true (snd winners.(0) <= snd winners.(1))

let test_select_inverse_cost_biased () =
  let g = Graph.create 2 in
  let pop = [| (g, 1.0); (g, 100.0) |] in
  let rng = Prng.create 13 in
  let low = ref 0 in
  for _ = 1 to 1000 do
    if Operators.select_inverse_cost pop rng = 0 then incr low
  done;
  (* weight 1 vs 0.01 → index 0 ≈ 99 %. *)
  Alcotest.(check bool) "cheap topology strongly preferred" true (!low > 950)

let test_select_infeasible_excluded () =
  let g = Graph.create 2 in
  let pop = [| (g, infinity); (g, 2.0) |] in
  let rng = Prng.create 14 in
  for _ = 1 to 50 do
    Alcotest.(check int) "never infeasible" 1 (Operators.select_inverse_cost pop rng)
  done

let test_crossover_identical_parents () =
  let ctx = ctx_of 15 8 in
  let parent = Cold.Heuristics.mst_topology ctx in
  let rng = Prng.create 16 in
  let child = Operators.crossover ctx ~parents:[| (parent, 10.0); (parent, 10.0) |] rng in
  Alcotest.(check bool) "child of identical parents is the parent" true
    (Graph.equal child parent)

let test_crossover_connected () =
  let ctx = ctx_of 17 10 in
  let rng = Prng.create 18 in
  let a = Cold.Heuristics.mst_topology ctx in
  let b = Cold.Heuristics.clique_topology ctx in
  for _ = 1 to 30 do
    let child = Operators.crossover ctx ~parents:[| (a, 5.0); (b, 20.0) |] rng in
    Alcotest.(check bool) "connected" true (Traversal.is_connected child)
  done

let test_crossover_gene_mix () =
  (* Every child edge must exist in at least one parent or come from repair;
     with both parents sharing an edge, the child always has it. *)
  let ctx = ctx_of 19 8 in
  let rng = Prng.create 20 in
  let a = Cold.Heuristics.mst_topology ctx in
  let b = Graph.copy a in
  Graph.add_edge b 0 (if Graph.mem_edge a 0 1 then 2 else 1);
  let shared = Graph.edges a in
  for _ = 1 to 10 do
    let child = Operators.crossover ctx ~parents:[| (a, 1.0); (b, 1.0) |] rng in
    List.iter
      (fun (u, v) ->
        Alcotest.(check bool) "shared edges inherited" true (Graph.mem_edge child u v))
      shared
  done

(* --- crossover oracle ------------------------------------------------------- *)

(* Random graph with each pair present with probability [p]. *)
let random_graph n ~p rng =
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.float rng < p then Graph.add_edge g u v
    done
  done;
  g

let oracle_costs =
  [
    ("unequal", [| 3.0; 7.5; 12.25 |]);
    ("equal", [| 5.0; 5.0; 5.0 |]);
    ("infinity", [| infinity; 4.0; infinity |]);
    ("all infinity", [| infinity; infinity; infinity |]);
    ("zero", [| 0.0; 2.0; 0.0 |]);
    ("nan", [| Float.nan; Float.nan; Float.nan |]);
  ]

let oracle_shapes =
  [
    ("identical", fun n rng ->
        let g = random_graph n ~p:0.3 rng in
        fun _ -> g);
    ("sparse", fun n rng _ -> random_graph n ~p:(Float.min 1.0 (3.0 /. float_of_int n)) rng);
    ("dense", fun n rng _ -> random_graph n ~p:0.9 rng);
    ("random", fun n rng _ -> random_graph n ~p:(Prng.float rng) rng);
  ]

(* Operators.crossover against the per-pair historical crossover: every
   case must give an equal child and leave the stream at the same state. *)
let test_crossover_oracle () =
  let cases = ref 0 in
  List.iter
    (fun n ->
      let ctx = ctx_of (500 + n) n in
      List.iteri
        (fun si (shape, make) ->
          List.iteri
            (fun ci (costs_name, costs) ->
              for k = 1 to 3 do
                for rep = 0 to 2 do
                  let seed = (((((n * 7) + si) * 11) + ci) * 5 + k) * 3 + rep in
                  let rng = Prng.create seed in
                  let parent = make n rng in
                  let parents = Array.init k (fun i -> (parent i, costs.(i))) in
                  let a = Prng.create (seed + 1) in
                  let b = Prng.copy a in
                  let want = Crossover_oracle.crossover ctx ~parents a in
                  let got = Operators.crossover ctx ~parents b in
                  let label =
                    Printf.sprintf "n=%d %s %s k=%d rep=%d" n shape costs_name k rep
                  in
                  Alcotest.(check bool) (label ^ ": child") true (Graph.equal want got);
                  Alcotest.(check int64)
                    (label ^ ": next draw") (Prng.bits64 a) (Prng.bits64 b);
                  incr cases
                done
              done)
            oracle_costs)
        oracle_shapes)
    [ 2; 3; 20; 40 ];
  Alcotest.(check int) "cases" (4 * 4 * 6 * 3 * 3) !cases

let test_crossover_size_mismatch () =
  let ctx = ctx_of 25 6 in
  let small = (Graph.create 5, 1.0) and large = (Graph.create 6, 1.0) in
  List.iter
    (fun parents ->
      Alcotest.check_raises "size mismatch"
        (Invalid_argument "Graph.recombine: size mismatch") (fun () ->
          ignore (Operators.crossover ctx ~parents (Prng.create 26))))
    [ [| small; large |]; [| large; small |]; [| large; large; small |] ]

let test_link_mutation_keeps_connected () =
  let ctx = ctx_of 21 10 in
  let rng = Prng.create 22 in
  for _ = 1 to 50 do
    let g = Cold.Heuristics.mst_topology ctx in
    Operators.link_mutation ctx g rng;
    Alcotest.(check bool) "connected" true (Traversal.is_connected g)
  done

let test_node_mutation_creates_leaf () =
  let ctx = ctx_of 23 10 in
  let rng = Prng.create 24 in
  for _ = 1 to 50 do
    let g = Cold.Heuristics.clique_topology ctx in
    Operators.node_mutation ctx g rng;
    Alcotest.(check bool) "connected" true (Traversal.is_connected g);
    (* Some node must now be a leaf (cliques have none). *)
    Alcotest.(check bool) "a leaf exists" true (Cold_metrics.Degree.leaf_count g >= 1)
  done

let test_node_mutation_noop_without_hubs () =
  let ctx = ctx_of 25 2 in
  let rng = Prng.create 26 in
  let g = Graph.of_edges 2 [ (0, 1) ] in
  Operators.node_mutation ctx g rng;
  Alcotest.(check int) "unchanged" 1 (Graph.edge_count g)

let test_repair () =
  let ctx = ctx_of 27 8 in
  let g = Graph.create 8 in
  let added = Repair.repair ctx g in
  Alcotest.(check int) "tree added" 7 added;
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check int) "no-op on connected" 0 (Repair.repair ctx g);
  Alcotest.(check bool) "feasible" true (Repair.is_feasible ctx g)

let qcheck_ga_population_invariants =
  QCheck.Test.make ~name:"GA final population sorted, sized, connected" ~count:6
    QCheck.(int_range 0 1000)
    (fun seed ->
      let ctx = ctx_of seed 8 in
      let r = Ga.run small_settings (Cost.params ()) ctx (Prng.create (seed + 7)) in
      let pop = r.Ga.final_population in
      Array.length pop = small_settings.Ga.population_size
      && snd pop.(0) = r.Ga.best_cost
      && (let sorted = ref true in
          for i = 0 to Array.length pop - 2 do
            if snd pop.(i) > snd pop.(i + 1) then sorted := false
          done;
          !sorted)
      && Array.for_all (fun (g, _) -> Traversal.is_connected g) pop)

let qcheck_ga_never_worse_than_seeds =
  QCheck.Test.make ~name:"GA never worse than its seeds" ~count:8
    QCheck.(int_range 0 1000)
    (fun seed ->
      let ctx = ctx_of seed 8 in
      let p = Cost.params ~k2:3e-4 () in
      let mst = Cold.Heuristics.mst_topology ctx in
      let seeds = [ mst ] in
      let r = Ga.run ~seeds small_settings p ctx (Prng.create (seed + 1)) in
      r.Ga.best_cost <= Cost.evaluate p ctx mst +. 1e-9)

let () =
  Alcotest.run "cold_ga"
    [
      ( "settings",
        [
          Alcotest.test_case "valid defaults" `Quick test_validate_ok;
          Alcotest.test_case "invalid settings" `Quick test_validate_errors;
        ] );
      ( "run",
        [
          Alcotest.test_case "connected outputs" `Quick test_run_returns_connected;
          Alcotest.test_case "deterministic" `Quick test_run_deterministic;
          Alcotest.test_case "history monotone" `Quick test_history_monotone;
          Alcotest.test_case "beats MST and clique seeds" `Quick
            test_improves_over_mst_and_clique;
          Alcotest.test_case "seeds respected" `Quick test_seeds_respected;
          Alcotest.test_case "seed size mismatch" `Quick test_seed_size_mismatch;
          Alcotest.test_case "optimal for small n (4 corners)" `Slow
            test_finds_optimum_small_n;
        ] );
      ( "operators",
        [
          Alcotest.test_case "tournament" `Quick test_tournament;
          Alcotest.test_case "inverse-cost selection" `Quick
            test_select_inverse_cost_biased;
          Alcotest.test_case "infeasible excluded" `Quick test_select_infeasible_excluded;
          Alcotest.test_case "crossover identical parents" `Quick
            test_crossover_identical_parents;
          Alcotest.test_case "crossover connected" `Quick test_crossover_connected;
          Alcotest.test_case "crossover inherits shared genes" `Quick
            test_crossover_gene_mix;
          Alcotest.test_case "link mutation connected" `Quick
            test_link_mutation_keeps_connected;
          Alcotest.test_case "node mutation leafifies" `Quick
            test_node_mutation_creates_leaf;
          Alcotest.test_case "node mutation no hubs" `Quick
            test_node_mutation_noop_without_hubs;
          Alcotest.test_case "repair" `Quick test_repair;
          Alcotest.test_case "crossover oracle sweep" `Quick test_crossover_oracle;
          Alcotest.test_case "crossover size mismatch" `Quick
            test_crossover_size_mismatch;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_ga_never_worse_than_seeds;
          QCheck_alcotest.to_alcotest qcheck_ga_population_invariants;
        ] );
    ]
