(* Tests for Local_search (hill climbing / simulated annealing), the custom
   GA objective, and Evolution (incremental redesign). *)

module Graph = Cold_graph.Graph
module Traversal = Cold_graph.Traversal
module Prng = Cold_prng.Prng
module Context = Cold_context.Context
module Cost = Cold.Cost
module Ga = Cold.Ga
module Local_search = Cold.Local_search
module Evolution = Cold.Evolution
module Network = Cold_net.Network

let ctx_of seed n = Context.generate (Context.default_spec ~n) (Prng.create seed)

let quick_ls = { Local_search.default_settings with Local_search.iterations = 1500 }

(* --- local search ------------------------------------------------------------ *)

let test_ls_connected_and_improves () =
  let ctx = ctx_of 1 12 in
  let params = Cost.params ~k2:2e-4 () in
  let mst = Cold.Heuristics.mst_topology ctx in
  let start = Cost.evaluate params ctx mst in
  let r = Local_search.run quick_ls params ctx (Prng.create 2) in
  Alcotest.(check bool) "connected" true (Traversal.is_connected r.Local_search.best);
  Alcotest.(check bool) "never worse than start" true
    (r.Local_search.best_cost <= start +. 1e-9);
  Alcotest.(check bool) "cost consistent" true
    (Float.abs (Cost.evaluate params ctx r.Local_search.best -. r.Local_search.best_cost)
    < 1e-6)

let test_ls_deterministic () =
  let params = Cost.params () in
  let run () =
    let ctx = ctx_of 3 10 in
    (Local_search.run quick_ls params ctx (Prng.create 4)).Local_search.best_cost
  in
  Alcotest.(check (float 1e-9)) "deterministic" (run ()) (run ())

let test_hill_climb_monotone () =
  (* With temperature 0, every accepted move improves: best = final current,
     and accepted <= iterations. *)
  let ctx = ctx_of 5 10 in
  let params = Cost.params ~k3:20.0 () in
  let r =
    Local_search.run
      { Local_search.hill_climb_settings with Local_search.iterations = 1000 }
      params ctx (Prng.create 6)
  in
  Alcotest.(check bool) "some progress" true (r.Local_search.accepted > 0);
  Alcotest.(check bool) "evaluations counted" true (r.Local_search.evaluations >= 1000)

let test_ls_finds_optimum_small () =
  let ctx = ctx_of 7 5 in
  let params = Cost.params () in
  let (_, opt) = Cold.Brute_force.optimal params ctx in
  let r =
    Local_search.run
      { Local_search.default_settings with Local_search.iterations = 3000 }
      params ctx (Prng.create 8)
  in
  Alcotest.(check (float 1e-6)) "optimal at n=5" opt r.Local_search.best_cost

let test_ls_initial_respected () =
  let ctx = ctx_of 9 8 in
  let params = Cost.params () in
  let (star, star_cost) = Cold.Heuristics.best_star params ctx in
  let r =
    Local_search.run ~initial:star
      { Local_search.hill_climb_settings with Local_search.iterations = 0 }
      params ctx (Prng.create 10)
  in
  Alcotest.(check (float 1e-9)) "zero iterations returns initial cost" star_cost
    r.Local_search.best_cost

let test_ls_disconnected_initial () =
  (* An edgeless start is connected before the first evaluation, so the
     result is connected at a finite cost even with no iterations, and the
     start temperature is finite: annealing does not degrade into a random
     walk that accepts nearly every proposal. *)
  let ctx = ctx_of 3 10 in
  let params = Cost.params () in
  List.iter
    (fun (incremental, iterations) ->
      let r =
        Local_search.run ~incremental ~initial:(Graph.create 10)
          { Local_search.default_settings with Local_search.iterations }
          params ctx (Prng.create 4)
      in
      let label what =
        Printf.sprintf "incremental %b, %d iterations: %s" incremental
          iterations what
      in
      Alcotest.(check bool) (label "connected") true
        (Traversal.is_connected r.Local_search.best);
      Alcotest.(check bool) (label "finite cost") true
        (Float.is_finite r.Local_search.best_cost);
      Alcotest.(check (float 0.0)) (label "cost of best")
        (Cost.evaluate params ctx r.Local_search.best) r.Local_search.best_cost;
      Alcotest.(check bool) (label "rejects some proposals") true
        (iterations = 0 || r.Local_search.accepted < iterations * 3 / 4))
    [ (true, 0); (true, 400); (false, 400) ]

let test_ls_invalid () =
  let ctx = ctx_of 11 8 in
  Alcotest.check_raises "bad initial size"
    (Invalid_argument "Local_search.run: initial topology size mismatch") (fun () ->
      ignore
        (Local_search.run ~initial:(Graph.create 3) quick_ls (Cost.params ()) ctx
           (Prng.create 1)))

(* --- custom GA objective ------------------------------------------------------ *)

let test_ga_custom_objective () =
  (* Objective that hates edges: optimum is a spanning tree regardless of
     geometry. *)
  let ctx = ctx_of 13 8 in
  let objective g =
    if Traversal.is_connected g then float_of_int (Graph.edge_count g) else infinity
  in
  let settings =
    {
      Ga.default_settings with
      Ga.population_size = 20;
      generations = 10;
      num_saved = 4;
      num_crossover = 10;
      num_mutation = 6;
    }
  in
  let r = Ga.run_custom settings ~objective ctx (Prng.create 14) in
  Alcotest.(check (float 1e-9)) "tree found" 7.0 r.Ga.best_cost

(* --- evolution ---------------------------------------------------------------- *)

let quick_evo_config =
  {
    (Evolution.default_config ~params:(Cost.params ~k2:2e-4 ()) ()) with
    Evolution.ga =
      {
        Ga.default_settings with
        Ga.population_size = 24;
        generations = 15;
        num_saved = 6;
        num_crossover = 12;
        num_mutation = 6;
      };
  }

let test_evolution_grows () =
  let states =
    Evolution.run quick_evo_config ~initial_n:8
      ~steps:
        [
          { Evolution.new_pops = 3; traffic_growth = 1.5 };
          { Evolution.new_pops = 4; traffic_growth = 1.5 };
        ]
      ~seed:20
  in
  Alcotest.(check int) "three states" 3 (List.length states);
  let sizes = List.map (fun s -> Context.n s.Evolution.context) states in
  Alcotest.(check (list int)) "sizes grow" [ 8; 11; 15 ] sizes;
  List.iter
    (fun s ->
      Alcotest.(check bool) "network connected" true
        (Traversal.is_connected s.Evolution.network.Network.graph))
    states

let test_evolution_frozen_legacy () =
  (* With infinite decommission cost, every installed link survives. *)
  let cfg = { quick_evo_config with Evolution.decommission_cost = infinity } in
  let rng = Prng.create 21 in
  let ctx = Context.generate (Context.default_spec ~n:8) rng in
  let s0 = Evolution.greenfield cfg ctx rng in
  let s1 =
    Evolution.evolve cfg s0 { Evolution.new_pops = 3; traffic_growth = 2.0 } rng
  in
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "legacy link kept" true
        (Graph.mem_edge s1.Evolution.network.Network.graph u v))
    s0.Evolution.installed;
  Alcotest.(check int) "no decommissions" 0 s1.Evolution.cumulative_decommissions

let test_evolution_zero_decommission_free () =
  (* With zero decommission cost the evolved design is exactly a fresh design
     of the new context... subject to optimizer noise, so check the evolved
     cost is within a few percent of the greenfield cost. *)
  let cfg = { quick_evo_config with Evolution.decommission_cost = 0.0 } in
  let rng = Prng.create 22 in
  let ctx = Context.generate (Context.default_spec ~n:8) rng in
  let s0 = Evolution.greenfield cfg ctx rng in
  let s1 =
    Evolution.evolve cfg s0 { Evolution.new_pops = 2; traffic_growth = 1.0 } rng
  in
  let penalty = Evolution.legacy_penalty cfg s1 (Prng.create 23) in
  Alcotest.(check bool)
    (Printf.sprintf "penalty small when decommission is free (got %.3f)" penalty)
    true
    (Float.abs penalty < 0.05)

let test_evolution_traffic_growth_effect () =
  let cfg = quick_evo_config in
  let rng = Prng.create 24 in
  let ctx = Context.generate (Context.default_spec ~n:10) rng in
  let s0 = Evolution.greenfield cfg ctx rng in
  let grown =
    Evolution.evolve cfg s0 { Evolution.new_pops = 0; traffic_growth = 20.0 }
      (Prng.create 25)
  in
  (* 20x the traffic should buy at least as many links. *)
  Alcotest.(check bool) "links do not shrink" true
    (Graph.edge_count grown.Evolution.network.Network.graph
    >= Graph.edge_count s0.Evolution.network.Network.graph);
  Alcotest.(check int) "same PoP count" 10 (Context.n grown.Evolution.context)

let test_evolution_invalid () =
  let cfg = quick_evo_config in
  let rng = Prng.create 26 in
  let ctx = Context.generate (Context.default_spec ~n:6) rng in
  let s0 = Evolution.greenfield cfg ctx rng in
  Alcotest.check_raises "negative growth"
    (Invalid_argument "Evolution.evolve: negative traffic growth") (fun () ->
      ignore
        (Evolution.evolve cfg s0 { Evolution.new_pops = 1; traffic_growth = -1.0 } rng))

let () =
  Alcotest.run "cold_optimizers"
    [
      ( "local_search",
        [
          Alcotest.test_case "connected + improving" `Quick test_ls_connected_and_improves;
          Alcotest.test_case "deterministic" `Quick test_ls_deterministic;
          Alcotest.test_case "hill climbing" `Quick test_hill_climb_monotone;
          Alcotest.test_case "optimal small n" `Quick test_ls_finds_optimum_small;
          Alcotest.test_case "initial respected" `Quick test_ls_initial_respected;
          Alcotest.test_case "disconnected initial" `Quick
            test_ls_disconnected_initial;
          Alcotest.test_case "invalid" `Quick test_ls_invalid;
        ] );
      ( "ga_custom",
        [ Alcotest.test_case "custom objective" `Quick test_ga_custom_objective ] );
      ( "evolution",
        [
          Alcotest.test_case "grows" `Quick test_evolution_grows;
          Alcotest.test_case "frozen legacy" `Quick test_evolution_frozen_legacy;
          Alcotest.test_case "free decommission" `Slow
            test_evolution_zero_decommission_free;
          Alcotest.test_case "traffic growth" `Quick test_evolution_traffic_growth_effect;
          Alcotest.test_case "invalid" `Quick test_evolution_invalid;
        ] );
    ]
