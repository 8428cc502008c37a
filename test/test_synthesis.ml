(* Tests for the end-to-end synthesis API, ensembles, ABC, multi-AS. *)

module Graph = Cold_graph.Graph
module Traversal = Cold_graph.Traversal
module Prng = Cold_prng.Prng
module Context = Cold_context.Context
module Network = Cold_net.Network
module Summary = Cold_metrics.Summary
module Cost = Cold.Cost
module Synthesis = Cold.Synthesis
module Ensemble = Cold.Ensemble
module Abc = Cold.Abc
module Multi_as = Cold.Multi_as

(* Reduced settings so the suite stays fast. *)
let quick_config ?(params = Cost.params ()) () =
  {
    (Synthesis.default_config ~params ()) with
    Synthesis.ga =
      {
        Cold.Ga.default_settings with
        Cold.Ga.population_size = 24;
        generations = 15;
        num_saved = 6;
        num_crossover = 12;
        num_mutation = 6;
      };
    heuristic_permutations = 2;
  }

let test_synthesize_deterministic () =
  let cfg = quick_config () in
  let spec = Context.default_spec ~n:10 in
  let a = Synthesis.synthesize cfg spec ~seed:42 in
  let b = Synthesis.synthesize cfg spec ~seed:42 in
  Alcotest.(check bool) "same graph" true (Graph.equal a.Network.graph b.Network.graph)

let test_synthesize_network_valid () =
  let cfg = quick_config ~params:(Cost.params ~k2:2e-4 ~k3:10.0 ()) () in
  let net = Synthesis.synthesize cfg (Context.default_spec ~n:12) ~seed:1 in
  Alcotest.(check bool) "connected" true (Traversal.is_connected net.Network.graph);
  Alcotest.(check int) "size" 12 (Graph.node_count net.Network.graph);
  (* Routing works end to end. *)
  let p = Network.path net 0 11 in
  Alcotest.(check bool) "route exists" true (List.length p >= 1);
  Alcotest.(check bool) "capacities cover loads" true
    (Cold_net.Capacity.utilization net.Network.capacities net.Network.loads <= 1.0)

let test_design_uses_heuristic_seeds () =
  (* The initialised GA must be at least as good as the best heuristic. *)
  let params = Cost.params ~k2:1e-4 ~k3:10.0 () in
  let cfg = quick_config ~params () in
  let ctx = Context.generate (Context.default_spec ~n:12) (Prng.create 3) in
  let result = Synthesis.design_ga cfg ctx (Prng.create 4) in
  let best_heuristic =
    List.fold_left
      (fun acc alg ->
        Float.min acc (snd (Cold.Heuristics.run alg params ctx (Prng.create 5))))
      infinity
      (Cold.Heuristics.all ~permutations:2)
  in
  Alcotest.(check bool) "initialised GA <= best heuristic" true
    (result.Cold.Ga.best_cost <= best_heuristic +. 1e-9)

let test_ensemble_generate () =
  let cfg = quick_config () in
  let e = Ensemble.generate cfg (Context.default_spec ~n:8) ~count:6 ~seed:7 in
  Alcotest.(check int) "count" 6 (Array.length e.Ensemble.networks);
  Alcotest.(check int) "summaries" 6 (Array.length e.Ensemble.summaries);
  (* Networks are distinct by construction (§2 criterion 1). *)
  Alcotest.(check int) "all distinct" 6 (Ensemble.distinct_topologies e);
  Array.iter
    (fun s -> Alcotest.(check bool) "connected" true s.Summary.connected)
    e.Ensemble.summaries

let test_ensemble_same_context () =
  let cfg = quick_config () in
  let ctx = Context.generate (Context.default_spec ~n:8) (Prng.create 9) in
  let e = Ensemble.same_context cfg ctx ~count:4 ~seed:10 in
  Alcotest.(check int) "count" 4 (Array.length e.Ensemble.networks);
  Array.iter
    (fun n ->
      Alcotest.(check bool) "same context object" true (n.Network.context == ctx))
    e.Ensemble.networks

let test_ensemble_statistics () =
  let cfg = quick_config () in
  let e = Ensemble.generate cfg (Context.default_spec ~n:8) ~count:5 ~seed:11 in
  let degrees = Ensemble.statistic e (fun s -> s.Summary.average_degree) in
  Alcotest.(check int) "one value per network" 5 (Array.length degrees);
  let ci = Ensemble.mean_ci e (fun s -> s.Summary.average_degree) ~seed:12 in
  Alcotest.(check bool) "ci brackets" true
    (ci.Cold_stats.Bootstrap.lo <= ci.Cold_stats.Bootstrap.hi)

let test_abc_observe () =
  let g = Cold_graph.Builders.star 12 in
  let obs = Abc.observe g in
  Alcotest.(check int) "n" 12 obs.Abc.n;
  Alcotest.(check (float 1e-9)) "diameter" 2.0 obs.Abc.diameter;
  Alcotest.(check (float 1e-9)) "self distance zero" 0.0 (Abc.distance obs obs)

let test_abc_distance_symmetry_zero () =
  let a = Abc.observe (Cold_graph.Builders.star 10) in
  let b = Abc.observe (Cold_graph.Builders.cycle 10) in
  Alcotest.(check bool) "positive between different shapes" true (Abc.distance a b > 0.0)

let test_abc_infer_accepts () =
  (* Observation from a tree-ish COLD target; rejection ABC with a loose
     epsilon must accept some samples and their k-values must lie in the
     prior's support. *)
  let obs =
    {
      Abc.n = 10;
      average_degree = 1.9;
      global_clustering = 0.0;
      cvnd = 0.6;
      diameter = 5.0;
    }
  in
  let samples = Abc.infer ~trials:12 ~epsilon:0.8 obs ~seed:21 in
  Alcotest.(check bool) "some acceptance" true (List.length samples > 0);
  List.iter
    (fun s ->
      Alcotest.(check bool) "k0 in prior" true
        (s.Abc.params.Cost.k0 >= 1.0 && s.Abc.params.Cost.k0 <= 100.0);
      Alcotest.(check bool) "distance within epsilon" true (s.Abc.distance <= 0.8))
    samples;
  (* Sorted ascending by distance. *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Abc.distance <= b.Abc.distance && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted samples);
  match Abc.posterior_mean samples with
  | None -> Alcotest.fail "posterior mean should exist"
  | Some p -> Alcotest.(check bool) "mean positive" true (p.Cost.k0 > 0.0)

let test_abc_posterior_mean_empty () =
  Alcotest.(check bool) "no samples -> None" true (Abc.posterior_mean [] = None)

let test_multi_as () =
  let cfg =
    {
      (Multi_as.default_config ~ases:3 ~cities:25 ()) with
      Multi_as.synthesis = quick_config ();
      presence = 0.6;
    }
  in
  let result = Multi_as.synthesize cfg ~seed:31 in
  Alcotest.(check int) "three ASes" 3 (Array.length result.Multi_as.ases);
  Alcotest.(check int) "city geography" 25 (Array.length result.Multi_as.city_points);
  Array.iter
    (fun (asn : Multi_as.as_network) ->
      Alcotest.(check bool) "at least 2 PoPs" true (Array.length asn.Multi_as.cities >= 2);
      Alcotest.(check bool) "network connected" true
        (Traversal.is_connected asn.Multi_as.network.Network.graph);
      (* City indices in range. *)
      Array.iter
        (fun c -> Alcotest.(check bool) "city in range" true (c >= 0 && c < 25))
        asn.Multi_as.cities)
    result.Multi_as.ases;
  (* Every interconnect is at a genuinely shared city. *)
  List.iter
    (fun ic ->
      let shared = Multi_as.shared_cities result ic.Multi_as.a ic.Multi_as.b in
      Alcotest.(check bool) "interconnect at shared city" true
        (List.mem ic.Multi_as.city shared))
    result.Multi_as.interconnects

let test_multi_as_deterministic () =
  let cfg =
    { (Multi_as.default_config ~ases:2 ~cities:15 ()) with
      Multi_as.synthesis = quick_config () }
  in
  let a = Multi_as.synthesize cfg ~seed:33 in
  let b = Multi_as.synthesize cfg ~seed:33 in
  Alcotest.(check int) "same interconnect count"
    (List.length a.Multi_as.interconnects)
    (List.length b.Multi_as.interconnects);
  Alcotest.(check bool) "same first AS topology" true
    (Graph.equal a.Multi_as.ases.(0).Multi_as.network.Network.graph
       b.Multi_as.ases.(0).Multi_as.network.Network.graph)

let () =
  Alcotest.run "cold_synthesis"
    [
      ( "synthesis",
        [
          Alcotest.test_case "deterministic" `Quick test_synthesize_deterministic;
          Alcotest.test_case "network valid" `Quick test_synthesize_network_valid;
          Alcotest.test_case "heuristic seeding" `Quick test_design_uses_heuristic_seeds;
        ] );
      ( "ensemble",
        [
          Alcotest.test_case "generate" `Quick test_ensemble_generate;
          Alcotest.test_case "same context" `Quick test_ensemble_same_context;
          Alcotest.test_case "statistics" `Quick test_ensemble_statistics;
        ] );
      ( "abc",
        [
          Alcotest.test_case "observe" `Quick test_abc_observe;
          Alcotest.test_case "distance" `Quick test_abc_distance_symmetry_zero;
          Alcotest.test_case "infer accepts" `Slow test_abc_infer_accepts;
          Alcotest.test_case "posterior mean empty" `Quick test_abc_posterior_mean_empty;
        ] );
      ( "presets",
        [
          Alcotest.test_case "lookup" `Quick (fun () ->
              Alcotest.(check int) "four presets" 4 (List.length Cold.Presets.all);
              (match Cold.Presets.find "startup" with
              | Some p ->
                Alcotest.(check (float 1e-9)) "startup k3" 0.0 p.Cold.Presets.params.Cost.k3
              | None -> Alcotest.fail "startup preset missing");
              Alcotest.(check bool) "unknown is None" true
                (Cold.Presets.find "nope" = None);
              (* Presets are ordered by hubbiness intent: consolidated has the
                 largest k3. *)
              let k3_of p = p.Cold.Presets.params.Cost.k3 in
              Alcotest.(check bool) "consolidated most hub-averse" true
                (List.for_all
                   (fun p -> k3_of p <= k3_of Cold.Presets.consolidated_operator)
                   Cold.Presets.all));
          Alcotest.test_case "synthesis shapes" `Slow (fun () ->
              (* The startup preset yields trees; the consolidated preset
                 yields hubby networks. *)
              let net_of preset seed =
                let cfg =
                  { (quick_config ~params:preset.Cold.Presets.params ()) with
                    Cold.Synthesis.heuristic_permutations = 2 }
                in
                Cold.Synthesis.synthesize cfg (Context.default_spec ~n:15) ~seed
              in
              let tree = net_of Cold.Presets.startup 5 in
              Alcotest.(check int) "startup is a tree" 14
                (Graph.edge_count tree.Network.graph);
              let hubby = net_of Cold.Presets.consolidated_operator 5 in
              Alcotest.(check bool) "consolidated is hubby" true
                (Cold_metrics.Degree.coefficient_of_variation hubby.Network.graph > 1.0));
        ] );
      ( "multi_as",
        [
          Alcotest.test_case "structure" `Slow test_multi_as;
          Alcotest.test_case "deterministic" `Slow test_multi_as_deterministic;
        ] );
    ]
