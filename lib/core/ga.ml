module Graph = Cold_graph.Graph
module Mst = Cold_graph.Mst
module Dist = Cold_prng.Dist
module Context = Cold_context.Context
module Par = Cold_par.Par

type settings = {
  population_size : int;
  generations : int;
  num_saved : int;
  num_crossover : int;
  num_mutation : int;
  tournament_pool : int;
  tournament_winners : int;
  node_mutation_prob : float;
  init_edge_factor : float;
}

type result = {
  best : Graph.t;
  best_cost : float;
  final_population : (Graph.t * float) array;
  history : float array;
  evaluations : int;
  cache_hits : int;
  cache_misses : int;
}

let default_settings =
  {
    population_size = 100;
    generations = 100;
    num_saved = 20;
    num_crossover = 50;
    num_mutation = 30;
    tournament_pool = 10;
    tournament_winners = 2;
    node_mutation_prob = 0.5;
    init_edge_factor = 1.5;
  }

let default_cache_slots = 1024

let validate s =
  if s.population_size < 2 then invalid_arg "Ga: population_size must be >= 2";
  if s.generations < 0 then invalid_arg "Ga: generations must be >= 0";
  if s.num_saved < 1 then invalid_arg "Ga: num_saved must be >= 1";
  if s.num_crossover < 0 || s.num_mutation < 0 then
    invalid_arg "Ga: operator counts must be non-negative";
  if s.num_saved + s.num_crossover + s.num_mutation <> s.population_size then
    invalid_arg "Ga: num_saved + num_crossover + num_mutation must equal population_size";
  if s.tournament_winners < 1 || s.tournament_pool < s.tournament_winners then
    invalid_arg "Ga: need tournament_pool >= tournament_winners >= 1";
  if s.node_mutation_prob < 0.0 || s.node_mutation_prob > 1.0 then
    invalid_arg "Ga: node_mutation_prob out of range";
  if s.init_edge_factor <= 0.0 then invalid_arg "Ga: init_edge_factor must be positive"

let erdos_renyi_repaired ctx ~p rng =
  let n = Context.n ctx in
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Dist.bernoulli rng ~p then Graph.add_edge g u v
    done
  done;
  ignore (Repair.repair ctx g);
  g

(* Population order: ascending cost. [Array.sort] is deterministic in its
   comparison results alone, so equal-cost members land in the same order
   on every run and at every domain count. *)
let sort_by_cost pop = Array.sort (fun (_, a) (_, b) -> Float.compare a b) pop

(* Candidate graphs are produced serially with the RNG (so the random
   stream is identical at every domain count), then costed as one batch:
   the pool writes each cost into the slot named by its candidate's index,
   which keeps population order — and every downstream sort and tie-break —
   bit-identical to the sequential run. *)
let initial_population ~survivable ~seeds settings ctx rng ~evaluate_batch =
  let n = Context.n ctx in
  let mst = Mst.mst_graph ~n ~weight:(fun u v -> Context.distance ctx u v) in
  let clique = Graph.complete n in
  let fixed = mst :: clique :: seeds in
  (* Survivable mode lifts every member to 2-edge-connectivity. Seeds are
     caller-owned, so repair copies; the repair itself consumes no
     randomness, leaving the RNG stream — and with it domain-count
     determinism — untouched. *)
  let fixed =
    if not survivable then fixed
    else
      List.map
        (fun g ->
          let c = Graph.copy g in
          ignore (Repair.two_edge_connect ctx c);
          c)
        fixed
  in
  let fixed_count = List.length fixed in
  let pairs = float_of_int (n * (n - 1) / 2) in
  let p = Float.min 1.0 (settings.init_edge_factor *. float_of_int n /. pairs) in
  let random_count = max 0 (settings.population_size - fixed_count) in
  let graphs = Array.make (fixed_count + random_count) clique in
  List.iteri (fun i g -> graphs.(i) <- g) fixed;
  let random_seed () =
    let g = erdos_renyi_repaired ctx ~p rng in
    if survivable then ignore (Repair.two_edge_connect ctx g);
    g
  in
  for i = 0 to random_count - 1 do
    graphs.(fixed_count + i) <- random_seed ()
  done;
  let pop = evaluate_batch graphs in
  sort_by_cost pop;
  (* If seeds overflow the population, keep the cheapest M. *)
  Array.sub pop 0 (min (Array.length pop) settings.population_size)

let run_custom ?(domains = 1) ?(cache_slots = default_cache_slots) ?(seeds = [])
    ?(survivable = false) settings ~objective ctx rng =
  validate settings;
  let n = Context.n ctx in
  if n < 2 then invalid_arg "Ga.run: need at least 2 PoPs";
  List.iter
    (fun g ->
      if Graph.node_count g <> n then
        invalid_arg "Ga.run: seed topology size does not match context")
    seeds;
  let cache = Fitness_cache.create ~slots:cache_slots in
  let evaluations = ref 0 in
  Par.with_pool ~domains (fun pool ->
      let evaluate_batch graphs =
        evaluations := !evaluations + Array.length graphs;
        Par.map_array pool
          (fun g ->
            (g, Fitness_cache.find_or_compute cache g (fun () -> objective g)))
          graphs
      in
      (* Population is kept sorted ascending by cost. *)
      let pop =
        ref
          (initial_population ~survivable ~seeds settings ctx rng
             ~evaluate_batch)
      in
      let history = Array.make (settings.generations + 1) infinity in
      history.(0) <- snd !pop.(0);
      let children_count = settings.num_crossover + settings.num_mutation in
      for gen = 1 to settings.generations do
        let prev = !pop in
        (* Children are bred serially — tournament, crossover and mutation
           all draw from the single RNG stream in the original order — and
           only their (pure) evaluations fan out across domains. *)
        let children = Array.make children_count (fst prev.(0)) in
        for i = 0 to settings.num_crossover - 1 do
          let parents =
            Operators.tournament ~pool:settings.tournament_pool
              ~winners:settings.tournament_winners prev rng
          in
          children.(i) <- Operators.crossover ctx ~parents rng
        done;
        for i = 0 to settings.num_mutation - 1 do
          let idx = Operators.select_inverse_cost prev rng in
          let mutant = Graph.copy (fst prev.(idx)) in
          if Dist.bernoulli rng ~p:settings.node_mutation_prob then
            Operators.node_mutation ctx mutant rng
          else Operators.link_mutation ctx mutant rng;
          children.(settings.num_crossover + i) <- mutant
        done;
        (* Crossover children are freshly bred and mutants are copies, so
           in-place repair touches nothing the population still owns. *)
        if survivable then
          Array.iter (fun g -> ignore (Repair.two_edge_connect ctx g)) children;
        (* Elites survive unchanged (they are never mutated in place). *)
        let next =
          Array.append (Array.sub prev 0 settings.num_saved)
            (evaluate_batch children)
        in
        sort_by_cost next;
        pop := next;
        history.(gen) <- snd next.(0)
      done;
      let (best, best_cost) = !pop.(0) in
      {
        best;
        best_cost;
        final_population = !pop;
        history;
        evaluations = !evaluations;
        cache_hits = Fitness_cache.hits cache;
        cache_misses = Fitness_cache.misses cache;
      })

let run ?domains ?cache_slots ?seeds ?survivable settings params ctx rng =
  run_custom ?domains ?cache_slots ?seeds ?survivable settings
    ~objective:(Cost.evaluate params ctx) ctx rng
