module Graph = Cold_graph.Graph
module Mst = Cold_graph.Mst
module Dist = Cold_prng.Dist
module Context = Cold_context.Context
module Par = Cold_par.Par
module Incremental = Cold_net.Incremental

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

(* Sorting the population must permute the members' evaluation states along
   with the (graph, cost) pairs, so we sort an index permutation instead of
   the pairs. The comparator sees exactly the cost sequence the old
   pair-array sort saw, so [Array.sort] performs the identical comparison
   and swap sequence and lands on the identical permutation — equal-cost
   orderings included. *)
let sort_permutation pop =
  let order = Array.init (Array.length pop) (fun i -> i) in
  Array.sort (fun i j -> Float.compare (snd pop.(i)) (snd pop.(j))) order;
  order

(* Candidate graphs are produced serially with the RNG (so the random
   stream is identical at every domain count), then costed as one batch:
   the pool writes each cost into the slot named by its candidate's index,
   which keeps population order — and every downstream sort and tie-break —
   bit-identical to the sequential run. *)
let initial_population ?locality ~survivable ~seeds settings ctx rng
    ~evaluate_batch =
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
  (* Locality mode seeds with geographically short random links (O(n·k) per
     topology, same expected link count); otherwise plain Erdős–Rényi. *)
  let random_seed () =
    let g =
      match locality with
      | Some k ->
        let pk = Float.min 1.0 (settings.init_edge_factor /. float_of_int k) in
        Operators.locality_random_graph ctx ~k ~p:pk rng
      | None -> erdos_renyi_repaired ctx ~p rng
    in
    if survivable then ignore (Repair.two_edge_connect ctx g);
    g
  in
  for i = 0 to random_count - 1 do
    graphs.(fixed_count + i) <- random_seed ()
  done;
  let (pop, states) =
    evaluate_batch graphs (Array.make (Array.length graphs) None)
  in
  let order = sort_permutation pop in
  (* If seeds overflow the population, keep the cheapest M. *)
  let keep = min (Array.length pop) settings.population_size in
  ( Array.init keep (fun k -> pop.(order.(k))),
    Array.init keep (fun k -> states.(order.(k))) )

(* The evaluation hook: cost a candidate, optionally returning reusable
   incremental state so mutants bred from this member later can be costed
   by delta instead of from scratch. [parent] is the evaluation state of
   the member the candidate was bred from, when one exists. *)
type eval_fn =
  parent:Incremental.t option -> Graph.t -> float * Incremental.t option

let run_impl ?(domains = 1) ?(cache_slots = default_cache_slots) ?(seeds = [])
    ?locality ?(survivable = false) settings ~(eval : eval_fn) ctx rng =
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
      let evaluate_batch graphs parents =
        evaluations := !evaluations + Array.length graphs;
        let indices = Array.init (Array.length graphs) (fun i -> i) in
        let results =
          Par.map_array pool
            (fun i ->
              let g = graphs.(i) in
              (* The state rides out of the memo closure through a
                 task-local stash: a cache hit produces no state (the miss
                 that filled the slot may have run on another graph object),
                 and that is fine — stateless members simply evaluate their
                 next mutant from scratch. *)
              let stash = ref None in
              let cost =
                Fitness_cache.find_or_compute cache g (fun () ->
                    let (c, st) = eval ~parent:parents.(i) g in
                    stash := st;
                    c)
              in
              ((g, cost), !stash))
            indices
        in
        (Array.map fst results, Array.map snd results)
      in
      let (pop0, states0) =
        initial_population ?locality ~survivable ~seeds settings ctx rng
          ~evaluate_batch
      in
      (* Population is kept sorted ascending by cost; states.(i) is always
         member i's evaluation state (None for cache hits / custom
         objectives). *)
      let pop = ref pop0 in
      let pop_states = ref states0 in
      let history = Array.make (settings.generations + 1) infinity in
      history.(0) <- snd !pop.(0);
      let children_count = settings.num_crossover + settings.num_mutation in
      for gen = 1 to settings.generations do
        let prev = !pop in
        let prev_states = !pop_states in
        (* Children are bred serially — tournament, crossover and mutation
           all draw from the single RNG stream in the original order — and
           only their (pure) evaluations fan out across domains. *)
        let children = Array.make (max children_count 1) (fst prev.(0)) in
        let parent_of = Array.make (max children_count 1) (-1) in
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
          else Operators.link_mutation ?locality ctx mutant rng;
          children.(settings.num_crossover + i) <- mutant;
          (* A mutant differs from its parent by a handful of edge flips —
             exactly what the incremental engine is for. *)
          parent_of.(settings.num_crossover + i) <- idx
        done;
        (* Crossover children are freshly bred and mutants are copies, so
           in-place repair touches nothing the population still owns. The
           extra edges are an ordinary diff to the incremental engine's
           retarget. *)
        if survivable then
          for i = 0 to children_count - 1 do
            ignore (Repair.two_edge_connect ctx children.(i))
          done;
        let parents =
          Array.init children_count (fun i ->
              let p = parent_of.(i) in
              if p >= 0 then prev_states.(p) else None)
        in
        let (evaluated, child_states) =
          evaluate_batch (Array.sub children 0 children_count) parents
        in
        let next = Array.make settings.population_size prev.(0) in
        let next_states = Array.make settings.population_size None in
        (* Elites survive unchanged (they are never mutated in place). *)
        for i = 0 to settings.num_saved - 1 do
          next.(i) <- prev.(i);
          next_states.(i) <- prev_states.(i)
        done;
        Array.blit evaluated 0 next settings.num_saved children_count;
        Array.blit child_states 0 next_states settings.num_saved children_count;
        let order = sort_permutation next in
        pop := Array.map (fun i -> next.(i)) order;
        pop_states := Array.map (fun i -> next_states.(i)) order;
        history.(gen) <- snd !pop.(0)
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

let run_custom ?domains ?cache_slots ?seeds ?locality ?survivable settings
    ~objective ctx rng =
  run_impl ?domains ?cache_slots ?seeds ?locality ?survivable settings
    ~eval:(fun ~parent:_ g -> (objective g, None))
    ctx rng

(* Cost a candidate through the delta-aware engine. With a parent state the
   candidate is evaluated as a diff — clone, apply the edge flips, recompute
   only the affected trees; without one it is evaluated from scratch but
   still yields a state for its own future mutants. Both give the exact
   floats of [Cost.evaluate] (see Incremental's bit-identity contract), so
   mixing the two paths — and the fitness memo — never changes a result. *)
let eval_incremental ?repair params ctx : eval_fn =
 fun ~parent g ->
  let st =
    match parent with
    | Some parent_st ->
      (* Clones inherit the parent's engine choice, so one ?repair at the
         root of the population decides the whole run. *)
      let st = Incremental.clone parent_st in
      ignore (Incremental.retarget st g);
      st
    | None -> Cost.state ?repair ctx g
  in
  let cost = Cost.evaluate_state params ctx st in
  Incremental.commit st;
  (cost, Some st)

let run ?domains ?cache_slots ?seeds ?(incremental = true) ?repair ?locality
    ?survivable settings params ctx rng =
  if incremental then
    run_impl ?domains ?cache_slots ?seeds ?locality ?survivable settings
      ~eval:(eval_incremental ?repair params ctx) ctx rng
  else
    run_custom ?domains ?cache_slots ?seeds ?locality ?survivable settings
      ~objective:(fun g -> Cost.evaluate params ctx g)
      ctx rng
