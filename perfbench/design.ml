(* One design, replayed through the library's public layer functions in
   pipeline order, and the per-layer probes taken on its result.

   [replay] makes exactly the calls [Synthesis.design_ga] makes, on the
   same RNG stream, each inside a span, so its output must equal the
   untraced run's bit for bit. [probe] then re-times single layers from
   copies of the recorded RNG states and inputs; it is never part of a
   replay's wall time. *)

module Graph = Cold_graph.Graph
module Csr = Cold_graph.Graph.Csr
module Shortest_path = Cold_graph.Shortest_path
module Context = Cold_context.Context
module Routing = Cold_net.Routing
module Incremental = Cold_net.Incremental
module Prng = Cold_prng.Prng
module Dist = Cold_prng.Dist
module Cost = Cold.Cost
module Ga = Cold.Ga
module Heuristics = Cold.Heuristics
module Operators = Cold.Operators
module Fitness_cache = Cold.Fitness_cache

type pipeline = {
  spec : Context.spec;
  ga : Ga.settings;
  permutations : int option;  (** Heuristic seeding restarts; [None] = off. *)
  domains : int;
}

type replay = {
  params : Cost.params;
  ctx : Context.t;
  seeding_rng : Prng.t;  (** The stream just before seeding. *)
  seeds : Graph.t list;
  ga_rng : Prng.t;  (** The stream just before the GA. *)
  result : Ga.result;
}

let replay p ~op params rng =
  let ctx =
    Trace.span ~op "context.generate" (fun () -> Context.generate p.spec rng)
  in
  let seeding_rng = Prng.copy rng in
  let seeds =
    match p.permutations with
    | None -> []
    | Some permutations ->
      Trace.span ~op "seed.seed_set" (fun () ->
          Heuristics.seed_set ~permutations params ctx rng)
  in
  let ga_rng = Prng.copy rng in
  let result =
    Trace.span ~op "ga.run" (fun () ->
        Ga.run ~domains:p.domains ~seeds p.ga params ctx rng)
  in
  { params; ctx; seeding_rng; seeds; ga_rng; result }

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_result (a : Ga.result) (b : Ga.result) =
  bits_equal a.best_cost b.best_cost
  && Graph.equal a.best b.best
  && a.evaluations = b.evaluations
  && Array.for_all2 bits_equal a.history b.history

let algorithm_metric = function
  | Heuristics.Random_greedy _ -> "seed.random_greedy_s"
  | Heuristics.Complete -> "seed.complete_s"
  | Heuristics.Mst_hubs -> "seed.mst_s"
  | Heuristics.Greedy_attachment -> "seed.greedy_attachment_s"

(* Best star, then each algorithm in [Heuristics.all] order on the replayed
   stream; the topologies must be the ones [seed_set] returned. *)
let seeding p ~op r =
  match p.permutations with
  | None -> []
  | Some permutations ->
    let rng = Prng.copy r.seeding_rng in
    let (star, _), star_s =
      Stats.timed (fun () -> Heuristics.best_star r.params r.ctx)
    in
    let runs =
      List.map
        (fun alg ->
          let (g, _), s =
            Stats.timed (fun () -> Heuristics.run alg r.params r.ctx rng)
          in
          ((algorithm_metric alg, s), g))
        (Heuristics.all ~permutations)
    in
    Outcome.check ~op
      (List.equal Graph.equal (star :: List.map snd runs) r.seeds)
      "per-algorithm seeding differs from Heuristics.seed_set";
    ("seed.best_star_s", star_s) :: List.map fst runs

(* The GA at the other domain count on the same inputs: its wall time
   against the replay's, and — from the one-domain run, where they are
   exact — the memo counters. *)
let parallel p ~op r ~replay_s =
  let other = if p.domains = 1 then 2 else 1 in
  let result, other_s =
    Stats.timed (fun () ->
        Ga.run ~domains:other ~seeds:r.seeds p.ga r.params r.ctx
          (Prng.copy r.ga_rng))
  in
  Outcome.check ~op (same_result result r.result)
    "Ga.run differs between 1 and 2 domains";
  let one, one_s, two_s =
    if p.domains = 1 then (r.result, replay_s, other_s)
    else (result, other_s, replay_s)
  in
  let evaluations = float_of_int one.Ga.evaluations in
  let hits = float_of_int one.Ga.cache_hits in
  let misses = float_of_int one.Ga.cache_misses in
  [
    ("par.ga_speedup", one_s /. two_s);
    ("ga.evaluations", evaluations);
    ("ga.memo_hits", hits);
    ("ga.memo_misses", misses);
    ("ga.memo_hit_ratio", hits /. evaluations);
    ("ga.miss_us", 1e6 *. replay_s /. Float.max 1.0 misses);
  ]

(* Breeding on the final population, in the GA's crossover:mutation mix. *)
let breeding p r =
  let s = p.ga in
  let pop = r.result.Ga.final_population in
  let rng = Prng.create 0x5eed in
  let children = s.Ga.num_crossover + s.Ga.num_mutation in
  let rounds = max 1 (400 / max 1 children) in
  let (), total =
    Stats.timed (fun () ->
        for _ = 1 to rounds do
          for _ = 1 to s.Ga.num_crossover do
            let parents =
              Operators.tournament ~pool:s.Ga.tournament_pool
                ~winners:s.Ga.tournament_winners pop rng
            in
            ignore (Sys.opaque_identity (Operators.crossover r.ctx ~parents rng))
          done;
          for _ = 1 to s.Ga.num_mutation do
            let idx = Operators.select_inverse_cost pop rng in
            let mutant = Graph.copy (fst pop.(idx)) in
            if Dist.bernoulli rng ~p:s.Ga.node_mutation_prob then
              Operators.node_mutation r.ctx mutant rng
            else Operators.link_mutation r.ctx mutant rng
          done
        done)
  in
  [ ("ga.breed_us", 1e6 *. total /. float_of_int (rounds * max 1 children)) ]

(* Memo hits on final-population members, answered from a filled cache.
   Members that share a slot evict each other, so only those a second
   pass finds resident are timed, and a miss among them fails the
   operation. *)
let memo ~op r =
  let pop = r.result.Ga.final_population in
  let cache = Fitness_cache.create ~slots:Ga.default_cache_slots in
  let lookup (g, c) = Fitness_cache.find_or_compute cache g (fun () -> c) in
  Array.iter (fun m -> ignore (lookup m)) pop;
  let resident =
    Array.of_list
      (List.filter
         (fun m ->
           let misses = Fitness_cache.misses cache in
           ignore (lookup m);
           Fitness_cache.misses cache = misses)
         (Array.to_list pop))
  in
  let misses = Fitness_cache.misses cache in
  let rounds = 20 in
  let stale = ref false in
  let (), total =
    Stats.timed (fun () ->
        for _ = 1 to rounds do
          Array.iter
            (fun ((_, c) as m) -> if not (bits_equal (lookup m) c) then stale := true)
            resident
        done)
  in
  Outcome.check ~op
    (Array.length resident > 0 && Fitness_cache.misses cache = misses)
    "a final-population member missed the memo";
  Outcome.check ~op (not !stale) "Fitness_cache returned a different cost";
  [
    ( "memo.hit_us",
      1e6 *. total /. float_of_int (rounds * max 1 (Array.length resident)) );
  ]

(* One full evaluation of the best topology and its parts, the dense
   clique member, and the delta engine on bred mutants. *)
let evaluation ~op r =
  let params = r.params and ctx = r.ctx in
  let best = r.result.Ga.best in
  let n = Context.n ctx in
  let length u v = Context.distance ctx u v in
  let tm = ctx.Context.tm in
  let full_cost = Cost.evaluate params ctx best in
  let full = Stats.per_call (fun () -> Cost.evaluate params ctx best) in
  let clique = Graph.complete n in
  let clique_s = Stats.per_call ~reps:3 (fun () -> Cost.evaluate params ctx clique) in
  let csr_s = Stats.per_call (fun () -> Csr.of_graph best) in
  let csr = Csr.of_graph best in
  let trees =
    Array.init n (fun s -> Shortest_path.dijkstra ~csr best ~length ~source:s)
  in
  let dijkstra_s =
    Stats.per_call (fun () ->
        for s = 0 to n - 1 do
          ignore (Shortest_path.dijkstra ~csr best ~length ~source:s)
        done)
  in
  let accumulate_s =
    Stats.per_call (fun () ->
        let matrix = Array.make (n * n) 0.0 and subtree = Array.make n 0.0 in
        for s = 0 to n - 1 do
          let tree = trees.(s) in
          Routing.check_routable ~tm ~dist:tree.Shortest_path.dist ~source:s;
          Routing.accumulate ~csr ~multipath:false ~length ~tm ~matrix ~subtree
            ~n tree ~source:s
        done)
  in
  let state_s =
    Stats.per_call ~reps:3 (fun () ->
        Cost.evaluate_state params ctx (Cost.state ctx best))
  in
  let state = Cost.state ctx best in
  Outcome.check ~op
    (bits_equal (Cost.evaluate_state params ctx state) full_cost)
    "Cost.evaluate_state differs from Cost.evaluate";
  let rng = Prng.create 0xde17a in
  let mutants = 10 in
  let delta_s = ref 0.0 and repaired = ref 0 and recomputed = ref 0 in
  for k = 1 to mutants do
    let mutant = Graph.copy best in
    if k mod 2 = 0 then Operators.node_mutation ctx mutant rng
    else Operators.link_mutation ctx mutant rng;
    let (clone, cost), s =
      Stats.timed (fun () ->
          let clone = Incremental.clone state in
          ignore (Incremental.retarget clone mutant);
          (clone, Cost.evaluate_state params ctx clone))
    in
    Outcome.check ~op
      (bits_equal cost (Cost.evaluate params ctx mutant))
      "delta evaluation differs from Cost.evaluate";
    delta_s := !delta_s +. s;
    repaired := !repaired + Incremental.repaired_trees clone;
    recomputed := !recomputed + Incremental.recomputed_trees clone
  done;
  let per_mutant x = float_of_int x /. float_of_int mutants in
  [
    ("eval.full_us", 1e6 *. full);
    ("eval.clique_us", 1e6 *. clique_s);
    ("eval.csr_us", 1e6 *. csr_s);
    ("eval.dijkstra_us", 1e6 *. dijkstra_s);
    ("eval.accumulate_us", 1e6 *. accumulate_s);
    ("eval.fold_us", 1e6 *. (full -. csr_s -. dijkstra_s -. accumulate_s));
    ("eval.state_us", 1e6 *. state_s);
    ("eval.delta_us", 1e6 *. !delta_s /. float_of_int mutants);
    ("eval.delta_repaired", per_mutant !repaired);
    ("eval.delta_recomputed", per_mutant !recomputed);
  ]

(* Every single-layer probe for one replayed design. *)
let probe p ~op r ~ga_s =
  seeding p ~op r
  @ parallel p ~op r ~replay_s:ga_s
  @ breeding p r @ memo ~op r @ evaluation ~op r
