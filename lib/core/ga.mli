(** The genetic algorithm (§4, §5).

    Each generation holds [population_size] candidate topologies with their
    costs. The next generation is the [num_saved] cheapest survivors, plus
    [num_crossover] children of tournament-selected parents, plus
    [num_mutation] mutants. The paper fixes T = M = 100 as a good
    speed/quality trade-off; those are the defaults here.

    The initial population contains the distance MST, the full clique, any
    caller-provided seed topologies (the "initialised GA" of Fig 3 seeds the
    greedy-heuristic solutions), and Erdős–Rényi graphs repaired to
    connectivity with link probability chosen so the expected number of
    links is [init_edge_factor · n]. *)

type settings = {
  population_size : int;  (** M; default 100. *)
  generations : int;  (** T; default 100. *)
  num_saved : int;  (** Elite survivors per generation; default 20. *)
  num_crossover : int;  (** Children per generation; default 50. *)
  num_mutation : int;  (** Mutants per generation; default 30. *)
  tournament_pool : int;  (** b in §4.1.1; default 10. *)
  tournament_winners : int;  (** a in §4.1.1; default 2. *)
  node_mutation_prob : float;
      (** Probability a mutation is a node (leaf-ification) mutation rather
          than a link mutation; default 0.5. *)
  init_edge_factor : float;
      (** Expected links in each random initial topology, as a multiple of
          n; default 1.5. *)
}

type result = {
  best : Cold_graph.Graph.t;
  best_cost : float;
  final_population : (Cold_graph.Graph.t * float) array;
      (** Final generation sorted by ascending cost — the paper notes one GA
          run yields a whole population of solutions (§3.3, "non-exclusive"). *)
  history : float array;  (** Best cost after each generation (length T+1,
                              starting with the initial population). *)
  evaluations : int;
      (** Number of fitness evaluations requested. Identical at every
          [?domains] and [?cache_slots] setting; memoized duplicates count
          (see {!result.cache_hits} for how many skipped routing). *)
  cache_hits : int;
      (** Evaluations answered by the fitness memo without routing. The
          memo is looked up serially, before the fan-out, so this count and
          {!result.cache_misses} are the same at every [?domains]. *)
  cache_misses : int;  (** Evaluations that ran the objective. *)
}

val settings_for : population:int -> generations:int -> settings
(** [settings_for ~population ~generations] has M = [population] and
    T = [generations], the other fields at their defaults, and splits the
    population as ([num_saved], [num_crossover], [num_mutation]) =
    (max 1 (M/5), max 1 (M/2), the rest): 20/50/30 at M = 100, 8/20/12 at
    M = 40. The split is valid for every M ≥ 2. *)

val default_settings : settings
(** [settings_for ~population:100 ~generations:100], the paper's
    T = M = 100. *)

val default_cache_slots : int
(** Default size of the per-run fitness memo (1024 direct-mapped slots). *)

val validate : settings -> unit
(** Raises [Invalid_argument] unless
    [num_saved + num_crossover + num_mutation = population_size] and all
    counts are sane. *)

val run :
  ?domains:int ->
  ?cache_slots:int ->
  ?seeds:Cold_graph.Graph.t list ->
  ?survivable:bool ->
  settings ->
  Cost.params ->
  Cold_context.Context.t ->
  Cold_prng.Prng.t ->
  result
(** [run ?seeds settings params ctx rng] evolves topologies for [ctx]: it is
    {!run_custom} with [~objective:(Cost.evaluate params ctx)].
    Deterministic given the rng state. All returned topologies are
    connected.

    Every candidate the memo cannot answer is priced from scratch by
    {!Cost.evaluate}. A chromosome's cost depends on nothing but the
    chromosome, so population members carry no evaluation state.

    [?domains] (default 1) sets how many domains evaluate candidates
    concurrently; [0] autodetects ([Domain.recommended_domain_count]).
    Children are bred serially from the single RNG stream, the memo is
    looked up serially, and only the misses' evaluations fan out, with
    results written into index-addressed slots — so [best], [best_cost],
    [history], [final_population], [evaluations], [cache_hits] and
    [cache_misses] are the same at every domain count (doc/PERF.md has the
    full argument).

    [?cache_slots] (default {!default_cache_slots}) bounds the fitness
    memo that lets duplicate chromosomes skip routing; [0] disables it.
    Hits return the exact float the objective produced, so the setting
    never changes results. A key is the chromosome's bit rows, n·⌈n/8⌉
    bytes, so the default memo's keys take at most 1024 · n·⌈n/8⌉ bytes:
    0.2 MB at n = 40, 128 MB at n = 1000, 512 MB at n = 2000.

    [?survivable] (default [false]) constrains the search to 2-edge-connected
    topologies: every initial member and every bred child is lifted through
    {!Repair.two_edge_connect} before evaluation, so [best] and all of
    [final_population] survive any single link failure (for contexts with at
    least 3 PoPs; the repair is deterministic and consumes no randomness, so
    domain-count determinism is preserved). The constraint prices in
    redundancy: no leaves means every PoP pays its hub cost. *)

val run_custom :
  ?domains:int ->
  ?cache_slots:int ->
  ?seeds:Cold_graph.Graph.t list ->
  ?survivable:bool ->
  settings ->
  objective:(Cold_graph.Graph.t -> float) ->
  Cold_context.Context.t ->
  Cold_prng.Prng.t ->
  result
(** Like {!run} but minimizing an arbitrary objective — the hook through
    which extensions add costs (§2 "extensibility"; e.g. the legacy-link
    charges of {!Evolution}). The objective should return [infinity] for
    topologies it deems infeasible.

    The objective must be a pure function of the graph: with [domains > 1]
    it runs concurrently on several domains, and with [cache_slots > 0]
    repeated values are assumed interchangeable. *)
