(** Greedy hub heuristics (§5).

    Each algorithm starts from the best single-hub star (one hub, every other
    PoP a leaf attached to it) and converts leaves into hubs one at a time
    while the network cost decreases; leaves always re-attach to their
    closest hub. The algorithms differ in how new hubs wire to existing
    hubs:

    - {e Complete}: hubs form a clique; at each round every remaining leaf is
      tried as the next hub and the best is kept.
    - {e MST}: like Complete, but hubs are wired as a distance-MST.
    - {e Greedy attachment}: like Complete, but each new hub's links to the
      existing hubs are added greedily (cheapest first) while cost drops.
    - {e Random greedy}: PoPs are visited in a random permutation and
      hub-ified if that reduces cost (greedy attachment wiring); the process
      is repeated over several permutations and the best result kept.

    These serve two roles in the paper: competitors to the GA (Fig 3) and —
    their real value — seeds for the {e initialised GA}, which then dominates
    every competitor across the whole parameter range. *)

type algorithm =
  | Complete
  | Mst_hubs
  | Greedy_attachment
  | Random_greedy of { permutations : int }

val name : algorithm -> string
(** ["complete"], ["mst"], ["greedy attachment"], ["random greedy"]. *)

val all : permutations:int -> algorithm list
(** The four §5 algorithms, Random_greedy configured with [permutations]. *)

val best_star : Cost.params -> Cold_context.Context.t -> Cold_graph.Graph.t * float
(** [best_star p ctx] is the cheapest single-hub star over all hub choices. *)

val mst_topology : Cold_context.Context.t -> Cold_graph.Graph.t
(** The Euclidean minimum spanning tree — the optimum when k1 dominates. *)

val clique_topology : Cold_context.Context.t -> Cold_graph.Graph.t
(** The full mesh — the optimum when k2 dominates. *)

val run :
  algorithm ->
  Cost.params ->
  Cold_context.Context.t ->
  Cold_prng.Prng.t ->
  Cold_graph.Graph.t * float
(** [run alg p ctx rng] returns the heuristic's topology and cost. The rng
    is only consumed by [Random_greedy]. The result is always connected.
    Raises [Invalid_argument] on a context of fewer than 2 PoPs. *)

val seed_set :
  ?permutations:int ->
  Cost.params ->
  Cold_context.Context.t ->
  Cold_prng.Prng.t ->
  Cold_graph.Graph.t list
(** Topologies from all four heuristics (plus the best star), for seeding the
    initialised GA. Default [permutations] = 10. Raises [Invalid_argument]
    on a context of fewer than 2 PoPs, before any topology is priced. *)
