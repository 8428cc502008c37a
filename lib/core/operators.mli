(** Genetic operators on topology chromosomes (§4.1.1–4.1.2).

    A chromosome is an adjacency matrix ({!Cold_graph.Graph.t}). All
    operators return {e connected} children: any child disconnected by
    recombination is passed through {!Repair}. *)

val crossover :
  Cold_context.Context.t ->
  parents:(Cold_graph.Graph.t * float) array ->
  Cold_prng.Prng.t ->
  Cold_graph.Graph.t
(** [crossover ctx ~parents g] builds a child: for each of the C(n,2)
    possible links, one parent is drawn with probability inversely
    proportional to its cost and the link's presence is copied from it
    (§4.1.1). Members with an infinite, zero or nan cost get weight 0; if
    every weight is 0 the draw is uniform. The child is repaired to
    connectivity.

    A draw is made only at a pair where the parents disagree
    ({!Cold_graph.Graph.recombine}); the draws at the other pairs are
    skipped with {!Cold_prng.Prng.skip}. The child, and the state [g] is
    left in (C(n,2) draws on), are those of one draw per pair. Raises
    [Invalid_argument] if [parents] is empty or the parents differ in
    vertex count. *)

val link_mutation :
  Cold_context.Context.t -> Cold_graph.Graph.t -> Cold_prng.Prng.t -> unit
(** [link_mutation ctx g rng] removes [m+] random existing links and adds
    [m−] random absent links, where m+ and m− are geometric(0.5) — "an
    average of two link changes each time" (§4.1.2) — then repairs. *)

val random_existing_edge :
  Cold_graph.Graph.t -> Cold_prng.Prng.t -> (int * int) option
(** A uniform existing link [(u, v)], [u < v], via indexed rank lookup;
    [None] iff the graph has no links. *)

val random_absent_pair :
  Cold_graph.Graph.t -> Cold_prng.Prng.t -> (int * int) option
(** A uniform absent pair [(u, v)], [u < v]; [None] iff the graph is
    complete. Sparse graphs use rejection sampling (the historical RNG
    trajectory); dense graphs (< half the pairs absent) fall back after a
    bounded burst to an exact rank-indexed draw, so near-clique graphs no
    longer cost O(n²) RNG pulls per addition. *)

val node_mutation :
  Cold_context.Context.t -> Cold_graph.Graph.t -> Cold_prng.Prng.t -> unit
(** [node_mutation ctx g rng] picks a non-leaf node uniformly at random and
    turns it into a leaf: all its links are removed and a single link is
    added to the closest remaining non-leaf node (§4.1.2), then repairs.
    No-op on graphs with no non-leaf node. *)

val select_inverse_cost :
  (Cold_graph.Graph.t * float) array -> Cold_prng.Prng.t -> int
(** [select_inverse_cost pop rng] draws an index with probability
    proportional to 1/cost (infeasible members get weight 0; if every member
    is infeasible the draw is uniform). Raises [Invalid_argument] on an
    empty population. *)

val tournament :
  pool:int ->
  winners:int ->
  (Cold_graph.Graph.t * float) array ->
  Cold_prng.Prng.t ->
  (Cold_graph.Graph.t * float) array
(** [tournament ~pool ~winners pop rng] picks [pool] members uniformly at
    random (b in the paper, with replacement) and returns the [winners]
    cheapest of them (a in the paper) — the parent-selection rule of
    §4.1.1. *)
