(** Shortest-path routing of a traffic matrix over a topology (§3.2.1).

    The paper routes every demand over the length-shortest path — "the
    natural choice ... which will minimize the length of routes, and hence
    the bandwidth dependent component of cost", and also what ISPs actually
    deploy. This module computes, for a candidate topology, the per-link
    bandwidth [w] that appears in the k2 cost term, by building one
    shortest-path tree per source and pushing each source's demands down the
    tree in reverse settling order — O(n·(m log n + n)) per topology, the
    dominant cost of the whole synthesis (Fig 4's n³).

    Loads are undirected: demand s→d and d→s both accumulate on the same
    links (shortest paths are symmetric under symmetric lengths and
    deterministic tie-breaking). *)

exception Disconnected
(** Raised when some demand cannot be routed. A data network that cannot
    carry its traffic matrix is infeasible (§1, requirement 2). *)

type loads
(** Per-link traffic volumes for one topology. *)

val route :
  ?multipath:bool ->
  Cold_graph.Graph.t ->
  length:(int -> int -> float) ->
  tm:Cold_traffic.Gravity.t ->
  loads
(** [route g ~length ~tm] routes all demands. Raises {!Disconnected} if [g]
    does not connect every positive demand (with positive populations, any
    disconnection).

    [multipath] (default [false]) selects ECMP load balancing — the "tweaks
    … to allow load balancing" the paper notes real ISPs apply on top of
    shortest-path routing: at every node, traffic towards a destination is
    split equally across all next hops that lie on {e some} shortest path.
    Path lengths (and therefore the k2 cost term) are unchanged — only the
    per-link load distribution differs — so optimization under single-path
    routing remains valid and ECMP is an evaluation-time choice.

    Every source settles the whole graph, so every tree is complete, and
    the single-path loads are {!route_loads}' bit for bit. Trees and the
    load matrix are copied out of the calling domain's scratch, so the
    result shares nothing with it. *)

val route_loads :
  Cold_graph.Shortest_path.scratch ->
  Cold_graph.Graph.Csr.t ->
  lengths:float array ->
  tm:Cold_traffic.Gravity.t ->
  float array
(** [route_loads sp csr ~lengths ~tm] is {!route}'s single-path load matrix
    (row-major n×n, mirrored) for the topology [csr], with per-slot link
    [lengths] as {!Cold_graph.Shortest_path.edge_lengths} lays them out,
    and without building trees: the per-source step runs in [sp] (the
    calling domain's scratch) and accumulates into the domain's own load
    matrix, which is returned. It allocates nothing, and the matrix is
    valid only until the next [route_loads] on this domain. Raises
    {!Disconnected} exactly when {!route} does, and its matrix is
    {!route}'s bit for bit.

    It settles only what it must. An {e attached leaf} is a PoP of degree
    1 whose one neighbour, its hub, has degree ≥ 2. Each source settles a
    folded view without attached leaves (a leaf's own row stays, so a leaf
    can be a source), and each leaf of a settled hub takes dist hub +. ℓ
    and the hub as predecessor. Source [s] stops once every PoP above [s]
    is reached, since pair [{s, t}] is routed only in the tree of
    [min s t]; source n − 1 routes nothing. The floats do not move:

    - a settled leaf relaxes nothing (its one arc leads back to its hub,
      settled first, so [nd < dv] fails and the tie branch needs an
      unsettled target), so without leaves every other PoP pops in the
      same sequence with the same distance and predecessor;
    - by the time a vertex settles, all its children hold heap entries at
      their final priorities, and none pops before it, so its children,
      leaves included, settle in ascending (distance, id) order;
    - each load entry takes one add per source, so only the order of the
      adds into each subtree matters, and the accumulation merges a hub's
      leaves into its core children in that order.

    Each pair is checked for routability once, at its smaller endpoint,
    against its pair demand: reachability is symmetric, and the pair
    demand is positive exactly when either direction is, which is the
    verdict {!route}'s per-source check reaches. *)

(** {2 Building blocks}

    The pieces [route] is made of, exposed for {!Incremental}, which
    re-runs them for affected sources only. Results are bit-identical to a
    full [route] because both call exactly this code in the same order. *)

val check_routable : tm:Cold_traffic.Gravity.t -> dist:float array -> source:int -> unit
(** Raises {!Disconnected} unless every positive demand out of [source]
    reaches a finite-distance destination in [dist]. *)

val accumulate :
  ?csr:Cold_graph.Graph.Csr.t ->
  ?pair_demands:float array ->
  multipath:bool ->
  length:(int -> int -> float) ->
  tm:Cold_traffic.Gravity.t ->
  matrix:float array ->
  subtree:float array ->
  n:int ->
  Cold_graph.Shortest_path.tree ->
  source:int ->
  unit
(** Push [source]'s demands down its tree in reverse settling order, adding
    onto [matrix] (row-major n×n, mirrored) using [subtree] (length ≥ n) as
    scratch. A {!Cold_graph.Graph.Csr} snapshot [~csr] is required when
    [multipath] is true and ignored otherwise. [?pair_demands]
    is an optional row-major n×n table read as [pd.(s*n+d)] in place of
    [Gravity.pair_demand tm s d] — a precomputed copy of those values, or
    a caller's own (e.g. with failed pairs zeroed). *)

val of_parts :
  n:int ->
  matrix:float array ->
  trees:Cold_graph.Shortest_path.tree array ->
  loads
(** Assemble a [loads] from parts built with {!accumulate} — the incremental
    engine's exit point back into the public load API. Raises
    [Invalid_argument] on size mismatches; does not copy. *)

val load : loads -> int -> int -> float
(** [load ld u v] is the total traffic on link [{u,v}] (0 if not a link). *)

val matrix : loads -> float array
(** Every {!load} as the row-major n×n matrix (entry [u*n + v], mirrored),
    shared, not copied — for loops that must not call {!load} per link.
    Never write to it. *)

val fold : loads -> ('a -> int -> int -> float -> 'a) -> 'a -> 'a
(** [fold ld f init] folds over links with positive load, [u < v],
    lexicographic. *)

val total_volume_length : loads -> length:(int -> int -> float) -> float
(** [total_volume_length ld ~length] is Σ_links w·ℓ — equivalently
    Σ_routes t_r·L_r of equation (1). *)

val max_load : loads -> float

val trees : loads -> Cold_graph.Shortest_path.tree array
(** The per-source shortest-path trees used for routing — the "routing
    matrix" output of the paper's algorithm (§4, Outputs). *)
