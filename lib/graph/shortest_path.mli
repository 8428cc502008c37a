(** Weighted single-source shortest paths (Dijkstra) with deterministic
    tie-breaking.

    COLD routes all traffic over length-shortest paths (§3.2.1), and the
    per-link bandwidth wi in the cost function is the traffic accumulated on
    each link by that routing — so shortest-path trees are evaluated once per
    candidate topology per source, making this the GA's hot path (the O(n³)
    in Fig 4). Ties are broken towards the smaller predecessor id so that
    routing (and therefore cost) is a pure function of the topology. *)

type tree = {
  dist : float array;  (** [dist.(v)]: length of the shortest path, [infinity] if unreachable. *)
  pred : int array;  (** [pred.(v)]: predecessor on the chosen path; [-1] for the source and unreachable vertices. *)
  order : int array;  (** Vertices in settling order (ascending distance); length = number of reachable vertices. *)
}

(** {2 The per-source step}

    One Dijkstra run that allocates nothing: it writes distances,
    predecessors and settle order into the calling domain's {!scratch},
    reading link lengths from a float array laid out like the CSR view's
    [targets]. {!dijkstra} is this step plus a copy-out, and routing
    ([Cold_net.Routing]) runs it once per source, over the whole view for
    trees and with {!settle_until}'s early stop over a view without leaves
    for cost, so every shortest-path tree in the library comes from the
    same loop. *)

type scratch
(** One domain's buffers: distances, predecessors and settle order, the
    settled flags, the heap, and a CSR view with its per-slot link lengths.
    What {!view}, {!edge_lengths} and {!settle} write stays valid only
    until the next use of the scratch on the same domain — {!dijkstra},
    {!apsp_lengths}, and routing, cost and incremental evaluation all use
    it — so callers copy out what they keep. *)

val scratch : n:int -> scratch
(** [scratch ~n] is the calling domain's scratch for [n]-vertex graphs
    (domain-local storage), created on first use and rebuilt when [n]
    changes. A scratch never moves between domains, so tasks of a [Par]
    pool need no state threaded through their closures. *)

val view : scratch -> ?adj:int array array -> Graph.t -> Graph.Csr.t
(** [view sc g] snapshots [g] into the scratch's CSR buffer — from [adj]
    (the graph's {!Graph.adjacency_arrays}, possibly patched) when given,
    which costs O(n + m) instead of the O(n²) row scan. Neighbours are
    ascending either way. *)

val edge_lengths :
  scratch -> Graph.Csr.t -> length:(int -> int -> float) -> float array
(** [edge_lengths sc csr ~length] tabulates [length u v] for every CSR slot
    into the scratch: entry [k] of row [u] is the length of the link to
    [csr.targets.(k)]. Each call of [length] returns a boxed float, so
    callers that route many sources over one graph tabulate once. *)

val edge_lengths_of_matrix : scratch -> Graph.Csr.t -> float array -> float array
(** Like {!edge_lengths}, reading a row-major n×n length matrix instead of
    calling a function: allocates nothing. *)

val settle :
  scratch -> Graph.Csr.t -> lengths:float array -> source:int -> int
(** [settle sc csr ~lengths ~source] runs Dijkstra from [source] over [csr]
    with per-slot [lengths] (see {!edge_lengths}) and returns the number of
    settled vertices; the tree is in {!settled_tree}. The floats and the
    settle order are exactly {!dijkstra}'s, and so is the precondition:
    every length non-negative and never NaN. *)

val settle_until :
  scratch ->
  Graph.Csr.t ->
  lengths:float array ->
  source:int ->
  need:int array ->
  target:int ->
  int
(** [settle_until sc csr ~lengths ~source ~need ~target] is {!settle} with
    an early stop: it adds [need.(u)] (length >= n) for every vertex [u] it
    settles and stops once the sum reaches [target]. What it has settled
    by then, distances, predecessors and order prefix, is exactly what
    {!settle} settles first; the distances and predecessors of the other
    vertices are partial. {!settle} is this loop with nothing to reach. *)

val settled_tree : scratch -> tree
(** The scratch's result buffers as a tree: [dist] and [pred] as {!dijkstra}
    returns them, and [order] full length [n], of which the prefix of the
    length the last {!settle} returned is the settle order. Overwritten by
    the next settle. *)

val copy_tree : scratch -> int -> tree
(** [copy_tree sc count] is a fresh copy of the last settle's tree, its
    order cut to [count] — the tree {!dijkstra} would have returned. *)

val dijkstra :
  ?adj:int array array ->
  ?csr:Graph.Csr.t ->
  Graph.t ->
  length:(int -> int -> float) ->
  source:int ->
  tree
(** [dijkstra g ~length ~source] computes the shortest-path tree. [length u v]
    must be the length of edge [{u,v}], non-negative and never NaN; it is
    queried only for existing edges. Zero is allowed (co-located PoPs). The
    relaxation relies on this: it skips the settled test unless the new
    distance exactly ties the old one, which is sound only because adding a
    non-negative length can never bring a distance below a settled one.

    [?adj] accepts the graph's {!Graph.adjacency_arrays} and [?csr] a
    {!Graph.Csr} view ([csr] wins when both are given): callers running
    many sources over one topology pass a view built once instead of the
    O(n²) row scan per call. The view must describe [g] exactly; neighbour
    visit order (ascending) and hence every tie-break is identical across
    all three paths.

    It is {!view}, {!edge_lengths}, {!settle} and {!copy_tree} on the
    calling domain's scratch: the returned tree shares nothing with it. *)

val canonical : tree -> bool
(** [canonical t] is the {e repair certificate}: [true] iff every settled
    non-source vertex is strictly farther than its predecessor. When it
    holds, {!dijkstra}'s settle order is provably the ascending
    [(dist, vertex-id)] sort of the reachable vertices — each vertex is
    pushed at its final priority before the first pop of its equal-distance
    group, and the heap's canonical [(priority, vertex-id)] tie-break (see
    {!Heap}) does the rest. [Cold_net.Incremental] repairs trees in place
    only while the certificate holds; zero-length links (colocated PoPs) or
    float-rounding-degenerate additions violate it and force a full
    recomputation. O(reachable). *)

val path : tree -> int -> int list option
(** [path t v] is the source→[v] vertex sequence, or [None] if unreachable. *)

val apsp_hops : Graph.t -> int array array
(** [apsp_hops g] is the all-pairs hop-count matrix ([-1] when unreachable):
    BFS from every source. *)

val apsp_lengths : Graph.t -> length:(int -> int -> float) -> float array array
(** [apsp_lengths g ~length] is the all-pairs weighted distance matrix
    ([infinity] when unreachable). *)
