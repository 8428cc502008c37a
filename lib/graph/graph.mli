(** Undirected simple graphs on a fixed vertex set [0 .. n-1].

    This is the chromosome type of the COLD genetic algorithm (§4: "each
    candidate topology ... is stored as an n by n adjacency matrix") and the
    substrate for every topology statistic. The representation is a bit
    adjacency matrix — n rows of ⌈n/8⌉ bytes, n·⌈n/8⌉ bytes in all — plus a
    degree array: PoP-level networks are small (the paper: "it is rare to
    see a network with more than a 100 PoPs"), and dense adjacency gives
    O(1) membership, O(n) neighbour iteration and an O(n²/8) byte copy —
    the operations the GA performs millions of times.

    Self-loops are forbidden; parallel edges cannot be represented. Mutation
    is in-place; use {!copy} when genetic operators must not alias. *)

type t

val create : int -> t
(** [create n] is the empty graph on [n] vertices. Raises [Invalid_argument]
    if [n < 0]. *)

val complete : int -> t
(** [complete n] is the clique K_n. *)

val copy : t -> t

val copy_into : src:t -> dst:t -> unit
(** [copy_into ~src ~dst] overwrites [dst] with [src]'s topology in place —
    the allocation-free alternative to {!copy} for optimizers that propose a
    mutant per iteration and can recycle one scratch graph instead of
    allocating a graph per evaluation. Raises [Invalid_argument] if the
    vertex counts differ. *)

val node_count : t -> int

val edge_count : t -> int

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] is [true] iff the edge [{u,v}] is present.
    [mem_edge g u u] is [false]. Raises [Invalid_argument] on out-of-range
    vertices. *)

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] inserts [{u,v}]; no-op if present. Raises
    [Invalid_argument] if [u = v] or out of range. *)

val remove_edge : t -> int -> int -> unit
(** [remove_edge g u v] deletes [{u,v}]; no-op if absent. *)

val degree : t -> int -> int

val is_leaf : t -> int -> bool
(** [is_leaf g v] is [degree g v <= 1]: the paper's leaf PoPs have exactly
    one link, and isolated vertices also count as non-core. *)

val core_nodes : t -> int list
(** Vertices with degree > 1 — the paper's set N_C incurring the k3 hub
    cost (§3.2.2). Ascending order. *)

val core_count : t -> int

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** [iter_neighbors g v f] applies [f] to each neighbour of [v] in ascending
    order. *)

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val neighbors : t -> int -> int list
(** Ascending list of neighbours. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** [iter_edges g f] applies [f u v] once per edge with [u < v], in
    lexicographic order. *)

val fold_edges : t -> ('a -> int -> int -> 'a) -> 'a -> 'a

val edges : t -> (int * int) list
(** Lexicographically ordered [(u, v)] pairs with [u < v]. *)

val nth_edge : t -> int -> int * int
(** [nth_edge g k] is the [k]-th edge (0-based) in the lexicographic
    [(u, v)], [u < v] order of {!iter_edges} — the indexed lookup behind
    uniform random edge draws. A per-vertex forward-degree index finds the
    owning row directly, so the cost is O(n) (one index walk plus one row
    scan) rather than the O(n²) scan of enumerating all edges, and nothing
    is allocated. Raises [Invalid_argument] unless [0 <= k < edge_count]. *)

val nth_absent_pair : t -> int -> int * int
(** [nth_absent_pair g k] is the [k]-th {e absent} pair (0-based) in the
    lexicographic [(u, v)], [u < v] order over non-edges — the deterministic
    fallback behind uniform absent-pair draws on near-complete graphs, where
    rejection sampling degenerates. Same O(n) index walk as {!nth_edge},
    counting complement slots. Raises [Invalid_argument] unless
    [0 <= k < n*(n-1)/2 - edge_count]. *)

val edge_diff : t -> t -> (int * int) list * (int * int) list
(** [edge_diff g h] is [(removed, added)]: the edges of [g] absent from [h]
    and the edges of [h] absent from [g], each in lexicographic order —
    i.e. the operations turning [g] into [h]. Raises [Invalid_argument] if
    the vertex counts differ. O(n²). *)

val recombine : t array -> pick:(int -> int) -> t
(** [recombine parents ~pick] is the child of one crossover: a pair
    [{u,v}], [u < v], is a link of the child if every parent has it, is
    absent if no parent has it, and otherwise is copied from parent
    [pick r], where [r] is the pair's lexicographic rank among all
    C(n,2) pairs ([0] for [{0,1}]). [pick] is called only at such
    disagreeing pairs, in ascending rank order, which is what lets
    {!Cold.Operators.crossover} skip the draws at the pairs where its
    parents agree. The parents' rows are read once and not modified.
    Raises [Invalid_argument] if [parents] is empty or the parents differ
    in vertex count, before [pick] is called. *)

val of_edges : int -> (int * int) list -> t
(** [of_edges n es] builds a graph on [n] vertices with the given edges.
    Duplicate edges collapse. Raises [Invalid_argument] on self-loops or
    out-of-range endpoints. *)

val degree_sequence : t -> int array
(** [degree_sequence g] is the per-vertex degree array (indexed by vertex,
    not sorted). *)

val equal : t -> t -> bool
(** Structural equality: same vertex count and same edge set. *)

val fingerprint : t -> int64
(** [fingerprint g] is a 64-bit FNV-1a hash of the vertex count and the
    adjacency matrix written out as n² bytes (byte [u*n+v] is [1] iff
    {u,v} is a link) — a canonical fingerprint of the labelled topology:
    equal graphs always collide, unequal graphs almost never do. Callers
    needing certainty (e.g. fitness memoization) must confirm a match with
    {!equal} or {!Key.matches}. O(n²), and a row byte without links costs
    one step instead of eight. *)

val adjacency_arrays : t -> int array array
(** [adjacency_arrays g] materializes each vertex's neighbours as an array,
    ascending — the same order {!iter_neighbors} visits. One O(n²) scan
    buys O(deg) neighbour iteration for algorithms that sweep the graph
    many times (e.g. n-source Dijkstra); the arrays are a snapshot and do
    not track later mutation. *)

val remove_all_edges_of : t -> int -> unit
(** [remove_all_edges_of g v] detaches vertex [v] entirely (used by the
    node-mutation operator that turns a hub into a leaf, §4.1.2). *)

(** The rows of a graph alone, without its degree and index arrays: the
    n·⌈n/8⌉ bytes a fitness memo keeps per key. *)
module Key : sig
  type graph := t

  type t

  val of_graph : graph -> t
  (** [of_graph g] copies [g]'s rows; it does not track later mutation. *)

  val matches : t -> graph -> bool
  (** [matches k g] is [true] iff [k] was made from a graph {!equal} to
      [g]. It compares the rows in place and allocates nothing. *)
end

(** Flat CSR (compressed sparse row) adjacency snapshots.

    The dense bit matrix gives O(1) membership but O(n) neighbour
    iteration; at large n the read-only sweeps (n-source Dijkstra, BFS
    batteries, Brandes) spend all their time scanning mostly-empty rows.
    A CSR view packs every neighbour list into two flat int arrays —
    [targets.(offsets.(v) .. offsets.(v+1)-1)] are [v]'s neighbours in the
    {e same ascending order} {!iter_neighbors} visits, so any algorithm
    swapping a row scan for a CSR segment produces bit-identical output
    (randomized sweeps in test_graph.ml prove it).

    A view is a snapshot: it does not track later mutation of the source
    graph. Rebuild with [of_graph ?reuse] — one O(n²) scan, amortized over
    the n traversals that follow. *)
module Csr : sig
  type graph := t

  type t = { offsets : int array; targets : int array }
  (** [offsets] has n+1 entries; [targets] holds 2m neighbour ids. The
      record is exposed so hot loops can index the arrays directly.
      [targets] may be longer than 2m when a [reuse] buffer was larger —
      always bound iteration by [offsets], never by [Array.length]. *)

  val of_graph : ?reuse:t -> graph -> t
  (** [of_graph g] snapshots [g]'s adjacency. [reuse] recycles a previous
      view's arrays when they fit ([offsets] length n+1, [targets] capacity
      ≥ 2m) — the returned view then aliases them, so the old view is
      invalidated. *)

  val node_count : t -> int

  val degree : t -> int -> int

  val iter_neighbors : t -> int -> (int -> unit) -> unit
  (** Ascending neighbour order, identical to the dense row scan. *)

  val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
end

val pp : Format.formatter -> t -> unit
(** Prints as [n=<n> m=<m> edges=[(u,v); …]]. *)
