(** Delta-aware cost-evaluation state: repair shortest-path trees in place
    for the sources an edge flip actually affects.

    The optimizers (local search, GA mutation) spend almost all their time
    evaluating candidates that differ from an already-evaluated topology by
    one or two edges. A full {!Routing.route} rebuilds all [n] shortest-path
    trees; a single-edge change typically invalidates only a few of them,
    and within each invalidated tree typically moves only a small frontier.
    This module keeps the evaluation state of one evolving topology — its
    graph, per-source trees and load matrix — and applies edge flips to it
    with two engines:

    - the {e dynamic} engine (default, [repair:true]) repairs each affected
      tree at flip time: an inserted edge seeds a decrease-key frontier at
      the improved endpoint; a deleted tree edge cuts the child's subtree
      and re-settles it from its surviving neighbours; a deleted non-tree
      edge is proven a no-op. Repair is attempted only while the tree
      carries the {e repair certificate} ({!Cold_graph.Shortest_path.canonical}:
      every vertex strictly farther than its predecessor — then the settle
      order is exactly ascending [(dist, id)] and can be merged instead of
      recomputed); a flip that would break it falls back to the full engine
      for that source.
    - the {e incremental} engine ([repair:false]) only marks affected
      sources dirty and re-runs full Dijkstra for them on the next
      {!loads}.

    {b Bit-identity.} Results are guaranteed byte-for-byte equal to a fresh
    {!Routing.route} on the same topology: the affected-source tests are
    conservative (any source whose fresh tree {e could} differ — including
    exact float ties that flip the deterministic tie-break or an ECMP
    split — is repaired or recomputed), unaffected trees are provably
    byte-stable, the repair pass replays exactly the relaxations the fresh
    run would add or lose (sharing the heap's canonical
    [(priority, vertex-id)] tie-break — see {!Cold_graph.Heap}), and load
    accumulation is always replayed in full source order so float summation
    order never changes. Only Dijkstra work is skipped.

    {b Transactions.} Edge flips are journalled. {!commit} makes them
    permanent; {!rollback} restores graph, trees and dirty flags to the last
    committed state — the propose/evaluate/reject loop of simulated
    annealing maps onto this directly.

    Not thread-safe: one [t] belongs to one domain at a time. Internal
    scratch uses {!Shortest_path.scratch}, so a [t] may migrate
    between domains between calls (as GA members do under a Par pool). *)

type t

val create :
  ?multipath:bool ->
  ?repair:bool ->
  Cold_graph.Graph.t ->
  length:(int -> int -> float) ->
  tm:Cold_traffic.Gravity.t ->
  t
(** [create g ~length ~tm] starts evaluation state at topology [g] (copied;
    the argument is not retained). All trees start dirty — the first
    {!loads} costs the same as a full route. [multipath] selects ECMP
    accumulation exactly as in {!Routing.route}. [repair] (default [true])
    selects the dynamic in-place tree-repair engine; [repair:false] keeps
    the mark-dirty/full-Dijkstra engine. Both are bit-identical to the
    oracle — the flag trades only time. *)

val graph : t -> Cold_graph.Graph.t
(** The state's current topology. Read-only view: mutate it only through
    {!add_edge}/{!remove_edge}/{!retarget}, never directly. *)

val add_edge : t -> int -> int -> unit
(** [add_edge st u v] adds edge [{u,v}], marking every source whose tree the
    new edge could shorten (or tie) for recomputation. No-op if the edge
    already exists. *)

val remove_edge : t -> int -> int -> unit
(** [remove_edge st u v] removes edge [{u,v}], marking every source that
    routed over it (or could have, under a tie) for recomputation. No-op if
    the edge is absent. *)

val retarget : t -> Cold_graph.Graph.t -> int
(** [retarget st target] applies the edge flips turning the state's topology
    into [target] (via {!Cold_graph.Graph.edge_diff}), returning how many.
    [target] is not retained. *)

val loads : t -> Routing.loads
(** Bring the state current — recompute dirty trees, re-accumulate the load
    matrix — and return the loads, bit-identical to
    [Routing.route (graph st)]. Raises {!Routing.Disconnected} exactly when
    a full route would (the state stays usable: trees refreshed, matrix
    invalid). The returned value aliases internal buffers and is valid only
    until the next mutation of [st] — consume it before proposing again. *)

val commit : t -> unit
(** Accept all journalled flips: they become the new baseline and
    {!rollback} can no longer undo them. *)

val rollback : t -> unit
(** Undo all flips since the last {!commit} (or since {!create}): graph,
    trees and dirty flags return to the committed state. Cost is
    proportional to what the rejected flips touched. *)

val clone : t -> t
(** Independent state at the same topology. The clone's baseline is the
    source's {e current} (possibly uncommitted) topology with an empty
    journal; clean trees are shared structurally (safe: tree records are
    never mutated in place). GA mutants fork the parent's state this way. *)

val pending_sources : t -> int
(** Number of sources currently marked dirty — the Dijkstra work the next
    {!loads} will do. Exposed for tests and benchmarks. *)

val recomputed_trees : t -> int
(** Total trees recomputed from scratch over this state's lifetime (clones
    start at 0) — the full-Dijkstra work counter, for tests and
    benchmarks. *)

val repaired_trees : t -> int
(** Total trees repaired in place by the dynamic engine over this state's
    lifetime (clones start at 0). Always 0 when [repair:false]. Provably
    no-op flips (non-tree deletions under the certificate) count neither
    here nor in {!recomputed_trees}. *)
