(** Delta-aware cost-evaluation state: repair shortest-path trees in place
    for the sources an edge flip actually affects.

    It targets a trajectory of candidates that each differ from the current
    topology by one or two edges. A full {!Routing.route} rebuilds all [n]
    shortest-path trees; a single-edge change typically invalidates only a
    few of them, and within each invalidated tree typically moves only a
    small frontier. This module keeps the evaluation state of one evolving
    topology — its graph, per-source trees and load matrix — and repairs
    each affected tree at flip time: an inserted edge seeds a decrease-key
    frontier at the improved endpoint; a deleted tree edge cuts the child's
    subtree and re-settles it from its surviving neighbours; a deleted
    non-tree edge is proven a no-op.

    Repair is attempted only while the tree carries the {e repair
    certificate} ({!Cold_graph.Shortest_path.canonical}: every vertex
    strictly farther than its predecessor — then the settle order is
    exactly ascending [(dist, id)] and can be merged instead of
    recomputed). The {e bail-out path} covers everything else: a tree
    without the certificate (zero-length links between co-located PoPs),
    or a flip whose repair would break it, marks the source dirty, and the
    next {!loads} re-runs a full Dijkstra for it.

    {b Bit-identity.} Results are guaranteed byte-for-byte equal to a fresh
    {!Routing.route} on the same topology: the affected-source tests are
    conservative (any source whose fresh tree {e could} differ — including
    exact float ties that flip the deterministic tie-break — is repaired or
    recomputed), unaffected trees are provably byte-stable, the repair pass
    replays exactly the relaxations the fresh run would add or lose
    (sharing the heap's canonical [(priority, vertex-id)] tie-break — see
    {!Cold_graph.Heap}), and load accumulation is always replayed in full
    source order so float summation order never changes. Only Dijkstra
    work is skipped.

    {b Transactions.} Edge flips are journalled. {!commit} makes them
    permanent; {!rollback} restores graph, trees and dirty flags to the last
    committed state — a propose/evaluate/reject loop maps onto this
    directly.

    {b Clients.} No synthesis path reaches this module: the GA, heuristic
    seeding and simulated annealing ([Cold.Local_search]) all price
    candidates with [Cold.Cost.evaluate]. It is reached through
    [Cold.Cost.state] and [Cold.Cost.evaluate_state] by the end-to-end
    benchmark's [eval.state_us] and [eval.delta_*] probes, by the bench
    smoke check's flip trajectory, and by its own tests.

    Not thread-safe: one [t] belongs to one domain at a time. Internal
    scratch uses {!Shortest_path.scratch}, so a [t] may migrate
    between domains between calls. *)

type t

val create :
  Cold_graph.Graph.t ->
  length:(int -> int -> float) ->
  tm:Cold_traffic.Gravity.t ->
  t
(** [create g ~length ~tm] starts evaluation state at topology [g] (copied;
    the argument is not retained), routed single-path as {!Routing.route}
    does by default. All trees start dirty — the first {!loads} costs the
    same as a full route. *)

val graph : t -> Cold_graph.Graph.t
(** The state's current topology. Read-only view: mutate it only through
    {!add_edge}/{!remove_edge}/{!retarget}, never directly. *)

val add_edge : t -> int -> int -> unit
(** [add_edge st u v] adds edge [{u,v}], repairing (or, on the bail-out
    path, marking for recomputation) every source whose tree the new edge
    could shorten or tie. No-op if the edge already exists. *)

val remove_edge : t -> int -> int -> unit
(** [remove_edge st u v] removes edge [{u,v}], repairing (or, on the
    bail-out path, marking for recomputation) every source that routed over
    it or could have under a tie. No-op if the edge is absent. *)

val retarget : t -> Cold_graph.Graph.t -> int
(** [retarget st target] applies the edge flips turning the state's topology
    into [target] (via {!Cold_graph.Graph.edge_diff}), returning how many.
    [target] is not retained. *)

val loads : t -> Routing.loads
(** Bring the state current — recompute dirty trees (the bail-out path's
    full Dijkstras), re-accumulate the load
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
    never mutated in place). *)

val recomputed_trees : t -> int
(** Total trees recomputed from scratch over this state's lifetime (clones
    start at 0): the first {!loads}' [n] plus every source that took the
    bail-out path. The full-Dijkstra work counter, for tests and
    benchmarks. *)

val repaired_trees : t -> int
(** Total trees repaired in place over this state's lifetime (clones start
    at 0). Provably no-op flips (non-tree deletions under the certificate) count neither
    here nor in {!recomputed_trees}. *)
