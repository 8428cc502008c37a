(** Bounded memoization of topology fitness.

    Crossover of similar parents and elite-heavy populations make the GA
    re-evaluate byte-identical chromosomes constantly; each such duplicate
    costs n Dijkstras plus a load-accumulation pass for an answer already
    computed. This cache keys on a canonical fingerprint of the adjacency
    matrix ({!Cold_graph.Graph.fingerprint}, FNV-1a over the matrix's n²
    bytes) and confirms every hit against the stored key's rows
    ({!Cold_graph.Graph.Key.matches}), so a fingerprint collision can never
    return the wrong cost.

    The store is a fixed-size direct-mapped table: slot = fingerprint mod
    capacity, insert evicts whatever occupied the slot. Eviction affects
    only the hit rate, never a returned value — a memoized objective must
    be a pure function of the graph, so hits are bit-identical to
    recomputation by construction.

    The cache belongs to one domain and takes no lock: lookups, inserts and
    counts are serial. To spread misses over a {!Cold_par.Par} pool, hand
    the pool to {!find_all}, which looks a whole batch up first and fans
    out only its misses. A key is a copy of the graph's rows
    ({!Cold_graph.Graph.Key}), n·⌈n/8⌉ bytes, so callers may mutate their
    graph afterwards. *)

type 'a t

val create : slots:int -> 'a t
(** [create ~slots] makes a cache with [slots] direct-mapped entries.
    [slots = 0] disables memoization (every lookup computes; counters still
    track). Raises [Invalid_argument] if [slots < 0]. *)

val find_or_compute : 'a t -> Cold_graph.Graph.t -> (unit -> 'a) -> 'a
(** [find_or_compute cache g compute] returns the cached value for [g], or
    runs [compute ()] and stores the result. It is {!find_all} on the
    one-graph batch [[| g |]]. *)

val find_all :
  'a t -> Cold_graph.Graph.t array -> (Cold_graph.Graph.t array -> 'a array) -> 'a array
(** [find_all cache graphs compute] is the value of each of [graphs], in
    order. It looks every graph up first, in index order, and then calls
    [compute] once, on the misses in index order; [compute] must return
    one value per graph it is given (typically [Par.map_array pool f]).

    A miss reserves its slot at lookup, so the table changes in the order
    that a lookup, compute and insert of each graph in turn would change
    it, and a later graph equal to a reserved key is a hit answered by
    that miss's value. So the values, {!hits}, {!misses} and the table
    afterwards are those of that serial sequence, whatever [compute] does
    in parallel and however the sequence is cut into batches. If [compute]
    raises, the table is put back as the batch found it (its lookups stay
    counted) and the exception is re-raised. *)

val hits : 'a t -> int
(** Lookups answered from the store. *)

val misses : 'a t -> int
(** Lookups that had to be computed. *)

val entries : 'a t -> int
(** Occupied slots. Grows monotonically from [0] towards capacity:
    direct-mapped eviction replaces an occupant in place, so the count
    never shrinks. *)

val fill : 'a t -> float
(** [entries / capacity] in [0, 1]; [0.] for a zero-slot cache. A fill
    near [1.] with a poor hit rate suggests the table is too small for the
    population's working set. *)
