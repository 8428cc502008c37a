(** Binary min-heap keyed by float priorities, specialised for Dijkstra and
    Prim. Uses lazy deletion: {!push} may insert a vertex multiple times and
    consumers skip stale pops (cheaper than decrease-key at these sizes).

    {b The canonical tie-break invariant.} Every heap in this module orders
    entries by the strict pair [(priority, vertex-id)]: between two entries
    with bit-equal float priorities, the smaller vertex id pops first. This
    is not an implementation detail — it is the shared contract that makes
    {!Shortest_path.dijkstra} and the in-place tree repair of
    [Cold_net.Incremental] settle vertices in the {e same} deterministic
    sequence, so equal-length alternative paths resolve to the same
    predecessor either way. Any replacement heap must preserve it.

    {b Why the pop sequence is fixed by the order alone.} Priorities are
    never NaN, so [(priority, vertex)] is a strict total order: [<] on
    priorities first, and the vertex id only when [Float.equal] holds.
    Dijkstra pushes a vertex again only at a strictly smaller distance, so
    its entries are distinct pairs, and each pop takes the least pair
    present, which is unique. Any correct min-queue under this order, fed
    the same pushes and pops, therefore pops the same sequence. How this
    heap sifts — a hole moved up or down in a flat loop — cannot change
    what it pops; only the order can. *)

type t

val create : capacity:int -> t
(** [create ~capacity] pre-allocates; the heap grows if exceeded. *)

val is_empty : t -> bool

val clear : t -> unit
(** [clear h] empties the heap without releasing its storage, so a consumer
    looping over many Dijkstra runs can reuse one allocation. *)

val size : t -> int

val push : t -> priority:float -> int -> unit
(** [push h ~priority v] inserts vertex [v] with [priority], which must not
    be NaN. The storage doubles when full. The entry rises from the end
    past every parent it precedes in [(priority, vertex)] order, in
    O(log size) moves and no allocation. *)

val push_key : t -> keys:float array -> int -> unit
(** [push_key h ~keys v] is [push h ~priority:keys.(v) v], through the same
    sift. The priority is read inside this module, so the call passes no
    float across a module boundary and boxes nothing — the form Dijkstra
    uses, whose pushed priority is always the vertex's just-lowered
    distance. *)

val pop : t -> int
(** [pop h] removes the smallest [(priority, vertex)] entry and returns its
    vertex alone: no option, tuple or boxed float is allocated. The last
    entry sinks from the root past every smaller child, the smaller of two
    children chosen by the same order. Raises [Invalid_argument] on an
    empty heap. *)

val pop_min : t -> (float * int) option
(** [pop_min h] removes and returns the entry with the smallest priority
    (ties broken by smaller vertex id, making consumers deterministic). *)

(** Decrease-key variant over a fixed vertex universe [0 .. n-1]: a
    vertex -> slot index keeps at most one live entry per vertex, so
    re-pushing a better priority moves the entry instead of shadowing it.
    Pops follow the same strict [(priority, vertex-id)] order as the lazy
    heap, and since each vertex surfaces exactly once — at its minimal
    pushed priority — the accepted-pop sequence of a lazy-deletion consumer
    and the pop sequence of an indexed consumer are identical. The
    frontier re-relaxation of [Cold_net.Incremental] is built on this. *)
module Indexed : sig
  type t

  val create : n:int -> t
  (** [create ~n] allocates for vertices [0 .. n-1]. *)

  val is_empty : t -> bool

  val size : t -> int

  val clear : t -> unit
  (** [clear h] empties the heap in O(live entries), retaining storage. *)

  val decrease : t -> priority:float -> int -> unit
  (** [decrease h ~priority v] inserts [v], or lowers its priority if
      [priority] beats the current entry; a worse priority is a no-op. *)

  val pop_min : t -> (float * int) option
  (** Smallest [(priority, vertex)] entry, removed. *)
end
