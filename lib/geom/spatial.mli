(** Uniform bucket-grid index over a point set.

    The greedy seeding heuristics and regional failure cuts need
    nearest-neighbour and radius answers many times per run; a linear scan
    makes each query O(n) and the whole hot loop O(n²). This index buckets
    the points of a fixed array into a √n × √n grid over their bounding box
    and answers nearest / radius queries by expanding rings of cells, so
    queries on geometrically spread inputs touch O(1) cells.

    {b Determinism.} Every answer is a pure function of the point array:
    cells are visited in a fixed row-major ring order, candidates within a
    cell in ascending index order, and all ties break to the lowest point
    index. Distances are computed with {!Point.distance} — the same
    expression {!Distmat.of_points} precomputes — so grid answers are
    bit-comparable with distance-matrix answers.

    Degenerate inputs (all points co-located, collinear points, n ≤ 1)
    collapse to a 1-cell axis and are handled by ring exhaustion rather
    than special cases. *)

type t

val create : Point.t array -> t
(** [create pts] builds the index in O(n). The array is copied; later
    mutation of the argument does not affect the index. *)

val size : t -> int
(** Number of indexed points. *)

val point : t -> int -> Point.t
(** [point t i] is the indexed copy of point [i]. Raises [Invalid_argument]
    on out-of-range indices. *)

val nearest : t -> int -> except:(int -> bool) -> int option
(** [nearest t i ~except] is the index [j <> i] minimizing
    [Point.distance (point t i) (point t j)] among indices with
    [except j = false]; ties break to the smallest [j]. [None] when no
    candidate qualifies. Same contract as {!Distmat.nearest}, verified
    equivalent by the test suite. *)

val within : t -> int -> radius:float -> int list
(** [within t i ~radius] is every index [j <> i] with
    [Point.distance (point t i) (point t j) <= radius], in ascending index
    order. *)
