(** Symmetric Euclidean distance matrices over point sets.

    Cost evaluation queries pairwise distances millions of times per GA run,
    so distances are precomputed once per context into a flat row-major
    n×n float array. *)

type t

val of_points : Point.t array -> t
(** [of_points pts] precomputes all pairwise distances. *)

val size : t -> int
(** Number of points. *)

val get : t -> int -> int -> float
(** [get d i j] is the distance between points [i] and [j]; [get d i i = 0].
    Raises [Invalid_argument] on out-of-range indices. *)

val matrix : t -> float array
(** The row-major n×n matrix behind {!get}: entry [i*n + j] is [get d i j].
    Shared, not copied — hot loops read it without a call per pair; never
    write to it. *)

val max_distance : t -> float
(** Largest pairwise distance (0 for fewer than 2 points). *)

val spatial : t -> Spatial.t
(** The bucket-grid index built over the same points at {!of_points} time —
    the nearest / radius query engine behind {!nearest} and regional
    failure cuts. *)

val nearest : t -> int -> except:(int -> bool) -> int option
(** [nearest d i ~except] is the index [j <> i] minimizing [get d i j] among
    indices for which [except j] is [false]; ties break to the smaller index.
    [None] if no candidate exists. Answered through the spatial grid in
    O(cells touched) rather than an O(n) row scan; results are identical to
    {!nearest_scan}. *)

val nearest_scan : t -> int -> except:(int -> bool) -> int option
(** The O(n) linear-scan reference implementation of {!nearest}, kept for
    the grid/scan equivalence sweeps in the test suite. *)
