(** Gravity-model traffic matrices (§3.1).

    Demand from PoP [s] to PoP [d] is proportional to the product of their
    populations: [t(s,d) = scale · pop(s) · pop(d)] for [s ≠ d], and
    [t(s,s) = 0]. This is the maximum-entropy traffic model given per-PoP
    totals and matches measured traffic-matrix distributions well. The
    matrix is directed (and symmetric by construction since populations are
    scalars); routing sums both directions onto each undirected link. *)

type t

val of_populations : ?scale:float -> float array -> t
(** [of_populations ~scale pops] builds the traffic matrix. Default [scale]
    is 1 — with exponential populations of mean 30 this reproduces the
    paper's k2 operating range (see DESIGN.md). Raises [Invalid_argument] on
    negative populations or scale. *)

val size : t -> int

val demand : t -> int -> int -> float
(** [demand tm s d]; diagonal entries are 0. *)

val pair_demand : t -> int -> int -> float
(** [pair_demand tm u v] = demand u→v + demand v→u: the undirected load if
    the pair were directly linked. *)

val pair_demand_row : t -> int -> float array -> unit
(** [pair_demand_row tm s row] writes [pair_demand tm s d] into [row.(d)]
    for every [d], bit for bit, without allocating — the form routing reads
    a source's demands in. Raises [Invalid_argument] if [s] is out of range
    or [row] is shorter than {!size}. *)

val total : t -> float
(** Sum of all demands. *)

val row_total : t -> int -> float
(** Total traffic originating at a PoP. *)

val populations : t -> float array
(** The populations used to build the matrix (copy). *)

val scale_total : t -> target:float -> t
(** [scale_total tm ~target] rescales so that {!total} equals [target] —
    used for network-growth scenarios where traffic volume grows
    independently of PoP count. *)
