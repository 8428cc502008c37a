(** The synthesis {e context} (§3.1): everything random that the
    deterministic design step consumes.

    COLD's key modelling decision is that randomness enters through the
    context — PoP locations from a point process and a gravity traffic
    matrix — while the design step is a deterministic optimization of that
    context. Generating an ensemble therefore means generating many
    contexts. *)

type spec = {
  n : int;  (** Number of PoPs. *)
  region : Cold_geom.Region.t;
  point_process : Cold_geom.Point_process.spec;
  population : Cold_traffic.Population.model;
  traffic_scale : float;  (** Multiplier on the gravity matrix; 1.0 default. *)
}

type t = {
  spec : spec;
  points : Cold_geom.Point.t array;  (** PoP coordinates. *)
  dist : Cold_geom.Distmat.t;  (** Pairwise Euclidean distances. *)
  tm : Cold_traffic.Gravity.t;  (** Traffic matrix. *)
}

val default_region : Cold_geom.Region.t
(** A 50 × 50 square — the length calibration under which the paper's
    printed cost parameters (k0 = 10, k1 = 1, k2 ∈ 2.5e-5…1.6e-3,
    k3 ∈ 1…1000) reproduce the published figures. See DESIGN.md. *)

val default_traffic_scale : float
(** 0.4 — the matching gravity-model scale. *)

val default_spec : n:int -> spec
(** The paper's default context model: uniform PoP locations on
    {!default_region}, exponential populations with mean 30, gravity traffic
    at {!default_traffic_scale}. Every field can be overridden. *)

val generate : spec -> Cold_prng.Prng.t -> t
(** [generate spec g] draws one random context. *)

val of_points_and_populations :
  ?traffic_scale:float -> Cold_geom.Point.t array -> float array -> t
(** Deterministic construction from explicit data (e.g. real city
    coordinates). Raises [Invalid_argument] if lengths differ. *)

val n : t -> int

val distance : t -> int -> int -> float
(** Euclidean distance between two PoPs: the link length ℓ of the cost
    model. *)

val lengths : t -> float array
(** Every {!distance} as one row-major n×n matrix (entry [i*n + j]), shared
    with the context — read it, never write it. Routing and the cost fold
    index it instead of calling {!distance} per pair. *)

val spatial : t -> Cold_geom.Spatial.t
(** The bucket-grid index over the PoP locations — the radius queries
    behind regional failure cuts ([Cold_sim.Failure]). *)
