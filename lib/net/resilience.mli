(** Failure analysis of synthesized networks.

    Simulation studies of the kind the paper motivates (§1: anomaly
    detection, protocol evaluation) usually stress networks with failures.
    This module answers, for a {!Network.t}: which traffic is stranded when a
    link or a PoP fails, which links are single points of failure, and how
    the designs produced by different cost parameters trade capacity for
    survivability. All fractions are of the context's total traffic. *)

type link_report = {
  link : int * int;
  stranded_fraction : float;
      (** Traffic whose endpoints are separated by the failure. *)
  load_fraction : float;  (** Share of total carried volume on the link. *)
  is_bridge : bool;
}

val stranded_by_link_failure : Network.t -> int -> int -> float
(** [stranded_by_link_failure net u v] is the fraction of total demand that
    becomes unroutable when link [{u,v}] fails (0 if the pair is not a link
    or the residual graph stays connected): the [lost_fraction] of
    {!Survivability.evaluate} with [{u,v}] down. *)

val stranded_by_node_failure : Network.t -> int -> float
(** Fraction of total demand lost when PoP [v] fails: demand to/from [v]
    plus demand separated by its removal — the [lost_fraction] of
    {!Survivability.evaluate} with [v] down. Raises [Invalid_argument] if
    [v] is out of range. *)

val worst_link : Network.t -> link_report
(** The link whose failure strands the most traffic (ties broken towards the
    higher-load link, then lexicographically). Raises [Invalid_argument] on
    an edgeless network. *)

val link_reports : Network.t -> link_report list
(** One report per link, sorted by descending [stranded_fraction]. Each
    link's fraction reroutes the traffic matrix once
    ({!stranded_by_link_failure}), so this costs one survivability pass
    per link. *)

val single_points_of_failure : Network.t -> int list
(** Articulation PoPs: their failure disconnects some remaining pair. *)

val survivable : Network.t -> bool
(** No single link failure strands transit traffic: the topology is
    two-edge-connected. *)
