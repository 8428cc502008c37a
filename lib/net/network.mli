(** A synthesized {e network}: topology plus link lengths, capacities and
    routing — "more than just a series of connected nodes" (§2, criterion 5).
    This is the value COLD ultimately returns; simulators consume it
    directly. *)

type t = {
  graph : Cold_graph.Graph.t;  (** PoP-level topology. *)
  context : Cold_context.Context.t;  (** Locations + traffic matrix it was designed for. *)
  loads : Routing.loads;  (** Traffic carried per link under shortest-path routing. *)
  capacities : Capacity.t;
}

val build :
  ?policy:Capacity.policy -> Cold_context.Context.t -> Cold_graph.Graph.t -> t
(** [build ?policy ctx g] routes [ctx]'s traffic matrix over [g] on single
    shortest paths (raising {!Routing.Disconnected} if it cannot be carried)
    and assigns capacities (default policy {!Capacity.default}). ECMP load
    balancing is {!Routing.route}'s [~multipath]. *)

val link_length : t -> int -> int -> float
(** Euclidean length of a (potential) link. *)

val total_link_length : t -> float
(** Σ ℓ over present links. *)

val path : t -> int -> int -> int list
(** [path net s d] is the routed PoP sequence from [s] to [d] (as carried:
    pairs are routed on the tree rooted at the smaller endpoint). *)

val path_length : t -> int -> int -> float
(** Geographic length of the routed path — a latency proxy. *)

val pp_summary : Format.formatter -> t -> unit
(** Topology statistics plus capacity totals. *)
