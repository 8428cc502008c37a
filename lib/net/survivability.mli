(** Survivability evaluation of a network under a concrete failure set.

    {!Resilience} answers {e structural} questions about single failures
    (which traffic a cut strands, which links are bridges). This module
    evaluates an arbitrary {e simultaneous} failure set — down PoPs plus down
    links, e.g. one step of a {!Cold_sim.Failure} trace — by actually
    rerouting the context's traffic matrix over the degraded topology and
    reporting what the surviving network delivers, how far traffic detours,
    and where the rerouted load exceeds the capacities the un-failed design
    was provisioned with.

    Rerouting reuses the routing stack's own machinery (one CSR snapshot,
    the per-source Dijkstra step in the calling domain's scratch,
    {!Routing.accumulate} for the loads), so an {e empty} failure set
    reproduces the baseline routing bit for bit: [routed_volume_length]
    equals [Routing.total_volume_length net.loads] exactly, and the k2 cost
    term of {!Cold.Cost} can be recovered from it. Evaluation is a pure
    function of its arguments — fan it out across domains freely. *)

type report = {
  down_node_count : int;  (** PoPs failed in this set. *)
  down_link_count : int;
      (** Links removed individually (present in the topology and not
          already implied by a failed endpoint). *)
  delivered_fraction : float;
      (** Demand still routable over the degraded topology, as a fraction
          of total demand. 1.0 under an empty failure set. *)
  lost_fraction : float;  (** [1 - delivered_fraction]. *)
  failed_pairs : int;  (** Unordered pairs with at least one failed endpoint. *)
  disconnected_pairs : int;
      (** Unordered pairs of surviving PoPs separated by the failure. *)
  stretch : float;
      (** Demand-weighted ratio of rerouted to baseline path length over
          delivered pairs; 1.0 when nothing is delivered (and exactly 1.0
          under an empty failure set). Always >= 1 otherwise. *)
  routed_volume_length : float;
      (** Sum of load × length over the degraded topology's links — the
          bandwidth-cost integrand restricted to delivered traffic. *)
  overloaded_links : int;
      (** Surviving links whose rerouted load exceeds their provisioned
          capacity (links the baseline routing left unloaded have capacity 0
          and count as overloaded as soon as any detour uses them). *)
  max_utilization : float;
      (** Max load/capacity over surviving links with positive capacity;
          [1/O] under an empty failure set with the default policy. *)
}

val evaluate :
  Network.t -> down_nodes:int list -> down_links:(int * int) list -> report
(** [evaluate net ~down_nodes ~down_links] reroutes [net]'s traffic matrix
    over the topology with the given PoPs and links removed. Failing an
    absent link (or a link of an already-failed PoP) is a no-op, so failure
    sets drawn over all potential conduits apply unchanged to any topology
    on the same context. Raises [Invalid_argument] on out-of-range indices
    or a self-loop link. *)

val pp_report : Format.formatter -> report -> unit
