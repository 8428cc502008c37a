(** The COLD cost model (§3.2).

    A candidate PoP-level topology G is scored by

    {v cost(G) = Σ_{i∈E} (k0 + k1·ℓi + k2·ℓi·wi) + Σ_{j: deg(j)>1} k3 v}

    where ℓi is the Euclidean link length, wi the bandwidth the link must
    carry under shortest-path routing of the context's traffic matrix, and
    the last sum is the {e hub (complexity) cost} over core PoPs (§3.2.2,
    §7 — the term required to reach CVND > 1). A topology that cannot carry
    the traffic (disconnected) costs [infinity].

    Costs are relative — only three degrees of freedom matter — so the
    conventional normalization fixes k1 = 1 and, following §6, k0 = 10.

    Two evaluation routes produce bit-identical scores: the stateless oracle
    {!evaluate} (route from scratch) and the stateful {!evaluate_state}
    (repair only what an edge flip affected — see {!Cold_net.Incremental}).
    The GA, heuristic seeding and brute force use the former; simulated
    annealing ({!Local_search}) uses the latter, and tests hold it to the
    former. *)

type params = {
  k0 : float;  (** Per-link existence cost. Dominant ⇒ spanning trees. *)
  k1 : float;  (** Per-unit-length cost. Dominant ⇒ minimum spanning tree. *)
  k2 : float;  (** Per-unit (length × bandwidth) cost. Dominant ⇒ clique. *)
  k3 : float;  (** Per-hub complexity cost. Dominant ⇒ hub-and-spoke. *)
}

type breakdown = {
  existence : float;  (** Σ k0. *)
  length : float;  (** Σ k1·ℓ. *)
  bandwidth : float;  (** Σ k2·ℓ·w. *)
  hub : float;  (** Σ k3 over core PoPs. *)
  total : float;
}

val params : ?k0:float -> ?k1:float -> ?k2:float -> ?k3:float -> unit -> params
(** Defaults: k0 = 10, k1 = 1, k2 = 1e-4, k3 = 0 — the paper's §6 baseline.
    Raises [Invalid_argument] on negative values. *)

val evaluate : params -> Cold_context.Context.t -> Cold_graph.Graph.t -> float
(** [evaluate p ctx g] is the total cost; [infinity] if [g] is disconnected
    (traffic cannot be carried). Pure: depends only on arguments. It routes
    every source through {!Cold_net.Routing.route_loads} in the calling
    domain's scratch, builds no trees, and allocates only its result — a
    fixed handful of words at any [n]. *)

val evaluate_breakdown :
  params -> Cold_context.Context.t -> Cold_graph.Graph.t -> breakdown
(** Like {!evaluate}, with per-term decomposition; every component is
    [infinity] when infeasible. The length-dependent terms are computed in
    one fused pass over the links (each link's length is read once,
    feeding both the k1 and k2 sums); {!evaluate_state} shares the fold. *)

val state :
  Cold_context.Context.t -> Cold_graph.Graph.t -> Cold_net.Incremental.t
(** [state ctx g] opens incremental evaluation state at topology [g], wired
    to the context's distances and traffic matrix — the constructor behind
    {!evaluate_state}; see {!Cold_net.Incremental.create}. *)

val evaluate_state :
  params -> Cold_context.Context.t -> Cold_net.Incremental.t -> float
(** [evaluate_state p ctx st] is the total cost of the state's current
    topology, bit-identical to [evaluate p ctx (Incremental.graph st)] but
    repairing or recomputing only the shortest-path trees invalidated since
    the state was last brought current. *)

val pp_params : Format.formatter -> params -> unit

val pp_breakdown : Format.formatter -> breakdown -> unit
