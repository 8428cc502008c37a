(** Local-search optimizers: hill climbing and simulated annealing.

    The paper argues for a GA on flexibility grounds (§3.3) but notes network
    engineers optimize "using their own heuristics" — any good-solution
    search is admissible. These single-trajectory optimizers over the same
    move set (link toggles and leaf-ifications, with connectivity repair)
    serve as an ablation of that design choice: the harness compares their
    cost/time trade-off against the GA (bench: ablation_optimizer), and they
    make useful extra seeds for the initialised GA. *)

type settings = {
  iterations : int;  (** Proposed moves. Default 4000. *)
  initial_temperature : float;
      (** As a fraction of the starting cost; 0 gives pure hill climbing.
          Default 0.03. *)
  cooling : float;  (** Geometric factor applied each iteration. Default
                        chosen so temperature decays ~1000x over the run. *)
  node_move_prob : float;  (** Probability a proposal is a leaf-ification
                               rather than a link toggle. Default 0.2. *)
}

type result = {
  best : Cold_graph.Graph.t;
  best_cost : float;
  accepted : int;  (** Accepted proposals. *)
  evaluations : int;
}

val default_settings : settings

val hill_climb_settings : settings
(** [initial_temperature = 0]: strictly-improving moves only. *)

val run :
  ?incremental:bool ->
  ?initial:Cold_graph.Graph.t ->
  settings ->
  Cost.params ->
  Cold_context.Context.t ->
  Cold_prng.Prng.t ->
  result
(** [run settings params ctx rng] anneals from [initial] (default: the
    Euclidean MST). A disconnected [initial] is first connected by
    {!Repair.repair} (a copy; the argument is not modified). The result is
    always connected; the returned best is the cheapest topology ever
    visited, not the final state.

    [incremental] (default [true]) evaluates proposals through the
    delta-aware engine ({!Cold_net.Incremental}): each candidate's edge
    flips are applied to persistent evaluation state, committed on accept
    and rolled back on reject, so only affected shortest-path trees are
    repaired in place. [false] evaluates every candidate from scratch with
    {!Cost.evaluate} — the reference the engine is tested against. Both
    paths are bit-identical — same proposals, same costs, same trajectory,
    same result — differing only in running time. *)
