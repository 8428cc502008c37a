(** Deterministic failure injection: seeded trace generation and replay.

    The paper (§8) argues synthesized topologies should be judged on how
    they degrade under component loss, not just on cost. This module
    generates {e failure traces} — immutable schedules of per-step failure
    sets — and replays them against a network through
    {!Cold_net.Survivability}.

    {b Rate model.} Each step draws independent failures from per-component
    rates: every {e potential} link (all n(n-1)/2 PoP pairs, so the same
    trace applies unchanged to any topology on the same context — failing an
    absent link is a no-op) fails with probability [link_rate]; every PoP
    with probability [node_rate]; and with probability [regional_rate] a
    geographically correlated cut fires — a uniformly drawn epicentre PoP
    takes down itself and every PoP whose {!Cold_context.Context.distance}
    from it is at most [regional_radius]: one fibre-duct dig or regional
    outage.

    {b Determinism.} A trace is a pure function of (seed, rates, context):
    step [i] draws from the [i]-th {!Cold_prng.Prng.split_at} child of the
    seed, in a fixed order, so the same seed yields bit-identical traces
    however the schedule is consumed, and {!evaluate} — a pure per-step
    fan-out over an indexed {!Cold_par.Par} pool — returns bit-identical
    report arrays at any domain count. *)

type rates = {
  link_rate : float;  (** Per-step failure probability of each potential link. *)
  node_rate : float;  (** Per-step failure probability of each PoP. *)
  regional_rate : float;  (** Per-step probability of one regional cut. *)
  regional_radius : float;
      (** Radius of the correlated cut around its epicentre, in context
          coordinates (the default region is 50 × 50). *)
}

val default_rates : rates
(** link 0.01, node 0.005, regional 0.02 with radius 10. *)

type event = {
  step : int;
  down_nodes : int array;  (** Failed PoPs, ascending, deduplicated. *)
  down_links : (int * int) array;
      (** Failed potential links, [(u, v)] with [u < v], lexicographic. *)
}

type trace = {
  seed : int;
  rates : rates;
  n : int;  (** Number of PoPs of the generating context. *)
  events : event array;  (** One event per step; immutable by convention. *)
}

val generate :
  ?rates:rates -> steps:int -> Cold_context.Context.t -> seed:int -> trace
(** [generate ~steps ctx ~seed] draws a [steps]-step failure schedule.
    Raises [Invalid_argument] on rates outside [0, 1], a negative radius or
    negative [steps]. *)

val length : trace -> int

val evaluate :
  ?domains:int -> Cold_net.Network.t -> trace -> Cold_net.Survivability.report array
(** [evaluate net trace] replays the schedule: slot [i] of the result is
    the survivability report of step [i]. [?domains] (default 1; 0
    autodetects) fans steps across a {!Cold_par.Par} pool — results are
    bit-identical at every setting. Raises [Invalid_argument] if the trace
    was generated for a different PoP count. *)

type summary = {
  steps : int;
  availability : Cold_stats.Bootstrap.interval;
      (** Bootstrap CI of the mean per-step delivered fraction. *)
  lost_traffic : Cold_stats.Bootstrap.interval;
  mean_disconnected_pairs : float;
  mean_stretch : float;
  worst_delivered : float;  (** Delivered fraction of the worst step. *)
  partitioned_steps : int;
      (** Steps separating at least one pair of surviving PoPs. *)
  overloaded_steps : int;  (** Steps overloading at least one link. *)
}

val summarize :
  ?replicates:int ->
  Cold_prng.Prng.t ->
  Cold_net.Survivability.report array ->
  summary
(** [summarize rng reports] aggregates a replayed trace; the rng drives the
    bootstrap resampling (pass a fixed seed for reproducible intervals).
    Raises [Invalid_argument] on an empty report array. *)

val pp_summary : Format.formatter -> summary -> unit
