(** Ensembles of synthesized networks.

    The whole point of topology synthesis is to produce {e many} networks
    "similar but varied enough to perform statistical analysis of results"
    (§1, requirement 1). An ensemble draws k independent contexts from one
    spec (child PRNG streams split per trial, so members are reproducible
    and order-independent) and designs each. Summary statistics with
    bootstrap confidence intervals come out alongside. *)

type t = {
  networks : Cold_net.Network.t array;
  summaries : Cold_metrics.Summary.t array;
}

val generate :
  ?domains:int ->
  Synthesis.config ->
  Cold_context.Context.spec ->
  count:int ->
  seed:int ->
  t
(** [generate cfg spec ~count ~seed] synthesizes [count] networks.

    [?domains] (default 1; 0 autodetects) spreads whole member syntheses
    across a domain pool — one context + GA per task. Members were already
    independent (per-trial split PRNG streams), so the ensemble is
    bit-identical at every setting. Keep inner GA parallelism
    ([cfg.domains]) at 1 unless the ensemble is smaller than the
    machine. *)

val same_context :
  ?domains:int ->
  Synthesis.config ->
  Cold_context.Context.t ->
  count:int ->
  seed:int ->
  t
(** [same_context cfg ctx ~count ~seed] designs [count] networks for a single
    fixed context (different GA streams) — the paper's "fixed context,
    multiple topologies" simulation mode (§3.3). [?domains] as in
    {!generate}. *)

val statistic : t -> (Cold_metrics.Summary.t -> float) -> float array
(** Extract one statistic across the ensemble. *)

val mean_ci :
  t ->
  (Cold_metrics.Summary.t -> float) ->
  seed:int ->
  Cold_stats.Bootstrap.interval
(** Bootstrap 95 % CI of an ensemble statistic's mean. *)

val distinct_topologies : t -> int
(** Number of pairwise non-identical (as labelled graphs) topologies — a
    cheap verification of requirement 1 ("distinct by construction"). *)
