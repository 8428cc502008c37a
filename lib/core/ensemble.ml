module Prng = Cold_prng.Prng
module Context = Cold_context.Context
module Network = Cold_net.Network
module Summary = Cold_metrics.Summary
module Graph = Cold_graph.Graph

module Par = Cold_par.Par

type t = { networks : Network.t array; summaries : Summary.t array }

let finish networks =
  {
    networks;
    summaries = Array.map (fun n -> Summary.compute n.Network.graph) networks;
  }

(* Members already draw from per-trial child PRNG streams (split_at), so
   each trial is a self-contained synthesis task: one context + GA per pool
   slot, results landing in trial order whatever domain ran them. *)
let generate ?(domains = 1) cfg spec ~count ~seed =
  if count < 0 then invalid_arg "Ensemble.generate";
  let root = Prng.create seed in
  let trials = Array.init count (fun i -> i) in
  let networks =
    Par.with_pool ~domains (fun pool ->
        Par.map_array pool
          (fun i ->
            let rng = Prng.split_at root i in
            let ctx = Context.generate spec rng in
            Synthesis.design cfg ctx rng)
          trials)
  in
  finish networks

let same_context ?(domains = 1) cfg ctx ~count ~seed =
  if count < 0 then invalid_arg "Ensemble.same_context";
  let root = Prng.create seed in
  let trials = Array.init count (fun i -> i) in
  let networks =
    Par.with_pool ~domains (fun pool ->
        Par.map_array pool
          (fun i ->
            let rng = Prng.split_at root i in
            Synthesis.design cfg ctx rng)
          trials)
  in
  finish networks

let statistic t f = Array.map f t.summaries

let mean_ci t f ~seed =
  Cold_stats.Bootstrap.mean_ci (Prng.create seed) (statistic t f)

let distinct_topologies t =
  let n = Array.length t.networks in
  let distinct = ref 0 in
  for i = 0 to n - 1 do
    let duplicate = ref false in
    for j = 0 to i - 1 do
      if
        (not !duplicate)
        && Graph.equal t.networks.(i).Network.graph t.networks.(j).Network.graph
      then duplicate := true
    done;
    if not !duplicate then incr distinct
  done;
  !distinct
