(* Bench smoke: a seconds-scale sanity pass over the evaluation engine,
   runnable as `dune build @bench-smoke` and attached to @runtest. Exercises
   the incremental engine against the stateless oracle on a miniature
   workload and fails loudly on any divergence. Writes no JSON — the real
   harness (bench/main.exe) owns BENCH_ga.json. *)

module Graph = Cold_graph.Graph
module Mst = Cold_graph.Mst
module Prng = Cold_prng.Prng
module Context = Cold_context.Context
module Cost = Cold.Cost
module Incremental = Cold_net.Incremental
module Local_search = Cold.Local_search

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let fail fmt = Printf.ksprintf failwith fmt

(* Random single-flip trajectory: the SA move pattern, checked bitwise
   against the oracle at every step. Reports the incremental work done. *)
let check_trajectory ~n ~steps =
  let ctx = Context.generate (Context.default_spec ~n) (Prng.create 5) in
  let params = Cost.params ~k2:1e-4 () in
  let rng = Prng.create 6 in
  let g = Mst.mst_graph ~n ~weight:(fun u v -> Context.distance ctx u v) in
  let st = Cost.state ctx g in
  ignore (Cost.evaluate_state params ctx st);
  Incremental.commit st;
  let evals = ref 0 in
  for step = 1 to steps do
    let rec pick () =
      let u = Prng.int rng n and v = Prng.int rng n in
      if u = v then pick () else (u, v)
    in
    let (u, v) = pick () in
    let cur = Incremental.graph st in
    if Graph.mem_edge cur u v then Incremental.remove_edge st u v
    else Incremental.add_edge st u v;
    let a = Cost.evaluate_state params ctx st in
    let b = Cost.evaluate params ctx (Incremental.graph st) in
    incr evals;
    if not (bits_equal a b) then
      fail "trajectory step %d: incremental %h vs oracle %h" step a b;
    if step mod 3 = 0 then Incremental.rollback st else Incremental.commit st
  done;
  Printf.printf
    "smoke trajectory n=%d: %d evals, %.1f trees recomputed + %.1f repaired \
     in place/eval (full would be %d)\n%!"
    n !evals
    (float_of_int (Incremental.recomputed_trees st) /. float_of_int !evals)
    (float_of_int (Incremental.repaired_trees st) /. float_of_int !evals)
    n

(* The incremental annealer against the from-scratch one on the same
   trajectory. *)
let check_local_search () =
  let ctx = Context.generate (Context.default_spec ~n:12) (Prng.create 7) in
  let params = Cost.params ~k2:2e-4 () in
  let settings =
    { Local_search.default_settings with Local_search.iterations = 400 }
  in
  let run incremental =
    Local_search.run ~incremental settings params ctx (Prng.create 8)
  in
  let full = run false and inc = run true in
  if not (bits_equal full.Local_search.best_cost inc.Local_search.best_cost)
  then
    fail "local search diverged: full %h vs incremental %h"
      full.Local_search.best_cost inc.Local_search.best_cost;
  if full.Local_search.accepted <> inc.Local_search.accepted then
    fail "local search accepted counts diverged";
  Printf.printf "smoke local search: full and incremental bit-identical\n%!"

(* Failure replay: a short trace evaluated sequentially and fanned out must
   agree bit for bit, and the empty failure set must reproduce the baseline
   routing volume exactly. *)
let check_failure () =
  let n = 12 in
  let ctx = Context.generate (Context.default_spec ~n) (Prng.create 11) in
  let g = Mst.mst_graph ~n ~weight:(fun u v -> Context.distance ctx u v) in
  Graph.add_edge g 0 (n - 1);
  let net = Cold_net.Network.build ctx g in
  let trace =
    Cold_sim.Failure.generate
      ~rates:{ Cold_sim.Failure.link_rate = 0.05; node_rate = 0.03;
               regional_rate = 0.1; regional_radius = 15.0 }
      ~steps:8 ctx ~seed:12
  in
  let seq = Cold_sim.Failure.evaluate ~domains:1 net trace in
  let par = Cold_sim.Failure.evaluate ~domains:4 net trace in
  Array.iteri
    (fun i (r : Cold_net.Survivability.report) ->
      if
        not
          (bits_equal r.Cold_net.Survivability.delivered_fraction
             par.(i).Cold_net.Survivability.delivered_fraction
          && bits_equal r.Cold_net.Survivability.routed_volume_length
               par.(i).Cold_net.Survivability.routed_volume_length)
      then fail "failure replay diverged across domains at step %d" i)
    seq;
  let baseline =
    Cold_net.Survivability.evaluate net ~down_nodes:[] ~down_links:[]
  in
  let vl =
    Cold_net.Routing.total_volume_length net.Cold_net.Network.loads
      ~length:(fun u v -> Context.distance ctx u v)
  in
  if not (bits_equal baseline.Cold_net.Survivability.routed_volume_length vl)
  then fail "empty failure set is not the baseline routing";
  Printf.printf "smoke failure replay: sequential and fanned-out bit-identical\n%!"

let () =
  let (), elapsed =
    Bench_config.timed (fun () ->
        check_trajectory ~n:24 ~steps:150;
        check_local_search ();
        check_failure ())
  in
  Printf.printf "bench smoke passed in %.1fs\n" elapsed
