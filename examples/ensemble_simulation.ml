(* Ensemble simulation: the paper's core motivation (§1, challenge 1) — a
   protocol experiment needs MANY similar-but-distinct networks so results
   come with confidence intervals, not a single anecdote.

   Here the "protocol" under test is a toy link-failure study: for each
   synthesized network we fail its most-loaded link and measure how much
   traffic becomes unroutable, then report the ensemble mean with a 95 %
   bootstrap CI.

   Run with:  dune exec examples/ensemble_simulation.exe *)

module Network = Cold_net.Network
module Context = Cold_context.Context

let settings = Cold.Ga.settings_for ~population:40 ~generations:40

(* Fraction of total traffic stranded when the worst link fails — the
   resilience library does the failure analysis. *)
let stranded_traffic_fraction (net : Network.t) =
  (Cold_net.Resilience.worst_link net).Cold_net.Resilience.stranded_fraction

let run_study ~k3 =
  let params = Cold.Cost.params ~k2:3e-4 ~k3 () in
  let cfg =
    { (Cold.Synthesis.default_config ~params ()) with
      Cold.Synthesis.ga = settings; heuristic_permutations = 3 }
  in
  let ensemble =
    Cold.Ensemble.generate cfg (Context.default_spec ~n:20) ~count:12 ~seed:99
  in
  Array.map stranded_traffic_fraction ensemble.Cold.Ensemble.networks

let () =
  print_endline
    "link-failure study: traffic stranded by the single worst link failure,\n\
     over an ensemble of 12 synthesized 20-PoP networks per design point.\n";
  let samples =
    List.map
      (fun k3 ->
        let values = run_study ~k3 in
        let ci = Cold_stats.Bootstrap.mean_ci (Cold_prng.Prng.create 1) values in
        Printf.printf "k3 = %6.0f  stranded traffic: %s\n" k3
          (Format.asprintf "%a" Cold_stats.Bootstrap.pp ci);
        (k3, values))
      [ 0.0; 1000.0 ]
  in
  (* An ensemble supports a significance statement, not just two means. *)
  (match samples with
  | [ (_, flat); (_, hubby) ] ->
    let r = Cold_stats.Hypothesis.mann_whitney_u flat hubby in
    Printf.printf
      "\nMann-Whitney U: z = %.2f, p = %.4f -> difference %s at alpha = 0.05\n"
      r.Cold_stats.Hypothesis.z_score r.Cold_stats.Hypothesis.p_value
      (if Cold_stats.Hypothesis.significant r then "significant" else "not significant")
  | _ -> ());
  print_endline
    "\nhub-heavy designs concentrate traffic on hub-adjacent links, changing\n\
     what the worst single failure costs — the kind of conclusion that needs\n\
     an ensemble with a test, not one network and an anecdote."
