(* Protocol study: the end-to-end workflow the paper exists for. Synthesize
   an ensemble per design archetype, run a flow-level simulation on every
   member, and compare flow completion times with confidence intervals and a
   significance test — "testing new networking algorithms and protocols whose
   properties and performance often depend on the structure of the
   underlying network" (§1).

   Run with:  dune exec examples/protocol_study.exe *)

module Context = Cold_context.Context
module Flow_sim = Cold_sim.Flow_sim
module Prng = Cold_prng.Prng

let settings = Cold.Ga.settings_for ~population:40 ~generations:40

let sim_config = { Flow_sim.default_config with Flow_sim.load = 1.5; flow_limit = 400 }

let fcts_for preset =
  let cfg =
    { (Cold.Synthesis.default_config ~params:preset.Cold.Presets.params ()) with
      Cold.Synthesis.ga = settings; heuristic_permutations = 3 }
  in
  let ensemble =
    Cold.Ensemble.generate cfg (Context.default_spec ~n:15) ~count:8 ~seed:31
  in
  Array.mapi
    (fun i net ->
      (Flow_sim.run sim_config net (Prng.create (100 + i))).Flow_sim.mean_fct)
    ensemble.Cold.Ensemble.networks

let () =
  Printf.printf
    "flow-level simulation at 1.5x design load, 8 networks x 400 flows per preset\n\n";
  Printf.printf "%-24s %28s\n" "design archetype" "mean flow completion time";
  let results =
    List.map
      (fun preset ->
        let fcts = fcts_for preset in
        let ci = Cold_stats.Bootstrap.mean_ci (Prng.create 1) fcts in
        Printf.printf "%-24s %28s\n" preset.Cold.Presets.name
          (Format.asprintf "%a" Cold_stats.Bootstrap.pp ci);
        (preset.Cold.Presets.name, fcts))
      [ Cold.Presets.startup; Cold.Presets.mature_carrier ]
  in
  (match results with
  | [ (na, a); (nb, b) ] ->
    let r = Cold_stats.Hypothesis.mann_whitney_u a b in
    Printf.printf "\n%s vs %s: Mann-Whitney p = %.4f (%s)\n" na nb
      r.Cold_stats.Hypothesis.p_value
      (if Cold_stats.Hypothesis.significant r then "significant" else "not significant")
  | _ -> ());
  print_endline
    "\na non-obvious outcome: the tree-like startup design completes flows\n\
     FASTER. Because capacities are provisioned from carried load, a tree's\n\
     few links are fat and a single flow sees a large bottleneck; the meshy\n\
     design spreads the same provisioning across many thinner links. (Meshes\n\
     win on resilience and latency, not per-flow bandwidth.) This is exactly\n\
     the kind of conclusion that depends on topology *and* provisioning —\n\
     why synthesis must output a network, not a graph (§2, criterion 5)."
