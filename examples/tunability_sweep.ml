(* Tunability: the §6 use case. An experimenter wants networks that range
   from tree-like to meshy and from flat to hub-and-spoke, controlled by two
   meaningful knobs: the bandwidth cost k2 and the hub cost k3.

   Run with:  dune exec examples/tunability_sweep.exe *)

module Prng = Cold_prng.Prng
module Context = Cold_context.Context
module Summary = Cold_metrics.Summary

let settings =
  (* A lighter GA than the paper's M = T = 100 keeps this example snappy. *)
  Cold.Ga.settings_for ~population:40 ~generations:40

let synthesize ~k2 ~k3 ~seed =
  let params = Cold.Cost.params ~k2 ~k3 () in
  let cfg =
    { (Cold.Synthesis.default_config ~params ()) with
      Cold.Synthesis.ga = settings; heuristic_permutations = 3 }
  in
  let rng = Prng.create seed in
  let ctx = Context.generate (Context.default_spec ~n:25) rng in
  let result = Cold.Synthesis.design_ga cfg ctx rng in
  Summary.compute result.Cold.Ga.best

let () =
  Printf.printf "%10s %8s | %10s %8s %8s %8s\n" "k2" "k3" "avg degree" "CVND"
    "diam" "GCC";
  print_endline (String.make 62 '-');
  List.iter
    (fun k3 ->
      List.iter
        (fun k2 ->
          let s = synthesize ~k2 ~k3 ~seed:7 in
          Printf.printf "%10.1e %8.0f | %10.2f %8.2f %8d %8.3f\n" k2 k3
            s.Summary.average_degree s.Summary.cvnd s.Summary.diameter
            s.Summary.global_clustering)
        [ 2.5e-5; 4.0e-4; 1.6e-3 ])
    [ 0.0; 100.0; 1000.0 ];
  print_endline
    "\nreading the table: degree and clustering rise with k2 (meshier);\n\
     CVND rises and the network collapses to hub-and-spoke as k3 grows."
