(* Zoo comparison: §6's validation workflow as a runnable example. Synthesize
   ensembles from each named cost preset and check where their statistics
   fall relative to the (synthetic) Topology Zoo population and the embedded
   real maps — "we can reproduce a representative range of these features".

   Run with:  dune exec examples/zoo_comparison.exe *)

module Context = Cold_context.Context
module Summary = Cold_metrics.Summary
module D = Cold_stats.Descriptive

let settings = Cold.Ga.settings_for ~population:40 ~generations:40

let ensemble_stats preset =
  let cfg =
    { (Cold.Synthesis.default_config ~params:preset.Cold.Presets.params ()) with
      Cold.Synthesis.ga = settings; heuristic_permutations = 3 }
  in
  let e = Cold.Ensemble.generate cfg (Context.default_spec ~n:25) ~count:6 ~seed:77 in
  let stat f = D.mean (Cold.Ensemble.statistic e f) in
  ( stat (fun s -> s.Summary.average_degree),
    stat (fun s -> s.Summary.cvnd),
    stat (fun s -> s.Summary.global_clustering) )

let () =
  let zoo = Cold_zoo.Zoo.synthetic ~count:250 ~seed:1 () in
  let cvnd = Cold_zoo.Zoo.cvnd_values zoo in
  let gcc = Cold_zoo.Zoo.gcc_values zoo in
  Printf.printf
    "zoo population (n=250): CVND p10/p50/p90 = %.2f / %.2f / %.2f;\n\
    \                        GCC  p10/p50/p90 = %.2f / %.2f / %.2f\n\n"
    (D.quantile cvnd 0.1) (D.median cvnd) (D.quantile cvnd 0.9)
    (D.quantile gcc 0.1) (D.median gcc) (D.quantile gcc 0.9);
  Printf.printf "%-24s %11s %7s %7s\n" "preset" "avg degree" "CVND" "GCC";
  print_endline (String.make 52 '-');
  List.iter
    (fun preset ->
      let (deg, cv, cl) = ensemble_stats preset in
      Printf.printf "%-24s %11.2f %7.2f %7.3f\n" preset.Cold.Presets.name deg cv cl)
    Cold.Presets.all;
  print_endline "\nembedded real maps for orientation:";
  List.iter
    (fun (e : Cold_zoo.Zoo.entry) ->
      let s = Summary.compute e.Cold_zoo.Zoo.graph in
      Printf.printf "%-24s %11.2f %7.2f %7.3f\n" e.Cold_zoo.Zoo.name
        s.Summary.average_degree s.Summary.cvnd s.Summary.global_clustering)
    (Cold_zoo.Zoo.reference ());
  print_endline
    "\nthe presets span the zoo's CVND range (≈0.2 trees to >1 hub-and-spoke)\n\
     and its clustering range — the §6 tunability claim, as a user workflow."
