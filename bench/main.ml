(* COLD experiment harness: regenerates every table and figure of the paper
   plus the §5/§7 validation experiments. Scale with COLD_BENCH_SCALE =
   smoke | quick (default) | full; see bench/config.ml and EXPERIMENTS.md.
   COLD_BENCH_ONLY=name1,name2 runs a subset (names printed below). *)

let want =
  match Sys.getenv_opt "COLD_BENCH_ONLY" with
  | None | Some "" -> fun _ -> true
  | Some s ->
    let names = String.split_on_char ',' s in
    fun name -> List.exists (String.equal name) names

let bench name f = if want name then f ()

let () =
  Printf.printf "COLD benchmark harness — scale: %s\n" Config.scale_name;
  Printf.printf "(set COLD_BENCH_SCALE=smoke|quick|full to change)\n";
  let (), elapsed =
    Bench_config.timed (fun () ->
        bench "table1" Table1.run;
        bench "fig1" Fig1.run;
        bench "fig2" Fig2.run;
        bench "fig3" Fig3.run;
        bench "fig4" Fig4.run;
        bench "tunability" (fun () -> ignore (Tunability.run ()));
        bench "hubcost" Hubcost.run;
        bench "ga_optimality" Ga_optimality.run;
        bench "ablation_context" Ablation_context.run;
        bench "ablation_ga" Ablation_ga.run;
        bench "ablation_cost" Ablation_cost.run;
        bench "ablation_optimizer" Ablation_optimizer.run;
        bench "evolution" Evolution_experiment.run;
        bench "abc" Abc_experiment.run;
        bench "ablation_routing" Ablation_routing.run;
        bench "ga_hotpath" Ga_hotpath.run;
        bench "failure_sweep" Failure_sweep.run;
        (* Large-n scaling cells (n up to 1000): opt-in only — run via the
           @bench-large alias or COLD_BENCH_ONLY=ga_hotpath_large. *)
        match Sys.getenv_opt "COLD_BENCH_ONLY" with
        | Some _ -> bench "ga_hotpath_large" Ga_hotpath.run_large
        | None -> ())
  in
  Printf.printf "\ntotal harness time: %.0fs\n" elapsed
