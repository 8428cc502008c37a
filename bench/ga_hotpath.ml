(* Optimizer hot-path throughput: evaluations/sec of the evaluation engine,
   at n = 20 and n = 40.

   Two workloads:
     ga_hotpath    — the standard GA, every candidate priced by
                     Cost.evaluate, sequential vs autodetected domains;
     local_search  — simulated annealing (every candidate is a single move
                     from the current state: the incremental engine's
                     client).

   Variants:
     full          — Cost.evaluate from scratch per candidate;
     dynamic       — local search through Cold_net.Incremental, which
                     repairs affected trees in place (doc/PERF.md
                     "Dynamic SSSP repair"). It runs the identical RNG
                     trajectory as full and is asserted bit-identical
                     in-bench.

   Cells land in BENCH_ga.json keyed by (bench, variant, n, domains):
   existing rows for other keys are preserved, matching rows are replaced —
   reruns accumulate instead of clobbering. Schema per row:
     {bench, variant, n, domains, evals_per_sec, wall_s,
      speedup_vs_seq, speedup_vs_full}
   where speedup_vs_seq compares against the 1-domain cell of the same
   variant and speedup_vs_full against the "full" variant of the same
   (bench, n, domains). The fitness memo is disabled so evals/sec stays a
   routing-throughput number. *)

module Prng = Cold_prng.Prng
module Context = Cold_context.Context
module Par = Cold_par.Par
module Ga = Cold.Ga
module Cost = Cold.Cost
module Local_search = Cold.Local_search

type cell = {
  bench : string;
  variant : string; (* "full" | "dynamic" *)
  n : int;
  domains : int;
  evals_per_sec : float;
  wall_s : float;
  speedup_vs_seq : float;
  speedup_vs_full : float;
}

let ga_settings =
  match Config.scale with
  | Config.Smoke ->
    {
      Cold.Ga.default_settings with
      Cold.Ga.population_size = 20;
      generations = 10;
      num_saved = 4;
      num_crossover = 10;
      num_mutation = 6;
    }
  | Config.Quick ->
    {
      Cold.Ga.default_settings with
      Cold.Ga.population_size = 40;
      generations = 25;
      num_saved = 8;
      num_crossover = 20;
      num_mutation = 12;
    }
  | Config.Full -> Cold.Ga.default_settings

let ls_iterations =
  match Config.scale with
  | Config.Smoke -> 300
  | Config.Quick -> 1500
  | Config.Full -> 4000

let ctx_for n =
  Context.generate (Context.default_spec ~n) (Prng.create (Config.master_seed + n))

let params = Cost.params ~k2:1e-4 ()

let measure_ga ~settings ~n ~domains () =
  let ctx = ctx_for n in
  let run () =
    Ga.run ~domains ~cache_slots:0 settings params ctx (Prng.create 42)
  in
  let (result, wall) = Config.time_it run in
  (result, wall, float_of_int result.Cold.Ga.evaluations /. wall)

let measure_ls ?incremental ~iterations ~n () =
  let ctx = ctx_for n in
  let settings =
    { Local_search.default_settings with Local_search.iterations }
  in
  let run () =
    Local_search.run ?incremental settings params ctx (Prng.create 43)
  in
  let (result, wall) = Config.time_it run in
  (result, wall, float_of_int result.Local_search.evaluations /. wall)

let row c =
  Printf.sprintf
    "{\"bench\": \"%s\", \"variant\": \"%s\", \"n\": %d, \"domains\": %d, \
     \"evals_per_sec\": %.1f, \"wall_s\": %.3f, \"speedup_vs_seq\": %.3f, \
     \"speedup_vs_full\": %.3f}"
    c.bench c.variant c.n c.domains c.evals_per_sec c.wall_s c.speedup_vs_seq
    c.speedup_vs_full

let print_cell c =
  Printf.printf
    "%-12s %-11s n=%-3d %d domains %9.1f evals/s (%.2fs)  vs seq %.2fx  vs full %.2fx\n%!"
    c.bench c.variant c.n c.domains c.evals_per_sec c.wall_s c.speedup_vs_seq
    c.speedup_vs_full

let run () =
  Config.section
    "Evaluation engine: incremental vs full recomputation (BENCH_ga.json)";
  let auto = Par.resolve ~domains:0 () in
  Printf.printf "autodetected domains: %d\n" auto;
  let cells = ref [] in
  let add c =
    print_cell c;
    cells := c :: !cells
  in
  let ls_speedup_n40 = ref 0.0 in

  (* The GA at 1 domain and (when available) the autodetected count,
     asserting bit-identical optima. *)
  List.iter
    (fun n ->
      let bench = "ga_hotpath" in
      let (seq, seq_wall, seq_eps) =
        measure_ga ~settings:ga_settings ~n ~domains:1 ()
      in
      add
        { bench; variant = "full"; n; domains = 1; evals_per_sec = seq_eps;
          wall_s = seq_wall; speedup_vs_seq = 1.0; speedup_vs_full = 1.0 };
      if auto > 1 then begin
        let (par, par_wall, par_eps) =
          measure_ga ~settings:ga_settings ~n ~domains:auto ()
        in
        assert (Float.equal par.Cold.Ga.best_cost seq.Cold.Ga.best_cost);
        add
          { bench; variant = "full"; n; domains = auto; evals_per_sec = par_eps;
            wall_s = par_wall; speedup_vs_seq = par_eps /. seq_eps;
            speedup_vs_full = 1.0 }
      end)
    [ 20; 40 ];

  (* Local search: the single-edge-move workload. *)
  List.iter
    (fun n ->
      let iterations = ls_iterations in
      let (full_r, full_wall, full_eps) =
        measure_ls ~incremental:false ~iterations ~n ()
      in
      add
        { bench = "local_search"; variant = "full"; n; domains = 1;
          evals_per_sec = full_eps; wall_s = full_wall; speedup_vs_seq = 1.0;
          speedup_vs_full = 1.0 };
      let (inc_r, inc_wall, inc_eps) = measure_ls ~iterations ~n () in
      assert (
        Float.equal inc_r.Local_search.best_cost full_r.Local_search.best_cost);
      let speedup = inc_eps /. full_eps in
      if n = 40 then ls_speedup_n40 := speedup;
      add
        { bench = "local_search"; variant = "dynamic"; n; domains = 1;
          evals_per_sec = inc_eps; wall_s = inc_wall; speedup_vs_seq = 1.0;
          speedup_vs_full = speedup })
    [ 20; 40 ];

  Printf.printf
    "\nlocal_search n=40: dynamic %.2fx over full recomputation\n"
    !ls_speedup_n40;
  let rows = List.rev_map row !cells in
  let total =
    Config.merge_json_rows ~path:"BENCH_ga.json"
      ~key:[ "bench"; "variant"; "n"; "domains" ]
      rows
  in
  Printf.printf "merged BENCH_ga.json (%d new cells, %d total)\n"
    (List.length rows) total

(* ------------------------------------------------------------------ *)
(* Large-n scaling cells: n ∈ {100, 300, 1000}, the same two workloads —
   full recomputation, and the dynamic in-place repair engine for local
   search (on the same RNG trajectory, asserted bit-identical). Settings
   shrink with n so the n = 1000 cells
   stay minutes, not hours: the quantity measured is evals/sec of the
   evaluation engine, which tiny populations sample just as well. Runs
   under the @bench-large alias (COLD_BENCH_ONLY=ga_hotpath_large), never
   under @runtest. *)

let large_ga n =
  let base = Cold.Ga.default_settings in
  if n <= 100 then
    { base with
      Cold.Ga.population_size = 16; generations = 6; num_saved = 4;
      num_crossover = 6; num_mutation = 6 }
  else if n <= 300 then
    { base with
      Cold.Ga.population_size = 8; generations = 3; num_saved = 2;
      num_crossover = 3; num_mutation = 3 }
  else
    { base with
      Cold.Ga.population_size = 5; generations = 2; num_saved = 2;
      num_crossover = 1; num_mutation = 2 }

let large_ls_iterations n = if n <= 100 then 400 else if n <= 300 then 120 else 30

let large_ns =
  (* The n = 1000 cells are the point of the exercise but cost minutes;
     smoke scale (the CI alias) stops at 300. *)
  match Config.scale with
  | Config.Smoke -> [ 100; 300 ]
  | Config.Quick | Config.Full -> [ 100; 300; 1000 ]

let run_large () =
  Config.section
    "Large-n scaling: full vs incremental (BENCH_ga.json)";
  let cells = ref [] in
  let add c =
    print_cell c;
    cells := c :: !cells
  in
  (* The headline scaling numbers: the single-move workload (every candidate
     one edge flip from the current state) is what the incremental engine
     optimizes. *)
  let dyn_speedup = ref [] in
  List.iter
    (fun n ->
      let settings = large_ga n in
      let (_full_r, full_wall, full_eps) =
        measure_ga ~settings ~n ~domains:1 ()
      in
      add
        { bench = "ga_hotpath"; variant = "full"; n; domains = 1;
          evals_per_sec = full_eps; wall_s = full_wall; speedup_vs_seq = 1.0;
          speedup_vs_full = 1.0 };
      let iterations = large_ls_iterations n in
      let (full_r, full_wall, full_eps) =
        measure_ls ~incremental:false ~iterations ~n ()
      in
      add
        { bench = "local_search"; variant = "full"; n; domains = 1;
          evals_per_sec = full_eps; wall_s = full_wall; speedup_vs_seq = 1.0;
          speedup_vs_full = 1.0 };
      let (inc_r, inc_wall, inc_eps) = measure_ls ~iterations ~n () in
      assert (
        Float.equal inc_r.Local_search.best_cost full_r.Local_search.best_cost);
      dyn_speedup := (n, inc_eps /. full_eps) :: !dyn_speedup;
      add
        { bench = "local_search"; variant = "dynamic"; n; domains = 1;
          evals_per_sec = inc_eps; wall_s = inc_wall; speedup_vs_seq = 1.0;
          speedup_vs_full = inc_eps /. full_eps })
    large_ns;
  List.iter
    (fun (n, r) ->
      Printf.printf "local_search n=%d: dynamic %.2fx over full recomputation\n"
        n r)
    (List.rev !dyn_speedup);
  let rows = List.rev_map row !cells in
  let total =
    Config.merge_json_rows ~path:"BENCH_ga.json"
      ~key:[ "bench"; "variant"; "n"; "domains" ]
      rows
  in
  Printf.printf "merged BENCH_ga.json (%d new cells, %d total)\n"
    (List.length rows) total
