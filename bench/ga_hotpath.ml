(* GA hot-path throughput: evaluations/sec of the standard GA, every
   candidate priced by Cost.evaluate. The fitness memo is disabled so
   evals/sec stays a routing-throughput number.

   Two sections:
     run        — n = 20 and n = 40, at 1 domain and (when available) the
                  autodetected domain count, asserting bit-identical optima;
     run_large  — n ∈ {100, 300, 1000} at 1 domain, under @bench-large.

   Cells land in BENCH_ga.json keyed by (bench, n, domains): existing rows
   for other keys are preserved, matching rows are replaced — reruns
   accumulate instead of clobbering. Schema per row:
     {bench, n, domains, evals_per_sec, wall_s, speedup_vs_seq}
   where speedup_vs_seq compares against the 1-domain cell of the same n. *)

module Prng = Cold_prng.Prng
module Context = Cold_context.Context
module Par = Cold_par.Par
module Ga = Cold.Ga
module Cost = Cold.Cost

type cell = {
  n : int;
  domains : int;
  evals_per_sec : float;
  wall_s : float;
  speedup_vs_seq : float;
}

let ga_settings =
  match Config.scale with
  | Config.Smoke -> Ga.settings_for ~population:20 ~generations:10
  | Config.Quick -> Ga.settings_for ~population:40 ~generations:25
  | Config.Full -> Ga.default_settings

let ctx_for n =
  Context.generate (Context.default_spec ~n) (Prng.create (Config.master_seed + n))

let params = Cost.params ~k2:1e-4 ()

let measure_ga ~settings ~n ~domains () =
  let ctx = ctx_for n in
  let run () =
    Ga.run ~domains ~cache_slots:0 settings params ctx (Prng.create 42)
  in
  let (result, wall) = Config.time_it run in
  (result, wall, float_of_int result.Ga.evaluations /. wall)

let row c =
  Printf.sprintf
    "{\"bench\": \"ga_hotpath\", \"n\": %d, \"domains\": %d, \
     \"evals_per_sec\": %.1f, \"wall_s\": %.3f, \"speedup_vs_seq\": %.3f}"
    c.n c.domains c.evals_per_sec c.wall_s c.speedup_vs_seq

let print_cell c =
  Printf.printf "ga_hotpath n=%-4d %d domains %9.1f evals/s (%.2fs)  vs seq %.2fx\n%!"
    c.n c.domains c.evals_per_sec c.wall_s c.speedup_vs_seq

let merge cells =
  let rows = List.map row cells in
  let total =
    Config.merge_json_rows ~path:"BENCH_ga.json" ~key:[ "bench"; "n"; "domains" ]
      rows
  in
  Printf.printf "merged BENCH_ga.json (%d new cells, %d total)\n"
    (List.length rows) total

let run () =
  Config.section "GA hot path: evaluations/s by domain count (BENCH_ga.json)";
  let auto = Par.resolve ~domains:0 () in
  Printf.printf "autodetected domains: %d\n" auto;
  let cells = ref [] in
  let add c =
    print_cell c;
    cells := c :: !cells
  in
  (* The GA at 1 domain and (when available) the autodetected count,
     asserting bit-identical optima. *)
  List.iter
    (fun n ->
      let (seq, seq_wall, seq_eps) =
        measure_ga ~settings:ga_settings ~n ~domains:1 ()
      in
      add
        { n; domains = 1; evals_per_sec = seq_eps; wall_s = seq_wall;
          speedup_vs_seq = 1.0 };
      if auto > 1 then begin
        let (par, par_wall, par_eps) =
          measure_ga ~settings:ga_settings ~n ~domains:auto ()
        in
        assert (Float.equal par.Ga.best_cost seq.Ga.best_cost);
        add
          { n; domains = auto; evals_per_sec = par_eps; wall_s = par_wall;
            speedup_vs_seq = par_eps /. seq_eps }
      end)
    [ 20; 40 ];
  merge (List.rev !cells)

(* ------------------------------------------------------------------ *)
(* Large-n scaling cells: n ∈ {100, 300, 1000}. Settings shrink with n so
   the n = 1000 cell stays minutes, not hours: the quantity measured is
   evals/sec of the evaluation engine, which tiny populations sample just
   as well. Runs under the @bench-large alias
   (COLD_BENCH_ONLY=ga_hotpath_large), never under @runtest. *)

let large_ga n =
  let base = Ga.default_settings in
  if n <= 100 then
    { base with
      Ga.population_size = 16; generations = 6; num_saved = 4;
      num_crossover = 6; num_mutation = 6 }
  else if n <= 300 then
    { base with
      Ga.population_size = 8; generations = 3; num_saved = 2;
      num_crossover = 3; num_mutation = 3 }
  else
    { base with
      Ga.population_size = 5; generations = 2; num_saved = 2;
      num_crossover = 1; num_mutation = 2 }

let large_ns =
  (* The n = 1000 cell is the point of the exercise but costs minutes;
     smoke scale (the CI alias) stops at 300. *)
  match Config.scale with
  | Config.Smoke -> [ 100; 300 ]
  | Config.Quick | Config.Full -> [ 100; 300; 1000 ]

let run_large () =
  Config.section "GA hot path at large n (BENCH_ga.json)";
  let cells =
    List.map
      (fun n ->
        let (_, wall, eps) = measure_ga ~settings:(large_ga n) ~n ~domains:1 () in
        let c =
          { n; domains = 1; evals_per_sec = eps; wall_s = wall;
            speedup_vs_seq = 1.0 }
        in
        print_cell c;
        c)
      large_ns
  in
  merge cells
