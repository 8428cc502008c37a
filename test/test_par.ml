(* Tests for the domain pool (lib/par) and the determinism contract of the
   parallel evaluation paths: Ga / Ensemble / Brute_force must be
   bit-identical at every domain count, and the fitness memo must never
   change results. *)

module Par = Cold_par.Par
module Graph = Cold_graph.Graph
module Prng = Cold_prng.Prng
module Context = Cold_context.Context
module Cost = Cold.Cost
module Ga = Cold.Ga

let domain_counts = [ 1; 2; 8 ]

(* --- pool semantics ----------------------------------------------------------- *)

let test_resolve () =
  Alcotest.(check int) "default is sequential" 1 (Par.resolve ());
  Alcotest.(check int) "1 is sequential" 1 (Par.resolve ~domains:1 ());
  Alcotest.(check int) "k passes through" 5 (Par.resolve ~domains:5 ());
  Alcotest.(check bool) "0 autodetects >= 1" true (Par.resolve ~domains:0 () >= 1);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Par.resolve: domains must be >= 0") (fun () ->
      ignore (Par.resolve ~domains:(-1) ()))

let test_map_matches_sequential () =
  let xs = List.init 103 (fun i -> i) in
  let f x = (x * x) - (3 * x) in
  let expected = List.map f xs in
  List.iter
    (fun domains ->
      Par.with_pool ~domains (fun pool ->
          Alcotest.(check (list int))
            (Printf.sprintf "map @ %d domains" domains)
            expected (Par.map pool f xs);
          Alcotest.(check (array int))
            (Printf.sprintf "map_array @ %d domains" domains)
            (Array.of_list expected)
            (Par.map_array pool f (Array.of_list xs))))
    domain_counts

let test_empty_and_tiny_inputs () =
  List.iter
    (fun domains ->
      Par.with_pool ~domains (fun pool ->
          Alcotest.(check (array int)) "empty" [||] (Par.map_array pool succ [||]);
          Alcotest.(check (array int)) "singleton" [| 8 |]
            (Par.map_array pool succ [| 7 |])))
    domain_counts

let test_pool_reuse () =
  (* One pool, many maps: workers must survive across calls. *)
  Par.with_pool ~domains:4 (fun pool ->
      for round = 1 to 5 do
        let n = round * 17 in
        let got = Par.map_array pool (fun i -> i + round) (Array.init n Fun.id) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.init n (fun i -> i + round))
          got
      done)

exception Boom of int

let test_exception_propagation () =
  (* The smallest failing index wins, at every domain count — same exception
     a sequential left-to-right run would report first. *)
  List.iter
    (fun domains ->
      Par.with_pool ~domains (fun pool ->
          Alcotest.check_raises
            (Printf.sprintf "min index raises @ %d domains" domains)
            (Boom 3)
            (fun () ->
              ignore
                (Par.map_array pool
                   (fun i -> if i >= 3 && i mod 2 = 1 then raise (Boom i) else i)
                   (Array.init 64 Fun.id)));
          (* The pool is still usable after a raising map. *)
          Alcotest.(check (array int)) "pool survives" [| 0; 1; 2 |]
            (Par.map_array pool Fun.id [| 0; 1; 2 |])))
    domain_counts

let test_shutdown_idempotent () =
  let pool = Par.create ~domains:3 in
  Alcotest.(check int) "parallelism" 3 (Par.parallelism pool);
  Par.shutdown pool;
  Par.shutdown pool;
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Par.map_array: pool is shut down") (fun () ->
      ignore (Par.map_array pool Fun.id [| 1 |]))

(* --- fitness cache ------------------------------------------------------------ *)

let test_fitness_cache () =
  let module Fc = Cold.Fitness_cache in
  let cache = Fc.create ~slots:64 in
  let calls = ref 0 in
  let g = Graph.create 5 in
  Graph.add_edge g 0 1;
  let eval graph =
    Fc.find_or_compute cache graph (fun () ->
        incr calls;
        float_of_int (Graph.edge_count graph) *. 1.5)
  in
  let a = eval g in
  let b = eval (Graph.copy g) in
  Alcotest.(check bool) "hit returns exact float" true (Float.equal a b);
  Alcotest.(check int) "objective ran once" 1 !calls;
  Alcotest.(check int) "one hit" 1 (Fc.hits cache);
  Alcotest.(check int) "one miss" 1 (Fc.misses cache);
  Alcotest.(check int) "one occupied slot" 1 (Fc.entries cache);
  Alcotest.(check bool) "fill is entries/capacity" true
    (Float.equal (Fc.fill cache) (1.0 /. 64.0));
  (* A different graph in the same slot evicts, never corrupts. *)
  Graph.add_edge g 2 3;
  let c = eval g in
  Alcotest.(check bool) "distinct graph recomputed" true
    (Float.equal c (float_of_int (Graph.edge_count g) *. 1.5));
  Alcotest.(check int) "second miss" 2 (Fc.misses cache);
  (* slots = 0 disables caching but keeps counting misses. *)
  let off = Fc.create ~slots:0 in
  let calls0 = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Fc.find_or_compute off g (fun () ->
           incr calls0;
           0.0))
  done;
  Alcotest.(check int) "disabled cache always computes" 3 !calls0;
  Alcotest.(check int) "disabled cache no hits" 0 (Fc.hits off);
  Alcotest.(check int) "disabled cache stores nothing" 0 (Fc.entries off);
  Alcotest.(check bool) "zero-slot fill is 0" true
    (Float.equal (Fc.fill off) 0.0)

let test_fitness_cache_collision () =
  let module Fc = Cold.Fitness_cache in
  (* slots = 1 forces every fingerprint into the same slot: a guaranteed
     collision between non-equal graphs. The structural check must reject
     the resident entry and recompute — a collision may cost a miss but can
     never return the wrong cost. *)
  let cache = Fc.create ~slots:1 in
  let g1 = Graph.create 5 in
  Graph.add_edge g1 0 1;
  let g2 = Graph.create 5 in
  Graph.add_edge g2 2 3;
  Graph.add_edge g2 3 4;
  Alcotest.(check bool) "graphs differ" false (Graph.equal g1 g2);
  let cost g = float_of_int (Graph.edge_count g) *. 2.5 in
  let eval g = Fc.find_or_compute cache g (fun () -> cost g) in
  Alcotest.(check bool) "g1 computed" true (Float.equal (eval g1) (cost g1));
  Alcotest.(check bool) "g2 correct despite shared slot" true
    (Float.equal (eval g2) (cost g2));
  Alcotest.(check int) "both were misses" 2 (Fc.misses cache);
  Alcotest.(check int) "no false hit" 0 (Fc.hits cache);
  (* g2 evicted g1, so g1 again is a third miss — with the right value. *)
  Alcotest.(check bool) "evicted g1 recomputed" true
    (Float.equal (eval g1) (cost g1));
  Alcotest.(check int) "eviction costs a miss, not a wrong value" 3
    (Fc.misses cache);
  (* Eviction replaces in place: occupancy never exceeds capacity. *)
  Alcotest.(check int) "entries stable under eviction" 1 (Fc.entries cache);
  Alcotest.(check bool) "full single-slot cache" true
    (Float.equal (Fc.fill cache) 1.0);
  (* Same property at a non-degenerate capacity: search single-edge graphs
     for a pair whose fingerprints land in the same direct-mapped slot. *)
  let capacity = 8 in
  let slot g =
    Int64.to_int
      (Int64.rem
         (Int64.logand (Graph.fingerprint g) Int64.max_int)
         (Int64.of_int capacity))
  in
  let mk i j =
    let g = Graph.create 6 in
    Graph.add_edge g i j;
    g
  in
  let base = mk 0 1 in
  let siblings = ref [] in
  for i = 0 to 5 do
    for j = i + 1 to 5 do
      if not (i = 0 && j = 1) then siblings := mk i j :: !siblings
    done
  done;
  match List.find_opt (fun g -> slot g = slot base) !siblings with
  | None -> () (* no same-slot sibling among these fingerprints; the
                  slots = 1 case above already pins the property *)
  | Some other ->
    let c = Fc.create ~slots:capacity in
    let e g = Fc.find_or_compute c g (fun () -> cost g) in
    Alcotest.(check bool) "base cost" true (Float.equal (e base) (cost base));
    Alcotest.(check bool) "collider cost correct" true
      (Float.equal (e other) (cost other));
    Alcotest.(check int) "collision never reads as a hit" 0 (Fc.hits c)

(* --- GA determinism across domain counts -------------------------------------- *)

let small_settings =
  {
    Ga.default_settings with
    Ga.population_size = 20;
    generations = 12;
    num_saved = 4;
    num_crossover = 10;
    num_mutation = 6;
  }

let ga_run ?cache_slots ~domains () =
  let ctx = Context.generate (Context.default_spec ~n:10) (Prng.create 11) in
  Ga.run ?cache_slots ~domains small_settings
    (Cost.params ~k2:2e-4 ()) ctx (Prng.create 12)

let check_same_result label (a : Ga.result) (b : Ga.result) =
  Alcotest.(check bool)
    (label ^ ": best graph") true
    (Graph.equal a.Ga.best b.Ga.best);
  Alcotest.(check bool)
    (label ^ ": best cost bit-identical") true
    (Float.equal a.Ga.best_cost b.Ga.best_cost);
  Alcotest.(check bool)
    (label ^ ": history bit-identical") true
    (Array.for_all2 Float.equal a.Ga.history b.Ga.history);
  Alcotest.(check int) (label ^ ": evaluations") a.Ga.evaluations b.Ga.evaluations;
  Alcotest.(check bool)
    (label ^ ": final population") true
    (Array.for_all2
       (fun (g1, c1) (g2, c2) -> Graph.equal g1 g2 && Float.equal c1 c2)
       a.Ga.final_population b.Ga.final_population)

let test_ga_domains_deterministic () =
  let seq = ga_run ~domains:1 () in
  List.iter
    (fun domains ->
      check_same_result
        (Printf.sprintf "%d domains" domains)
        seq
        (ga_run ~domains ()))
    [ 2; 4; 8 ]

let test_ga_cache_neutral () =
  let off = ga_run ~domains:1 ~cache_slots:0 () in
  let on_ = ga_run ~domains:1 () in
  check_same_result "cache on vs off" off on_;
  Alcotest.(check int) "cache off has no hits" 0 off.Ga.cache_hits;
  Alcotest.(check int) "hits + misses = evaluations" on_.Ga.evaluations
    (on_.Ga.cache_hits + on_.Ga.cache_misses)

(* --- ensemble / brute force across domain counts ------------------------------- *)

let test_ensemble_domains_deterministic () =
  let cfg =
    {
      (Cold.Synthesis.default_config ()) with
      Cold.Synthesis.ga = small_settings;
    }
  in
  let spec = Context.default_spec ~n:8 in
  let a = Cold.Ensemble.generate ~domains:1 cfg spec ~count:3 ~seed:5 in
  let b = Cold.Ensemble.generate ~domains:2 cfg spec ~count:3 ~seed:5 in
  Alcotest.(check int) "same count" (Array.length a.Cold.Ensemble.networks)
    (Array.length b.Cold.Ensemble.networks);
  Array.iteri
    (fun i (na : Cold_net.Network.t) ->
      let nb = b.Cold.Ensemble.networks.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "member %d topology" i)
        true
        (Graph.equal na.Cold_net.Network.graph nb.Cold_net.Network.graph))
    a.Cold.Ensemble.networks

let test_brute_force_domains_deterministic () =
  let ctx = Context.generate (Context.default_spec ~n:5) (Prng.create 21) in
  let params = Cost.params () in
  let (g1, c1) = Cold.Brute_force.optimal ~domains:1 params ctx in
  let (g3, c3) = Cold.Brute_force.optimal ~domains:3 params ctx in
  Alcotest.(check bool) "same optimum graph" true (Graph.equal g1 g3);
  Alcotest.(check bool) "same optimum cost" true (Float.equal c1 c3)

let () =
  Alcotest.run "cold_par"
    [
      ( "pool",
        [
          Alcotest.test_case "resolve" `Quick test_resolve;
          Alcotest.test_case "map matches sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "empty and tiny inputs" `Quick
            test_empty_and_tiny_inputs;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "shutdown" `Quick test_shutdown_idempotent;
        ] );
      ( "cache",
        [
          Alcotest.test_case "fitness cache" `Quick test_fitness_cache;
          Alcotest.test_case "forced collision" `Quick
            test_fitness_cache_collision;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "ga across domain counts" `Slow
            test_ga_domains_deterministic;
          Alcotest.test_case "ga cache neutral" `Slow test_ga_cache_neutral;
          Alcotest.test_case "ensemble across domain counts" `Slow
            test_ensemble_domains_deterministic;
          Alcotest.test_case "brute force across domain counts" `Quick
            test_brute_force_domains_deterministic;
        ] );
    ]
