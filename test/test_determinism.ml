(* Insertion-order determinism: results that pass through hash tables must
   not leak the table's layout order. Each test builds the same logical
   input under several shuffled construction orders and asserts identical
   outputs — exact equality, no tolerances, because determinism is the
   property under test. *)

module Prng = Cold_prng.Prng
module Graph = Cold_graph.Graph
module Builders = Cold_graph.Builders
module Degree = Cold_metrics.Degree
module Dk = Cold_dk.Dk
module Ba = Cold_baselines.Barabasi_albert
module Fair_share = Cold_sim.Fair_share
module Flow_sim = Cold_sim.Flow_sim
module Tbl = Cold_util.Tbl
module Point = Cold_geom.Point
module Context = Cold_context.Context
module Network = Cold_net.Network

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* --- Cold_util.Tbl ------------------------------------------------------------ *)

let test_tbl_sorted_bindings () =
  (* 40 distinct keys scattered over [0, 101): whatever order they are
     inserted in, the sorted view is the same. *)
  let bindings = List.init 40 (fun i -> ((i * 37) mod 101, i)) in
  let expected = List.sort (fun (a, _) (b, _) -> Int.compare a b) bindings in
  let rng = Prng.create 42 in
  for _ = 1 to 10 do
    let tbl = Hashtbl.create 7 in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) (shuffle rng bindings);
    Alcotest.(check (list (pair int int)))
      "sorted view ignores insertion order" expected
      (Tbl.sorted_bindings ~cmp:Int.compare tbl);
    Alcotest.(check (list int))
      "sorted keys agree" (List.map fst expected)
      (Tbl.sorted_keys ~cmp:Int.compare tbl)
  done

let test_tbl_duplicate_keys () =
  (* Hashtbl.add stacks bindings; the sorted view must present the most
     recent one first (matching Hashtbl.find) under the stable sort. *)
  let tbl = Hashtbl.create 4 in
  Hashtbl.add tbl 1 "old";
  Hashtbl.add tbl 2 "only";
  Hashtbl.add tbl 1 "new";
  Alcotest.(check (list (pair int string)))
    "most recent binding first"
    [ (1, "new"); (1, "old"); (2, "only") ]
    (Tbl.sorted_bindings ~cmp:Int.compare tbl)

let test_tbl_fold_iter_agree () =
  let tbl = Hashtbl.create 4 in
  List.iter (fun k -> Hashtbl.replace tbl k (k * k)) [ 5; 1; 9; 3 ];
  let via_fold =
    List.rev (Tbl.fold_sorted ~cmp:Int.compare (fun k v acc -> (k, v) :: acc) tbl [])
  in
  let via_iter = ref [] in
  Tbl.iter_sorted ~cmp:Int.compare (fun k v -> via_iter := (k, v) :: !via_iter) tbl;
  Alcotest.(check (list (pair int int)))
    "fold and iter visit the same sequence" via_fold (List.rev !via_iter);
  Alcotest.(check (list (pair int int)))
    "ascending key order"
    [ (1, 1); (3, 9); (5, 25); (9, 81) ]
    via_fold

(* --- degree / dK metrics ------------------------------------------------------- *)

(* A wheel: hub 0 joined to a rim cycle 1..n-1. Degree-heterogeneous enough
   to populate every dK table with multiple entries. *)
let wheel_edges n =
  List.init (n - 1) (fun i -> (0, i + 1))
  @ List.init (n - 1) (fun i -> (1 + i, 1 + ((i + 1) mod (n - 1))))

let rec ascending cmp = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> cmp a b < 0 && ascending cmp rest

let test_degree_distribution_order () =
  let n = 12 in
  let reference = Degree.distribution (Graph.of_edges n (wheel_edges n)) in
  Alcotest.(check bool)
    "distribution keys strictly ascending" true
    (ascending (fun (a, _) (b, _) -> Int.compare a b) reference);
  let rng = Prng.create 7 in
  for _ = 1 to 8 do
    let g = Graph.of_edges n (shuffle rng (wheel_edges n)) in
    Alcotest.(check (list (pair int int)))
      "distribution ignores edge insertion order" reference
      (Degree.distribution g)
  done

let test_dk_order () =
  let n = 12 in
  let g0 = Graph.of_edges n (wheel_edges n) in
  let ref_one = Dk.one_k g0 in
  let ref_two = Dk.two_k g0 in
  let ref_three = Dk.three_k g0 in
  Alcotest.(check bool)
    "1K ascending" true
    (ascending (fun (a, _) (b, _) -> Int.compare a b) ref_one);
  Alcotest.(check bool)
    "2K has several entries" true
    (List.length ref_two >= 2);
  Alcotest.(check bool)
    "3K counts wedges and triangles" true
    (ref_three.Dk.wedges <> [] && ref_three.Dk.triangles <> []);
  let rng = Prng.create 11 in
  for _ = 1 to 8 do
    let g = Graph.of_edges n (shuffle rng (wheel_edges n)) in
    Alcotest.(check bool) "1K stable" true (Dk.equal_one_k ref_one (Dk.one_k g));
    Alcotest.(check bool) "2K stable" true (Dk.equal_two_k ref_two (Dk.two_k g));
    Alcotest.(check bool)
      "3K stable" true
      (Dk.equal_three_k ref_three (Dk.three_k g))
  done

(* --- Barabási–Albert baseline --------------------------------------------------- *)

let test_ba_reproducible () =
  (* The generator draws targets from a hash-table-backed chosen set; after
     the sorted-iteration fix, a seed fully determines the wiring. *)
  let gen seed = Ba.generate ~n:60 ~m:3 (Prng.create seed) in
  Alcotest.(check bool) "same seed, same graph" true (Graph.equal (gen 5) (gen 5));
  Alcotest.(check bool)
    "same fingerprint" true
    (Int64.equal (Graph.fingerprint (gen 5)) (Graph.fingerprint (gen 5)));
  Alcotest.(check bool)
    "different seeds differ" true
    (not (Graph.equal (gen 5) (gen 6)))

(* --- fair share ----------------------------------------------------------------- *)

let test_fair_share_flow_order () =
  (* Max-min rates are a property of the flow SET; presenting the flows in a
     different order must not move a single bit of any rate. *)
  let capacity (u, v) = float_of_int (3 + ((u + v) mod 5)) in
  let flows =
    List.init 9 (fun i ->
        let lo = i mod 4 and len = 1 + (i mod 3) in
        { Fair_share.id = i; links = List.init len (fun k -> (lo + k, lo + k + 1)) })
  in
  let by_id rates = List.sort (fun (a, _) (b, _) -> Int.compare a b) rates in
  let reference = by_id (Fair_share.allocate ~capacity flows) in
  let rng = Prng.create 13 in
  for _ = 1 to 10 do
    let rates = by_id (Fair_share.allocate ~capacity (shuffle rng flows)) in
    Alcotest.(check bool)
      "rates identical under flow-list shuffles" true
      (List.for_all2
         (fun (i1, r1) (i2, r2) -> i1 = i2 && Float.equal r1 r2)
         reference rates)
  done

(* --- flow simulation ------------------------------------------------------------ *)

let test_flow_sim_bitwise_deterministic () =
  let points =
    [| Point.make 0.0 0.0; Point.make 1.0 0.0; Point.make 2.0 0.0;
       Point.make 3.0 0.0 |]
  in
  let ctx = Context.of_points_and_populations points [| 5.0; 5.0; 5.0; 5.0 |] in
  let net = Network.build ctx (Builders.path 4) in
  let run () =
    Flow_sim.run
      { Flow_sim.default_config with Flow_sim.flow_limit = 250; warmup = 25 }
      net (Prng.create 21)
  in
  let a = run () and b = run () in
  (* Every field bit-identical: completion ties and reallocation order no
     longer depend on the active-table layout. *)
  Alcotest.(check int) "completed" a.Flow_sim.completed b.Flow_sim.completed;
  Alcotest.(check int) "peak" a.Flow_sim.peak_active b.Flow_sim.peak_active;
  Alcotest.(check bool) "mean fct" true (Float.equal a.Flow_sim.mean_fct b.Flow_sim.mean_fct);
  Alcotest.(check bool) "p95 fct" true (Float.equal a.Flow_sim.p95_fct b.Flow_sim.p95_fct);
  Alcotest.(check bool)
    "throughput" true
    (Float.equal a.Flow_sim.mean_throughput b.Flow_sim.mean_throughput);
  Alcotest.(check bool) "sim time" true (Float.equal a.Flow_sim.sim_time b.Flow_sim.sim_time)

(* --- incremental evaluation across domains ------------------------------------ *)

let test_incremental_across_domains () =
  (* Clone-and-retarget evaluation must be a pure function of the topology:
     the same variants costed through clones of one shared parent state give
     bitwise-identical floats at every domain count (each domain reuses its
     own DLS scratch), all equal to the stateless oracle. *)
  let module Cost = Cold.Cost in
  let module Incremental = Cold_net.Incremental in
  let module Par = Cold_par.Par in
  let ctx = Context.generate (Context.default_spec ~n:10) (Prng.create 31) in
  let params = Cost.params ~k2:2e-4 () in
  let base =
    Cold_graph.Mst.mst_graph ~n:10 ~weight:(fun u v -> Context.distance ctx u v)
  in
  let rng = Prng.create 32 in
  let variants =
    Array.init 24 (fun _ ->
        let g = Graph.copy base in
        for _ = 1 to 3 do
          let u = Prng.int rng 10 and v = Prng.int rng 10 in
          if u <> v then
            if Graph.mem_edge g u v then Graph.remove_edge g u v
            else Graph.add_edge g u v
        done;
        g)
  in
  let parent = Cost.state ctx base in
  ignore (Cost.evaluate_state params ctx parent);
  let costs_at domains =
    Par.with_pool ~domains (fun pool ->
        Par.map_array pool
          (fun g ->
            let st = Incremental.clone parent in
            ignore (Incremental.retarget st g);
            Cost.evaluate_state params ctx st)
          variants)
  in
  let oracle = Array.map (fun g -> Cost.evaluate params ctx g) variants in
  List.iter
    (fun domains ->
      let got = costs_at domains in
      Alcotest.(check bool)
        (Printf.sprintf "bitwise equal to oracle @ %d domains" domains)
        true
        (Array.for_all2
           (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
           got oracle))
    [ 1; 2; 4; 8 ]

let () =
  Alcotest.run "cold_determinism"
    [
      ( "tbl",
        [
          Alcotest.test_case "sorted bindings" `Quick test_tbl_sorted_bindings;
          Alcotest.test_case "duplicate keys" `Quick test_tbl_duplicate_keys;
          Alcotest.test_case "fold and iter agree" `Quick test_tbl_fold_iter_agree;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "degree distribution" `Quick
            test_degree_distribution_order;
          Alcotest.test_case "dk distributions" `Quick test_dk_order;
        ] );
      ("baselines", [ Alcotest.test_case "ba reproducible" `Quick test_ba_reproducible ]);
      ( "sim",
        [
          Alcotest.test_case "fair share flow order" `Quick
            test_fair_share_flow_order;
          Alcotest.test_case "flow sim bitwise" `Quick
            test_flow_sim_bitwise_deterministic;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "clone/retarget across domains" `Quick
            test_incremental_across_domains;
        ] );
    ]
