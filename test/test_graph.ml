(* Tests for Cold_graph: graph structure, heap, union-find, traversal,
   shortest paths, MST, builders. *)

module Graph = Cold_graph.Graph
module Heap = Cold_graph.Heap
module Union_find = Cold_graph.Union_find
module Traversal = Cold_graph.Traversal
module Shortest_path = Cold_graph.Shortest_path
module Mst = Cold_graph.Mst
module Builders = Cold_graph.Builders
module Prng = Cold_prng.Prng

(* --- Graph ---------------------------------------------------------------- *)

let test_empty () =
  let g = Graph.create 5 in
  Alcotest.(check int) "nodes" 5 (Graph.node_count g);
  Alcotest.(check int) "edges" 0 (Graph.edge_count g);
  for v = 0 to 4 do
    Alcotest.(check int) "degree" 0 (Graph.degree g v)
  done

let test_add_remove () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Alcotest.(check bool) "mem" true (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "mem symmetric" true (Graph.mem_edge g 1 0);
  Alcotest.(check int) "m" 1 (Graph.edge_count g);
  Graph.add_edge g 0 1;
  Alcotest.(check int) "idempotent add" 1 (Graph.edge_count g);
  Graph.add_edge g 1 0;
  Alcotest.(check int) "idempotent reversed" 1 (Graph.edge_count g);
  Graph.remove_edge g 1 0;
  Alcotest.(check bool) "removed" false (Graph.mem_edge g 0 1);
  Alcotest.(check int) "m back to 0" 0 (Graph.edge_count g);
  Graph.remove_edge g 0 1;
  Alcotest.(check int) "idempotent remove" 0 (Graph.edge_count g)

let test_self_loop () =
  let g = Graph.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge g 1 1);
  Alcotest.(check bool) "mem self" false (Graph.mem_edge g 1 1)

let test_out_of_range () =
  let g = Graph.create 3 in
  Alcotest.check_raises "range" (Invalid_argument "Graph.add_edge: vertex out of range")
    (fun () -> Graph.add_edge g 0 3)

let test_degrees_and_leaves () =
  let g = Builders.star 5 in
  Alcotest.(check int) "hub degree" 4 (Graph.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (Graph.degree g 3);
  Alcotest.(check bool) "hub not leaf" false (Graph.is_leaf g 0);
  Alcotest.(check bool) "leaf is leaf" true (Graph.is_leaf g 1);
  Alcotest.(check (list int)) "core nodes" [ 0 ] (Graph.core_nodes g);
  Alcotest.(check int) "core count" 1 (Graph.core_count g)

let test_isolated_is_leaf () =
  let g = Graph.create 2 in
  Alcotest.(check bool) "isolated counts as leaf" true (Graph.is_leaf g 0)

let test_neighbors () =
  let g = Graph.of_edges 5 [ (2, 4); (2, 0); (2, 3) ] in
  Alcotest.(check (list int)) "ascending" [ 0; 3; 4 ] (Graph.neighbors g 2);
  Alcotest.(check (list int)) "single" [ 2 ] (Graph.neighbors g 0)

let test_edges_order () =
  let g = Graph.of_edges 4 [ (2, 3); (0, 1); (0, 2) ] in
  Alcotest.(check (list (pair int int))) "lexicographic"
    [ (0, 1); (0, 2); (2, 3) ] (Graph.edges g)

let test_copy_independence () =
  let g = Graph.of_edges 3 [ (0, 1) ] in
  let h = Graph.copy g in
  Graph.add_edge h 1 2;
  Alcotest.(check int) "original untouched" 1 (Graph.edge_count g);
  Alcotest.(check int) "copy changed" 2 (Graph.edge_count h)

(* Values taken before the fingerprint loop was rewritten: memo slots, and
   with them hit and miss counts, must not move. *)
let test_fingerprint_pins () =
  let random40 () =
    let rng = Prng.create 40 in
    let g = Graph.create 40 in
    for u = 0 to 39 do
      for v = u + 1 to 39 do
        if Prng.float rng < 0.1 then Graph.add_edge g u v
      done
    done;
    g
  in
  List.iter
    (fun (label, g, want) -> Alcotest.(check int64) label want (Graph.fingerprint g))
    [
      ("n = 0", Graph.create 0, 0xaf63bd4c8601b7dfL);
      ("n = 1", Graph.create 1, 0x082f2207b4e88cc4L);
      ("5-node path", Graph.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4) ], 0x3958f0cf24b10d60L);
      ("seeded 40-node random graph", random40 (), 0xf7ac0d1e58cde8f7L);
    ]

let test_recombine () =
  let a = Graph.of_edges 4 [ (0, 1); (0, 2); (2, 3) ] in
  let b = Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  (* Ranks: {0,1}=0 {0,2}=1 {0,3}=2 {1,2}=3 {1,3}=4 {2,3}=5. *)
  let asked = ref [] in
  let pick rank =
    asked := rank :: !asked;
    if rank = 1 then 0 else 1
  in
  let child = Graph.recombine [| a; b |] ~pick in
  Alcotest.(check (list int)) "pick only where parents disagree" [ 1; 3 ] (List.rev !asked);
  Alcotest.(check (list (pair int int)))
    "shared links and picked bits" [ (0, 1); (0, 2); (1, 2); (2, 3) ] (Graph.edges child);
  Alcotest.(check (list int)) "degrees" [ 2; 2; 3; 1 ]
    (Array.to_list (Graph.degree_sequence child));
  Alcotest.(check (pair int int)) "rank index" (2, 3) (Graph.nth_edge child 3);
  Alcotest.(check bool) "one parent is copied" true
    (Graph.equal a (Graph.recombine [| a |] ~pick:(fun _ -> Alcotest.fail "pick")));
  Alcotest.check_raises "size mismatch before any pick"
    (Invalid_argument "Graph.recombine: size mismatch") (fun () ->
      ignore (Graph.recombine [| a; Graph.create 5 |] ~pick:(fun _ -> Alcotest.fail "pick")));
  Alcotest.check_raises "no parents" (Invalid_argument "Graph.recombine: no parents")
    (fun () -> ignore (Graph.recombine [||] ~pick:(fun _ -> 0)))

let test_equal () =
  let a = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  let b = Graph.of_edges 3 [ (1, 2); (0, 1) ] in
  let c = Graph.of_edges 3 [ (0, 1); (0, 2) ] in
  Alcotest.(check bool) "equal" true (Graph.equal a b);
  Alcotest.(check bool) "not equal" false (Graph.equal a c);
  Alcotest.(check bool) "different sizes" false (Graph.equal a (Graph.create 3))

let test_complete () =
  let g = Graph.complete 6 in
  Alcotest.(check int) "edges" 15 (Graph.edge_count g);
  for v = 0 to 5 do
    Alcotest.(check int) "degree" 5 (Graph.degree g v)
  done

let test_remove_all_edges_of () =
  let g = Graph.complete 5 in
  Graph.remove_all_edges_of g 2;
  Alcotest.(check int) "degree zero" 0 (Graph.degree g 2);
  Alcotest.(check int) "edges" 6 (Graph.edge_count g);
  for v = 0 to 4 do
    if v <> 2 then Alcotest.(check int) "others lost one" 3 (Graph.degree g v)
  done

let test_degree_sequence () =
  let g = Builders.path 4 in
  Alcotest.(check (array int)) "path degrees" [| 1; 2; 2; 1 |] (Graph.degree_sequence g)

(* --- Heap ----------------------------------------------------------------- *)

let test_heap_sorted () =
  let h = Heap.create ~capacity:4 in
  List.iter (fun (p, v) -> Heap.push h ~priority:p v)
    [ (5.0, 1); (1.0, 2); (3.0, 3); (0.5, 4); (2.0, 5) ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | Some (p, _) ->
      out := p :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 1e-9))) "ascending priorities"
    [ 0.5; 1.0; 2.0; 3.0; 5.0 ] (List.rev !out)

let test_heap_tie_break () =
  let h = Heap.create ~capacity:2 in
  Heap.push h ~priority:1.0 7;
  Heap.push h ~priority:1.0 3;
  Heap.push h ~priority:1.0 5;
  (match Heap.pop_min h with
  | Some (_, v) -> Alcotest.(check int) "smallest vertex first" 3 v
  | None -> Alcotest.fail "empty");
  Alcotest.(check int) "size" 2 (Heap.size h)

let test_heap_empty () =
  let h = Heap.create ~capacity:1 in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option (pair (float 0.0) int))) "pop none" None (Heap.pop_min h)

(* Random push/pop sequences held to an independent sort: quarter-integer
   priorities give exact ties, a few vertex ids repeat (stale entries), and
   capacity 1 makes the heap grow. Every pop, through [pop_min] or [pop],
   must be the head of the live entries sorted by (priority, vertex). *)
let test_heap_against_sort () =
  let order (p, v) (q, w) =
    match Float.compare p q with 0 -> Int.compare v w | c -> c
  in
  for seed = 1 to 200 do
    let rng = Prng.create seed in
    let h = Heap.create ~capacity:1 in
    let live = ref [] and pops = ref 0 in
    let check_pop () =
      match List.sort order !live with
      | [] -> Alcotest.fail "no live entry"
      | ((_, v) as top) :: rest ->
        live := rest;
        incr pops;
        let label = Printf.sprintf "seed %d pop %d" seed !pops in
        if Prng.bool rng then
          Alcotest.(check (option (pair (float 0.0) int))) label (Some top)
            (Heap.pop_min h)
        else Alcotest.(check int) label v (Heap.pop h)
    in
    for _ = 1 to 300 do
      (match !live with
       | _ :: _ when Prng.int rng 3 = 0 -> check_pop ()
       | _ ->
         let p = float_of_int (Prng.int rng 24) /. 4.0 and v = Prng.int rng 12 in
         Heap.push h ~priority:p v;
         live := (p, v) :: !live);
      Alcotest.(check int) "size" (List.length !live) (Heap.size h)
    done;
    while not (Heap.is_empty h) do
      check_pop ()
    done;
    Alcotest.(check int) (Printf.sprintf "seed %d drained" seed) 0 (List.length !live)
  done

(* --- Union-find ----------------------------------------------------------- *)

let test_union_find () =
  let uf = Union_find.create 5 in
  Alcotest.(check int) "initial sets" 5 (Union_find.count uf);
  Alcotest.(check bool) "union works" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "repeat union" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (Union_find.same uf 0 2);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 3);
  Alcotest.(check int) "sets" 2 (Union_find.count uf);
  Alcotest.(check bool) "transitive" true (Union_find.same uf 1 2)

(* --- Traversal ------------------------------------------------------------ *)

let test_bfs_hops () =
  let g = Builders.path 5 in
  Alcotest.(check (array int)) "path hops" [| 0; 1; 2; 3; 4 |] (Traversal.bfs_hops g 0);
  Alcotest.(check (array int)) "from middle" [| 2; 1; 0; 1; 2 |] (Traversal.bfs_hops g 2)

let test_bfs_unreachable () =
  let g = Graph.of_edges 4 [ (0, 1) ] in
  let hops = Traversal.bfs_hops g 0 in
  Alcotest.(check int) "unreachable is -1" (-1) hops.(2)

let test_connectivity () =
  Alcotest.(check bool) "path connected" true (Traversal.is_connected (Builders.path 5));
  Alcotest.(check bool) "empty edges disconnected" false
    (Traversal.is_connected (Graph.create 2));
  Alcotest.(check bool) "singleton connected" true (Traversal.is_connected (Graph.create 1));
  Alcotest.(check bool) "empty graph connected" true (Traversal.is_connected (Graph.create 0))

let test_components () =
  let g = Graph.of_edges 6 [ (0, 1); (2, 3); (3, 4) ] in
  let (comp, k) = Traversal.connected_components g in
  Alcotest.(check int) "three components" 3 k;
  Alcotest.(check int) "0 and 1 together" comp.(0) comp.(1);
  Alcotest.(check int) "2,3,4 together" comp.(2) comp.(4);
  Alcotest.(check bool) "5 alone" true (comp.(5) <> comp.(0) && comp.(5) <> comp.(2));
  let members = Traversal.component_members (comp, k) in
  Alcotest.(check (list int)) "members sorted" [ 2; 3; 4 ] members.(comp.(2))

(* --- Shortest paths -------------------------------------------------------- *)

let weighted_fixture () =
  (* 0 --1.0-- 1 --1.0-- 2 ; 0 --2.5-- 2 ; 2 --1.0-- 3 *)
  let g = Graph.of_edges 4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  let length u v =
    match (min u v, max u v) with
    | (0, 1) | (1, 2) | (2, 3) -> 1.0
    | (0, 2) -> 2.5
    | _ -> Alcotest.fail "unexpected edge"
  in
  (g, length)

let test_dijkstra () =
  let (g, length) = weighted_fixture () in
  let t = Shortest_path.dijkstra g ~length ~source:0 in
  Alcotest.(check (float 1e-9)) "d(0)" 0.0 t.Shortest_path.dist.(0);
  Alcotest.(check (float 1e-9)) "d(1)" 1.0 t.Shortest_path.dist.(1);
  Alcotest.(check (float 1e-9)) "d(2) via 1" 2.0 t.Shortest_path.dist.(2);
  Alcotest.(check (float 1e-9)) "d(3)" 3.0 t.Shortest_path.dist.(3);
  Alcotest.(check (option (list int))) "path to 3" (Some [ 0; 1; 2; 3 ])
    (Shortest_path.path t 3)

let test_dijkstra_unreachable () =
  let g = Graph.of_edges 3 [ (0, 1) ] in
  let t = Shortest_path.dijkstra g ~length:(fun _ _ -> 1.0) ~source:0 in
  Alcotest.(check bool) "unreachable infinite" true (t.Shortest_path.dist.(2) = infinity);
  Alcotest.(check (option (list int))) "no path" None (Shortest_path.path t 2);
  Alcotest.(check int) "order only reachable" 2 (Array.length t.Shortest_path.order)

let test_dijkstra_settling_order () =
  let (g, length) = weighted_fixture () in
  let t = Shortest_path.dijkstra g ~length ~source:0 in
  (* Settling order must be non-decreasing in distance. *)
  let prev = ref (-1.0) in
  Array.iter
    (fun v ->
      let d = t.Shortest_path.dist.(v) in
      Alcotest.(check bool) "non-decreasing" true (d >= !prev);
      prev := d)
    t.Shortest_path.order

let test_dijkstra_tie_break_deterministic () =
  (* Two equal-length routes 0-1-3 and 0-2-3: predecessor of 3 must be the
     smaller id, 1. *)
  let g = Graph.of_edges 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let t = Shortest_path.dijkstra g ~length:(fun _ _ -> 1.0) ~source:0 in
  Alcotest.(check int) "pred tie-break" 1 t.Shortest_path.pred.(3)

let test_apsp () =
  let g = Builders.cycle 6 in
  let hops = Shortest_path.apsp_hops g in
  Alcotest.(check int) "opposite side" 3 hops.(0).(3);
  Alcotest.(check int) "adjacent" 1 hops.(4).(5);
  let lengths = Shortest_path.apsp_lengths g ~length:(fun _ _ -> 2.0) in
  Alcotest.(check (float 1e-9)) "weighted consistent" 6.0 lengths.(0).(3)

(* --- MST ------------------------------------------------------------------ *)

let test_prim_line () =
  (* Points on a line: MST must be the chain. *)
  let xs = [| 0.0; 1.0; 2.0; 3.5; 4.0 |] in
  let weight i j = Float.abs (xs.(i) -. xs.(j)) in
  let edges = Mst.prim_complete ~n:5 ~weight in
  Alcotest.(check int) "n-1 edges" 4 (List.length edges);
  let expected = [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  Alcotest.(check (list (pair int int))) "chain" expected (List.sort compare edges)

let test_prim_weight_optimal_small () =
  (* Compare Prim's total weight to exhaustive minimum over spanning trees on
     5 random points (by checking against all graphs' spanning subgraph... we
     instead verify against brute force over all 5^3 Prüfer trees). *)
  let rng = Prng.create 77 in
  let pts = Array.init 5 (fun _ -> (Prng.float rng, Prng.float rng)) in
  let weight i j =
    let (xi, yi) = pts.(i) and (xj, yj) = pts.(j) in
    sqrt (((xi -. xj) ** 2.0) +. ((yi -. yj) ** 2.0))
  in
  let prim_total =
    List.fold_left (fun acc (u, v) -> acc +. weight u v) 0.0
      (Mst.prim_complete ~n:5 ~weight)
  in
  (* Enumerate all labelled trees on 5 vertices via Prüfer sequences. *)
  let best = ref infinity in
  for a = 0 to 4 do
    for b = 0 to 4 do
      for c = 0 to 4 do
        (* Decode the Prüfer sequence [a;b;c]. *)
        let seq = [| a; b; c |] in
        let deg = Array.make 5 1 in
        Array.iter (fun v -> deg.(v) <- deg.(v) + 1) seq;
        let total = ref 0.0 in
        let deg = Array.copy deg in
        Array.iter
          (fun v ->
            let leaf = ref (-1) in
            (try
               for u = 0 to 4 do
                 if deg.(u) = 1 then begin
                   leaf := u;
                   raise Exit
                 end
               done
             with Exit -> ());
            total := !total +. weight !leaf v;
            deg.(!leaf) <- 0;
            deg.(v) <- deg.(v) - 1)
          seq;
        let rest = ref [] in
        for u = 4 downto 0 do
          if deg.(u) = 1 then rest := u :: !rest
        done;
        (match !rest with
        | [ x; y ] -> total := !total +. weight x y
        | _ -> Alcotest.fail "bad prufer decode");
        if !total < !best then best := !total
      done
    done
  done;
  Alcotest.(check (float 1e-9)) "Prim is optimal" !best prim_total

let test_spanning_connector () =
  (* Two components on a line; connector must bridge at the closest pair. *)
  let xs = [| 0.0; 1.0; 5.0; 6.0 |] in
  let weight i j = Float.abs (xs.(i) -. xs.(j)) in
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  let added = Mst.spanning_connector g ~weight in
  Alcotest.(check (list (pair int int))) "bridge closest pair" [ (1, 2) ] added;
  Mst.connect g ~weight;
  Alcotest.(check bool) "now connected" true (Traversal.is_connected g)

let test_spanning_connector_noop () =
  let g = Builders.path 4 in
  Alcotest.(check (list (pair int int))) "already connected" []
    (Mst.spanning_connector g ~weight:(fun _ _ -> 1.0))

let test_spanning_connector_singletons () =
  let xs = [| 0.0; 10.0; 11.0 |] in
  let weight i j = Float.abs (xs.(i) -. xs.(j)) in
  let g = Graph.create 3 in
  Mst.connect g ~weight;
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check int) "tree" 2 (Graph.edge_count g);
  (* Must pick 0-1 and 1-2 (total 11), not 0-2 (total 11+... 0-1=10,1-2=1,0-2=11;
     MST = {1-2, 0-1} = 11 < {1-2, 0-2} = 12. *)
  Alcotest.(check bool) "cheapest bridges" true
    (Graph.mem_edge g 1 2 && Graph.mem_edge g 0 1)

(* --- Builders --------------------------------------------------------------- *)

let test_builders_shapes () =
  Alcotest.(check int) "path edges" 4 (Graph.edge_count (Builders.path 5));
  Alcotest.(check int) "cycle edges" 5 (Graph.edge_count (Builders.cycle 5));
  Alcotest.(check int) "star edges" 4 (Graph.edge_count (Builders.star 5));
  Alcotest.(check int) "double star edges" 9 (Graph.edge_count (Builders.double_star 10));
  Alcotest.(check int) "ladder nodes" 8 (Graph.node_count (Builders.ladder 4));
  Alcotest.(check int) "ladder edges" 10 (Graph.edge_count (Builders.ladder 4));
  Alcotest.(check int) "wheel edges" 12 (Graph.edge_count (Builders.wheel 7));
  Alcotest.(check int) "grid nodes" 12 (Graph.node_count (Builders.grid ~rows:3 ~cols:4));
  Alcotest.(check int) "grid edges" 17 (Graph.edge_count (Builders.grid ~rows:3 ~cols:4))

let test_balanced_tree () =
  let t = Builders.balanced_tree ~branching:2 ~depth:3 in
  Alcotest.(check int) "nodes 1+2+4+8" 15 (Graph.node_count t);
  Alcotest.(check int) "edges" 14 (Graph.edge_count t);
  Alcotest.(check bool) "connected" true (Traversal.is_connected t);
  Alcotest.(check int) "root degree" 2 (Graph.degree t 0)

let test_random_tree () =
  let rng = Prng.create 13 in
  for n = 1 to 20 do
    let t = Builders.random_tree n rng in
    Alcotest.(check int) "n nodes" n (Graph.node_count t);
    Alcotest.(check int) "n-1 edges" (max 0 (n - 1)) (Graph.edge_count t);
    Alcotest.(check bool) "connected" true (Traversal.is_connected t)
  done

let test_cycle_invalid () =
  Alcotest.check_raises "cycle too small"
    (Invalid_argument "Builders.cycle: need at least 3 vertices") (fun () ->
      ignore (Builders.cycle 2))

(* --- CSR adjacency views --------------------------------------------------- *)

let random_graph rng n ~p =
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.float rng < p then Graph.add_edge g u v
    done
  done;
  g

let neighbors_via iter v =
  let acc = ref [] in
  iter v (fun u -> acc := u :: !acc);
  List.rev !acc

(* A CSR snapshot must enumerate, per vertex, exactly the neighbour sequence
   of the dense row scan — same ids, same ascending order — across sparse,
   dense, empty and complete graphs. Everything downstream (Dijkstra
   relaxation order, BFS visit order, ECMP predecessor lists) rides on this. *)
let test_csr_matches_dense () =
  let rng = Prng.create 2024 in
  List.iter
    (fun n ->
      List.iter
        (fun p ->
          let g = random_graph rng n ~p in
          let c = Graph.Csr.of_graph g in
          Alcotest.(check int) "node count" n (Graph.Csr.node_count c);
          for v = 0 to n - 1 do
            Alcotest.(check int)
              (Printf.sprintf "degree v=%d" v)
              (Graph.degree g v) (Graph.Csr.degree c v);
            Alcotest.(check (list int))
              (Printf.sprintf "n=%d p=%.2f v=%d" n p v)
              (neighbors_via (Graph.iter_neighbors g) v)
              (neighbors_via (Graph.Csr.iter_neighbors c) v)
          done)
        [ 0.0; 0.1; 0.5; 1.0 ])
    [ 1; 2; 9; 40 ]

(* Reuse must rewrite in place without leaking the previous topology: a
   buffer sized for a bigger graph serves a smaller one, with iteration
   bounded by offsets, never by the targets array length. *)
let test_csr_reuse () =
  let rng = Prng.create 7 in
  let big = random_graph rng 30 ~p:0.6 in
  let buf = Graph.Csr.of_graph big in
  let small = random_graph rng 30 ~p:0.05 in
  let c = Graph.Csr.of_graph ~reuse:buf small in
  for v = 0 to 29 do
    Alcotest.(check (list int))
      (Printf.sprintf "reused v=%d" v)
      (neighbors_via (Graph.iter_neighbors small) v)
      (neighbors_via (Graph.Csr.iter_neighbors c) v)
  done

(* Dijkstra over a CSR view must be bit-identical to the dense path: same
   dist floats, same predecessors (tie-breaks included), same settling
   order. Randomized sweep over sparse and dense graphs. *)
let test_dijkstra_csr_bitwise () =
  let rng = Prng.create 99 in
  for trial = 1 to 20 do
    let n = 5 + Prng.int rng 30 in
    let p = if trial mod 2 = 0 then 0.15 else 0.7 in
    let g = random_graph rng n ~p in
    let length u v = 0.5 +. float_of_int ((u * 7) + (v * 3) mod 11) in
    let csr = Graph.Csr.of_graph g in
    let adj = Graph.adjacency_arrays g in
    for source = 0 to min (n - 1) 6 do
      let a = Shortest_path.dijkstra g ~length ~source in
      let b = Shortest_path.dijkstra ~csr g ~length ~source in
      let c = Shortest_path.dijkstra ~adj g ~length ~source in
      let check_eq label (x : Shortest_path.tree) (y : Shortest_path.tree) =
        Alcotest.(check bool)
          (Printf.sprintf "%s dist trial=%d s=%d" label trial source)
          true
          (Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
             x.Shortest_path.dist y.Shortest_path.dist);
        Alcotest.(check (list int))
          (Printf.sprintf "%s pred trial=%d s=%d" label trial source)
          (Array.to_list x.Shortest_path.pred)
          (Array.to_list y.Shortest_path.pred);
        Alcotest.(check (list int))
          (Printf.sprintf "%s order trial=%d s=%d" label trial source)
          (Array.to_list x.Shortest_path.order)
          (Array.to_list y.Shortest_path.order)
      in
      check_eq "csr=dense" a b;
      check_eq "adj=dense" a c
    done
  done

let test_bfs_csr_identical () =
  let rng = Prng.create 55 in
  for _ = 1 to 15 do
    let n = 3 + Prng.int rng 25 in
    let g = random_graph rng n ~p:0.2 in
    let csr = Graph.Csr.of_graph g in
    for s = 0 to n - 1 do
      Alcotest.(check (list int))
        (Printf.sprintf "bfs s=%d" s)
        (Array.to_list (Traversal.bfs_hops g s))
        (Array.to_list (Traversal.bfs_hops ~csr g s))
    done
  done

(* --- rank-indexed absent pairs --------------------------------------------- *)

(* nth_absent_pair k must walk the absent pairs in the same lexicographic
   (u < v) order as enumerating all pairs and filtering out edges. *)
let test_nth_absent_pair_enumeration () =
  let rng = Prng.create 31 in
  List.iter
    (fun (n, p) ->
      let g = random_graph rng n ~p in
      let absent = ref [] in
      for u = n - 1 downto 0 do
        for v = n - 1 downto u + 1 do
          if not (Graph.mem_edge g u v) then absent := (u, v) :: !absent
        done
      done;
      let absent = Array.of_list !absent in
      Alcotest.(check int)
        "absent count"
        (Array.length absent)
        ((n * (n - 1) / 2) - Graph.edge_count g);
      Array.iteri
        (fun k expect ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "n=%d k=%d" n k)
            expect (Graph.nth_absent_pair g k))
        absent)
    [ (2, 0.0); (6, 0.5); (10, 0.9); (12, 0.2); (9, 1.0) ]

let test_copy_into () =
  let rng = Prng.create 13 in
  let src = random_graph rng 12 ~p:0.4 in
  let dst = Graph.create 12 in
  Graph.add_edge dst 0 1;
  Graph.copy_into ~src ~dst;
  Alcotest.(check bool) "equal after copy_into" true (Graph.equal src dst);
  Graph.add_edge dst 2 3;
  Alcotest.(check bool) "independent" false (Graph.mem_edge src 2 3);
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Graph.copy_into: size mismatch") (fun () ->
      Graph.copy_into ~src ~dst:(Graph.create 5))

(* --- bit rows against a model ------------------------------------------------ *)

(* A row is ⌈n/8⌉ bytes, so these sizes put the last column at every
   awkward place in a byte: alone in a byte of its own (9, 17, 65), last
   of a full byte (8, 16, 64), and short of it (2, 7, 15, 63). *)
let model_sizes = [ 0; 1; 2; 7; 8; 9; 15; 16; 17; 63; 64; 65 ]

(* FNV-1a over the model's n² bytes (1 for a link), seeded with n: the
   fingerprint's definition, computed without the bit rows. *)
let model_fingerprint model =
  let prime = 0x100000001B3L in
  let h =
    ref (Int64.mul (Int64.logxor 0xCBF29CE484222325L (Int64.of_int (Array.length model))) prime)
  in
  Array.iter
    (Array.iter (fun link -> h := Int64.mul (Int64.logxor !h (if link then 1L else 0L)) prime))
    model;
  !h

(* The pairs u < v whose model bit is [present], lexicographically. *)
let model_pairs model ~present =
  let n = Array.length model in
  let acc = ref [] in
  for u = n - 1 downto 0 do
    for v = n - 1 downto u + 1 do
      if model.(u).(v) = present then acc := (u, v) :: !acc
    done
  done;
  !acc

(* Every query against the model. A graph built afresh from the model's
   links has clear padding bits and a clear diagonal, so [equal] and
   [Key.matches] fail on any stray bit; a stray padding bit also shows up
   as a neighbour past n in the row scans. *)
let check_model label g model =
  let n = Array.length model in
  let fail fmt = Printf.ksprintf (fun s -> Alcotest.failf "%s: %s" label s) fmt in
  if Graph.node_count g <> n then fail "node count %d" (Graph.node_count g);
  let links = model_pairs model ~present:true in
  if Graph.edge_count g <> List.length links then fail "edge_count %d" (Graph.edge_count g);
  let fresh = Graph.of_edges n (List.rev links) in
  if not (Graph.equal g fresh) then fail "not equal to the same links built afresh";
  if not (Graph.Key.matches (Graph.Key.of_graph fresh) g) then fail "key does not match";
  let rows = Array.init n (fun u -> List.filter (fun v -> model.(u).(v)) (List.init n Fun.id)) in
  Array.iteri
    (fun u row ->
      for v = 0 to n - 1 do
        if Graph.mem_edge g u v <> model.(u).(v) then fail "mem_edge %d %d" u v
      done;
      if Graph.degree g u <> List.length row then fail "degree %d" u;
      if Graph.neighbors g u <> row then fail "neighbours of %d" u)
    rows;
  (* Only now: a stray bit would make the view overrun its targets. *)
  let csr = Graph.Csr.of_graph g in
  Array.iteri
    (fun u row -> if neighbors_via (Graph.Csr.iter_neighbors csr) u <> row then fail "csr row %d" u)
    rows;
  if Graph.edges g <> links then fail "edges";
  List.iteri
    (fun k p -> if Graph.nth_edge g k <> p then fail "nth_edge %d" k)
    links;
  List.iteri
    (fun k p -> if Graph.nth_absent_pair g k <> p then fail "nth_absent_pair %d" k)
    (model_pairs model ~present:false);
  if not (Int64.equal (Graph.fingerprint g) (model_fingerprint model)) then
    fail "fingerprint";
  (* Toggle a pair in the last column: equal everywhere else. *)
  List.iter
    (fun u ->
      let h = Graph.copy fresh in
      if model.(u).(n - 1) then Graph.remove_edge h u (n - 1) else Graph.add_edge h u (n - 1);
      if Graph.equal g h then fail "equal despite pair {%d,%d}" u (n - 1);
      if Graph.Key.matches (Graph.Key.of_graph h) g then fail "key matches despite {%d,%d}" u (n - 1))
    (if n >= 2 then List.sort_uniq Int.compare [ 0; n - 2 ] else [])

let model_recombine parents ~pick =
  let n = Array.length parents.(0) in
  let child = Array.make_matrix n n false in
  let rank = ref 0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let b = parents.(0).(u).(v) in
      let b =
        if Array.for_all (fun p -> p.(u).(v) = b) parents then b
        else parents.(pick !rank).(u).(v)
      in
      child.(u).(v) <- b;
      child.(v).(u) <- b;
      incr rank
    done
  done;
  child

(* Random add/remove/copy_into/remove_all_edges_of/recombine sequences on a
   pool of three graphs (empty, complete, and one grown by row fills),
   each held to a bool matrix after every step. *)
let test_bit_rows_model () =
  let rng = Prng.create 8 in
  List.iter
    (fun n ->
      let pool = [| Graph.create n; Graph.complete n; Graph.create n |] in
      let models =
        [|
          Array.make_matrix n n false;
          Array.init n (fun u -> Array.init n (fun v -> u <> v));
          Array.make_matrix n n false;
        |]
      in
      let set i u v b =
        models.(i).(u).(v) <- b;
        models.(i).(v).(u) <- b
      in
      for step = 1 to 40 do
        let i = Prng.int rng 3 in
        let g = pool.(i) in
        (match Prng.int rng 10 with
        | (0 | 1 | 2) when n >= 2 ->
          let u = Prng.int rng n and v = Prng.int rng (n - 1) in
          let v = if v >= u then v + 1 else v in
          Graph.add_edge g u v;
          set i u v true
        | (3 | 4) when n >= 2 -> (
          match model_pairs models.(i) ~present:true with
          | [] -> ()
          | links ->
            let (u, v) = List.nth links (Prng.int rng (List.length links)) in
            Graph.remove_edge g v u;
            set i u v false)
        | 5 when n >= 2 ->
          (* A whole row, so every byte of it fills. *)
          let u = Prng.int rng n in
          for v = 0 to n - 1 do
            if v <> u then begin
              Graph.add_edge g u v;
              set i u v true
            end
          done
        | 6 ->
          let j = (i + 1 + Prng.int rng 2) mod 3 in
          Graph.copy_into ~src:pool.(j) ~dst:g;
          models.(i) <- Array.map Array.copy models.(j)
        | 7 when n >= 1 ->
          let v = Prng.int rng n in
          Graph.remove_all_edges_of g v;
          for u = 0 to n - 1 do
            if u <> v then set i u v false
          done
        | _ ->
          let k = 1 + Prng.int rng 3 in
          let ids = Array.init k (fun j -> (i + j) mod 3) in
          let salt = Prng.int rng 1000 in
          let pick rank = (rank + salt) mod k in
          let asked = ref [] in
          let child =
            Graph.recombine
              (Array.map (fun j -> pool.(j)) ids)
              ~pick:(fun rank ->
                asked := rank :: !asked;
                pick rank)
          in
          let model_asked = ref [] in
          let model_child =
            model_recombine
              (Array.map (fun j -> models.(j)) ids)
              ~pick:(fun rank ->
                model_asked := rank :: !model_asked;
                pick rank)
          in
          if !asked <> !model_asked then
            Alcotest.failf "n=%d step %d: recombine asked other ranks" n step;
          pool.(i) <- child;
          models.(i) <- model_child);
        check_model (Printf.sprintf "n=%d step %d" n step) pool.(i) models.(i)
      done)
    model_sizes

(* The rows of a 40-PoP design are 200 bytes, 27 words with the header
   and padding. With the degree and forward-degree arrays and the record,
   a design retains 115 words; a byte per pair would make it 290. *)
let test_footprint () =
  let words = Obj.reachable_words (Obj.repr (Graph.create 40)) in
  if words > 120 then Alcotest.failf "Graph.create 40 retains %d words, over 120" words;
  (* A memo hit compares rows in place: no key is built per lookup. *)
  let g = random_graph (Prng.create 40) 40 ~p:0.1 in
  let key = Graph.Key.of_graph g in
  let h = Graph.copy g in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Graph.Key.matches key h))
  done;
  let allocated = Gc.minor_words () -. before in
  if allocated > 100.0 then
    Alcotest.failf "1000 Key.matches allocated %.0f words" allocated

(* --- properties ------------------------------------------------------------ *)

let random_graph_ops_gen =
  QCheck.Gen.(
    let op = pair (int_bound 7) (int_bound 7) in
    list_size (int_bound 60) op)

let qcheck_add_remove_consistency =
  QCheck.Test.make ~name:"edge count matches edge list after random ops" ~count:300
    (QCheck.make random_graph_ops_gen)
    (fun ops ->
      let g = Graph.create 8 in
      List.iteri
        (fun i (u, v) ->
          if u <> v then
            if i mod 3 = 2 then Graph.remove_edge g u v else Graph.add_edge g u v)
        ops;
      List.length (Graph.edges g) = Graph.edge_count g
      && List.for_all (fun (u, v) -> u < v && Graph.mem_edge g u v) (Graph.edges g))

let qcheck_degree_sum =
  QCheck.Test.make ~name:"sum of degrees = 2m" ~count:300
    (QCheck.make random_graph_ops_gen)
    (fun ops ->
      let g = Graph.create 8 in
      List.iter (fun (u, v) -> if u <> v then Graph.add_edge g u v) ops;
      Array.fold_left ( + ) 0 (Graph.degree_sequence g) = 2 * Graph.edge_count g)

let qcheck_mst_connects =
  QCheck.Test.make ~name:"spanning connector always connects" ~count:200
    (QCheck.make random_graph_ops_gen)
    (fun ops ->
      let g = Graph.create 8 in
      List.iter (fun (u, v) -> if u <> v then Graph.add_edge g u v) ops;
      let weight u v = float_of_int (1 + ((u + v) mod 5)) in
      Mst.connect g ~weight;
      Traversal.is_connected g)

let () =
  Alcotest.run "cold_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add/remove" `Quick test_add_remove;
          Alcotest.test_case "self loop" `Quick test_self_loop;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "degrees/leaves" `Quick test_degrees_and_leaves;
          Alcotest.test_case "isolated leaf" `Quick test_isolated_is_leaf;
          Alcotest.test_case "neighbors" `Quick test_neighbors;
          Alcotest.test_case "edge order" `Quick test_edges_order;
          Alcotest.test_case "copy" `Quick test_copy_independence;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "fingerprint pins" `Quick test_fingerprint_pins;
          Alcotest.test_case "recombine" `Quick test_recombine;
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "remove_all_edges_of" `Quick test_remove_all_edges_of;
          Alcotest.test_case "degree sequence" `Quick test_degree_sequence;
          Alcotest.test_case "bit rows against a model" `Quick test_bit_rows_model;
          Alcotest.test_case "footprint" `Quick test_footprint;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorted" `Quick test_heap_sorted;
          Alcotest.test_case "tie break" `Quick test_heap_tie_break;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "against a sort" `Quick test_heap_against_sort;
        ] );
      ("union_find", [ Alcotest.test_case "basic" `Quick test_union_find ]);
      ( "traversal",
        [
          Alcotest.test_case "bfs hops" `Quick test_bfs_hops;
          Alcotest.test_case "unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "components" `Quick test_components;
        ] );
      ( "shortest_path",
        [
          Alcotest.test_case "dijkstra" `Quick test_dijkstra;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "settling order" `Quick test_dijkstra_settling_order;
          Alcotest.test_case "tie break" `Quick test_dijkstra_tie_break_deterministic;
          Alcotest.test_case "apsp" `Quick test_apsp;
        ] );
      ( "mst",
        [
          Alcotest.test_case "line" `Quick test_prim_line;
          Alcotest.test_case "optimal (brute force)" `Quick test_prim_weight_optimal_small;
          Alcotest.test_case "spanning connector" `Quick test_spanning_connector;
          Alcotest.test_case "connector noop" `Quick test_spanning_connector_noop;
          Alcotest.test_case "connector singletons" `Quick
            test_spanning_connector_singletons;
        ] );
      ( "csr",
        [
          Alcotest.test_case "matches dense iteration" `Quick
            test_csr_matches_dense;
          Alcotest.test_case "reuse rewrites in place" `Quick test_csr_reuse;
          Alcotest.test_case "dijkstra bitwise" `Quick test_dijkstra_csr_bitwise;
          Alcotest.test_case "bfs identical" `Quick test_bfs_csr_identical;
          Alcotest.test_case "nth_absent_pair enumeration" `Quick
            test_nth_absent_pair_enumeration;
          Alcotest.test_case "copy_into" `Quick test_copy_into;
        ] );
      ( "builders",
        [
          Alcotest.test_case "shapes" `Quick test_builders_shapes;
          Alcotest.test_case "balanced tree" `Quick test_balanced_tree;
          Alcotest.test_case "random tree" `Quick test_random_tree;
          Alcotest.test_case "cycle invalid" `Quick test_cycle_invalid;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_add_remove_consistency;
          QCheck_alcotest.to_alcotest qcheck_degree_sum;
          QCheck_alcotest.to_alcotest qcheck_mst_connects;
        ] );
    ]
