(* Tests for Cold.Cost: hand-computed costs and the §3.2.3 dominance
   structure (k0/k1 → trees, k2 → cliques, k3 → stars). *)

module Graph = Cold_graph.Graph
module Builders = Cold_graph.Builders
module Prng = Cold_prng.Prng
module Point = Cold_geom.Point
module Context = Cold_context.Context
module Cost = Cold.Cost
module Heuristics = Cold.Heuristics

let feq = Alcotest.(check (float 1e-6))

let line_context () =
  Context.of_points_and_populations
    [| Point.make 0.0 0.0; Point.make 1.0 0.0; Point.make 2.0 0.0 |]
    [| 1.0; 2.0; 3.0 |]

let test_params_defaults () =
  let p = Cost.params () in
  feq "k0" 10.0 p.Cost.k0;
  feq "k1" 1.0 p.Cost.k1;
  feq "k3" 0.0 p.Cost.k3

let test_params_invalid () =
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Cost.params: costs must be non-negative") (fun () ->
      ignore (Cost.params ~k2:(-1.0) ()));
  List.iter
    (fun (label, params) ->
      Alcotest.check_raises label
        (Invalid_argument "Cost.params: costs must be finite") (fun () ->
          ignore (params ())))
    [
      ("infinite k0", fun () -> Cost.params ~k0:infinity ());
      ("NaN k1", fun () -> Cost.params ~k1:Float.nan ());
      ("infinite k2", fun () -> Cost.params ~k2:infinity ());
      ("NaN k3", fun () -> Cost.params ~k3:Float.nan ());
    ]

let test_hand_computed () =
  (* Path on the line context. Loads: (0,1)=10, (1,2)=18 (see test_net).
     With k0=10, k1=1, k2=0.1, k3=5:
       existence: 2·10 = 20
       length: 1·(1+1) = 2
       bandwidth: 0.1·(10·1 + 18·1) = 2.8
       hub: node 1 has degree 2 → 5
       total = 29.8 *)
  let ctx = line_context () in
  let p = Cost.params ~k0:10.0 ~k1:1.0 ~k2:0.1 ~k3:5.0 () in
  let b = Cost.evaluate_breakdown p ctx (Builders.path 3) in
  feq "existence" 20.0 b.Cost.existence;
  feq "length" 2.0 b.Cost.length;
  feq "bandwidth" 2.8 b.Cost.bandwidth;
  feq "hub" 5.0 b.Cost.hub;
  feq "total" 29.8 b.Cost.total;
  feq "evaluate agrees" b.Cost.total (Cost.evaluate p ctx (Builders.path 3))

let test_disconnected_infeasible () =
  let ctx = line_context () in
  let g = Graph.of_edges 3 [ (0, 1) ] in
  feq "infinite" infinity (Cost.evaluate (Cost.params ()) ctx g);
  let b = Cost.evaluate_breakdown (Cost.params ()) ctx g in
  feq "breakdown total" infinity b.Cost.total

let test_size_mismatch () =
  let ctx = line_context () in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Cost.evaluate: graph size does not match context") (fun () ->
      ignore (Cost.evaluate (Cost.params ()) ctx (Builders.path 4)))

let random_context n seed =
  Context.generate (Context.default_spec ~n) (Prng.create seed)

(* When k1 dominates (k0=k2=k3=0), the optimum is the Euclidean MST. *)
let test_k1_dominant_mst_optimal () =
  let ctx = random_context 6 11 in
  let p = Cost.params ~k0:0.0 ~k1:1.0 ~k2:0.0 ~k3:0.0 () in
  let (opt, opt_cost) = Cold.Brute_force.optimal p ctx in
  let mst = Cold.Heuristics.mst_topology ctx in
  feq "MST cost is optimal" opt_cost (Cost.evaluate p ctx mst);
  Alcotest.(check bool) "optimum is the MST" true (Graph.equal opt mst)

(* When k2 dominates, the optimum is the clique. *)
let test_k2_dominant_clique_optimal () =
  let ctx = random_context 5 12 in
  let p = Cost.params ~k0:0.0 ~k1:0.0 ~k2:1.0 ~k3:0.0 () in
  let (opt, _) = Cold.Brute_force.optimal p ctx in
  Alcotest.(check bool) "optimum is the clique" true
    (Graph.equal opt (Graph.complete 5))

(* When k0 dominates, any optimum is a spanning tree (n-1 links). *)
let test_k0_dominant_tree_optimal () =
  let ctx = random_context 6 13 in
  let p = Cost.params ~k0:1000.0 ~k1:1.0 ~k2:1e-7 ~k3:0.0 () in
  let (opt, _) = Cold.Brute_force.optimal p ctx in
  Alcotest.(check int) "spanning tree" 5 (Graph.edge_count opt)

(* When k3 dominates, the optimum is hub-and-spoke: exactly one core node. *)
let test_k3_dominant_star_optimal () =
  let ctx = random_context 6 14 in
  let p = Cost.params ~k0:1.0 ~k1:1.0 ~k2:1e-7 ~k3:10_000.0 () in
  let (opt, _) = Cold.Brute_force.optimal p ctx in
  Alcotest.(check int) "one hub" 1 (Cold_metrics.Degree.hub_count opt);
  Alcotest.(check int) "star edges" 5 (Graph.edge_count opt)

(* Monotonicity: the cost of a fixed graph is increasing in each ki. *)
let test_cost_monotone_in_params () =
  let ctx = random_context 8 15 in
  let g = Cold.Heuristics.mst_topology ctx in
  let base = Cost.evaluate (Cost.params ~k0:1.0 ~k2:1e-4 ~k3:1.0 ()) ctx g in
  Alcotest.(check bool) "k0 up" true
    (Cost.evaluate (Cost.params ~k0:2.0 ~k2:1e-4 ~k3:1.0 ()) ctx g > base);
  Alcotest.(check bool) "k2 up" true
    (Cost.evaluate (Cost.params ~k0:1.0 ~k2:2e-4 ~k3:1.0 ()) ctx g > base);
  Alcotest.(check bool) "k3 up" true
    (Cost.evaluate (Cost.params ~k0:1.0 ~k2:1e-4 ~k3:2.0 ()) ctx g > base)

(* Scale invariance (§3.2.3: "costs are all relative"): multiplying all ki by
   a constant multiplies every cost by the same constant, so argmins are
   unchanged. *)
let test_scale_invariance () =
  let ctx = random_context 6 16 in
  let g = Cold.Heuristics.mst_topology ctx in
  let c1 = Cost.evaluate (Cost.params ~k0:10.0 ~k1:1.0 ~k2:1e-4 ~k3:5.0 ()) ctx g in
  let c3 = Cost.evaluate (Cost.params ~k0:30.0 ~k1:3.0 ~k2:3e-4 ~k3:15.0 ()) ctx g in
  feq "3x params = 3x cost" (3.0 *. c1) c3

let test_breakdown_components_sum () =
  let ctx = random_context 7 17 in
  let g = Cold.Heuristics.mst_topology ctx in
  let b = Cost.evaluate_breakdown (Cost.params ~k3:2.0 ()) ctx g in
  feq "components sum to total"
    (b.Cost.existence +. b.Cost.length +. b.Cost.bandwidth +. b.Cost.hub)
    b.Cost.total

let test_count_connected_oracle () =
  (* Known counts of connected labelled graphs. *)
  Alcotest.(check int) "n=1" 1 (Cold.Brute_force.count_connected 1);
  Alcotest.(check int) "n=2" 1 (Cold.Brute_force.count_connected 2);
  Alcotest.(check int) "n=3" 4 (Cold.Brute_force.count_connected 3);
  Alcotest.(check int) "n=4" 38 (Cold.Brute_force.count_connected 4);
  Alcotest.(check int) "n=5" 728 (Cold.Brute_force.count_connected 5)

let qcheck_cost_positive =
  QCheck.Test.make ~name:"feasible costs are positive and finite" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let ctx = random_context 6 seed in
      let g = Cold.Heuristics.mst_topology ctx in
      let c = Cost.evaluate (Cost.params ()) ctx g in
      Float.is_finite c && c > 0.0)

(* --- bitwise oracle ---------------------------------------------------------- *)

module Gravity = Cold_traffic.Gravity
module Shortest_path = Cold_graph.Shortest_path
module Routing = Cold_net.Routing
module Par = Cold_par.Par

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let oracle_params = Cost.params ~k2:3e-4 ~k3:0.5 ()

(* What the library computes for one graph: the cost, the breakdown's
   total, the tree-less load matrix of Routing.route_loads, and the
   single-path and ECMP routings (None when disconnected). *)
type outcome = {
  cost : float;
  breakdown_total : float;
  loads : float array option;
  routes : (float array * Shortest_path.tree array) option list;
}

let tree_less_loads ctx g =
  let n = Context.n ctx in
  let sp = Shortest_path.scratch ~n in
  let csr = Shortest_path.view sp g in
  let lengths = Shortest_path.edge_lengths_of_matrix sp csr (Context.lengths ctx) in
  match Routing.route_loads sp csr ~lengths ~tm:ctx.Context.tm with
  | exception Routing.Disconnected -> None
  | m -> Some (Array.copy m)

let library_outcome ctx g =
  let length u v = Context.distance ctx u v and tm = ctx.Context.tm in
  {
    cost = Cost.evaluate oracle_params ctx g;
    breakdown_total = (Cost.evaluate_breakdown oracle_params ctx g).Cost.total;
    loads = tree_less_loads ctx g;
    routes =
      List.map
        (fun multipath ->
          match Routing.route ~multipath g ~length ~tm with
          | exception Routing.Disconnected -> None
          | l -> Some (Array.copy (Routing.matrix l), Routing.trees l))
        [ false; true ];
  }

let oracle_outcome ctx g =
  let length u v = Context.distance ctx u v and tm = ctx.Context.tm in
  let total = (Cost_oracle.breakdown oracle_params ctx g).Cost.total in
  let routes =
    List.map
      (fun multipath ->
        match Cost_oracle.route ~multipath g ~length ~tm with
        | exception Cost_oracle.Disconnected -> None
        | r -> Some r)
      [ false; true ]
  in
  {
    cost = total;
    breakdown_total = total;
    loads = Option.map fst (List.hd routes);
    routes;
  }

let check_outcome label ~(want : outcome) (got : outcome) =
  if not (bits_equal got.cost want.cost) then
    Alcotest.failf "%s: Cost.evaluate %h, reference %h" label got.cost want.cost;
  if not (bits_equal got.breakdown_total want.breakdown_total) then
    Alcotest.failf "%s: evaluate_breakdown total %h, reference %h" label
      got.breakdown_total want.breakdown_total;
  (match (got.loads, want.loads) with
   | (None, None) -> ()
   | (Some gm, Some wm) ->
     if not (Array.for_all2 bits_equal gm wm) then
       Alcotest.failf "%s: Routing.route_loads loads differ" label
   | _ -> Alcotest.failf "%s: Routing.route_loads feasibility differs" label);
  List.iter2
    (fun got want ->
      match (got, want) with
      | (None, None) -> ()
      | (Some (gm, gt), Some (wm, wt)) ->
        if not (Array.for_all2 bits_equal gm wm) then
          Alcotest.failf "%s: Routing.route loads differ" label;
        Array.iteri
          (fun s (w : Shortest_path.tree) ->
            let t = gt.(s) in
            if not (Array.for_all2 bits_equal t.Shortest_path.dist w.dist)
               || t.pred <> w.pred || t.order <> w.order
            then Alcotest.failf "%s: Routing.route tree %d differs" label s)
          wt
      | _ -> Alcotest.failf "%s: Routing.route feasibility differs" label)
    got.routes want.routes

let check_graph label ctx g =
  check_outcome label ~want:(oracle_outcome ctx g) (library_outcome ctx g)

let erdos_renyi rng n ~p =
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.float rng < p then Graph.add_edge g u v
    done
  done;
  g

(* Seeding's trial layout: [hubs] joined by [links], every other PoP hung
   as a leaf on its nearest hub. Most PoPs are leaves, so the tree-less
   step folds them, and both leaves and hubs act as sources. *)
let hub_and_spoke ctx hubs links =
  let n = Context.n ctx in
  let g = Graph.of_edges n links in
  let is_hub = Array.make n false in
  List.iter (fun h -> is_hub.(h) <- true) hubs;
  Cost_oracle.attach_leaves ctx g is_hub;
  g

(* One hub mid-range (leaves on both sides of it), two hubs at the ends,
   and about n / 5 hubs on a ring with a chord, so some pairs have two
   hub paths and some hubs forward traffic for others. *)
let hub_families ctx =
  let n = Context.n ctx in
  let k = max 3 (n / 5) in
  let ring = List.init k (fun i -> i * n / k) in
  let links =
    List.mapi (fun i h -> (h, List.nth ring ((i + 1) mod k))) ring
    @ [ (List.nth ring 0, List.nth ring (k / 2)) ]
  in
  let links = List.filter (fun (a, b) -> a <> b) links in
  [
    ("one hub", hub_and_spoke ctx [ n / 2 ] []);
    ("two hubs", hub_and_spoke ctx [ 0; n - 1 ] [ (0, n - 1) ]);
    ("hub ring", hub_and_spoke ctx (List.sort_uniq Int.compare ring) links);
  ]

(* ER graphs at three densities (the sparse ones are often disconnected,
   pricing at infinity), a spanning tree plus chords, and two disconnected
   graphs: one without links, one split in half, and the hub-and-spoke
   families. *)
let oracle_graphs ctx rng =
  let n = Context.n ctx in
  let mst = Heuristics.mst_topology ctx in
  let chords = Graph.copy mst in
  for _ = 1 to n do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v then Graph.add_edge chords u v
  done;
  let halves = Graph.create n in
  for v = 1 to n - 1 do
    if v <> (n / 2) then Graph.add_edge halves (if v < n / 2 then 0 else n / 2) v
  done;
  [
    ("er sparse", erdos_renyi rng n ~p:(2.0 /. float_of_int n));
    ("er medium", erdos_renyi rng n ~p:0.3);
    ("er dense", erdos_renyi rng n ~p:0.8);
    ("mst", mst);
    ("mst+chords", chords);
    ("clique", Graph.complete n);
    ("empty", Graph.create n);
    ("halves", halves);
  ]
  @ hub_families ctx

let oracle_sizes = [ 2; 3; 20; 60 ]

let test_oracle_random () =
  List.iter
    (fun n ->
      for seed = 1 to 3 do
        let ctx = random_context n (100 + seed) in
        let rng = Prng.create (200 + seed) in
        List.iter
          (fun (name, g) ->
            check_graph (Printf.sprintf "n=%d seed=%d %s" n seed name) ctx g)
          (oracle_graphs ctx rng)
      done)
    oracle_sizes

(* Colocated PoPs: several share one location, so their links have zero
   length and Dijkstra's ties are exact — the tie-break and the
   settle-order rule decide every tree. *)
let colocated_context n seed =
  let rng = Prng.create seed in
  let sites = max 1 (n / 3) in
  let site = Array.init sites (fun _ ->
      Point.make (50.0 *. Prng.float rng) (50.0 *. Prng.float rng)) in
  let pops = Array.init n (fun _ -> 1.0 +. (30.0 *. Prng.float rng)) in
  Context.of_points_and_populations ~traffic_scale:0.4
    (Array.init n (fun i -> site.(i mod sites)))
    pops

let test_oracle_colocated () =
  List.iter
    (fun n ->
      let ctx = colocated_context n (300 + n) in
      List.iter
        (fun (name, g) -> check_graph (Printf.sprintf "colocated n=%d %s" n name) ctx g)
        (oracle_graphs ctx (Prng.create (400 + n))))
    oracle_sizes

(* Lattice PoPs: unit-spaced integer grid points, so many distinct paths
   have exactly equal lengths built from positive links (1 + 1 = 2 exactly),
   and the tie branch of the relaxation and the heap's vertex tie-break
   decide trees that random contexts, which produce no exact ties, never
   reach. *)
let lattice_context ~cols ~rows seed =
  let rng = Prng.create seed in
  let n = cols * rows in
  Context.of_points_and_populations ~traffic_scale:0.4
    (Array.init n (fun i ->
         Point.make (float_of_int (i mod cols)) (float_of_int (i / cols))))
    (Array.init n (fun _ -> 1.0 +. (30.0 *. Prng.float rng)))

let test_oracle_lattice () =
  List.iter
    (fun (cols, rows) ->
      let n = cols * rows in
      let ctx = lattice_context ~cols ~rows (1000 + n) in
      List.iter
        (fun (name, g) -> check_graph (Printf.sprintf "lattice n=%d %s" n name) ctx g)
        (oracle_graphs ctx (Prng.create (1100 + n))))
    [ (5, 4); (10, 6) ]

(* A PoP with no population carries no demand, so cutting it off leaves
   the network feasible: every path must still agree with the reference,
   including the partially settled trees of the other sources. *)
let zero_population_context ?zeros n seed =
  let base = random_context n seed in
  let pops = Gravity.populations base.Context.tm in
  List.iter (fun v -> pops.(v) <- 0.0) (Option.value zeros ~default:[ n - 1 ]);
  Context.of_points_and_populations ~traffic_scale:0.4 base.Context.points pops

(* A star on [members] around [hub]; every other PoP is cut off. *)
let star_on n hub members =
  Graph.of_edges n (List.filter_map (fun v -> if v = hub then None else Some (hub, v)) members)

(* Demand s -> d is (scale · pop s) · pop d, so with a tiny scale and
   pop 0 the product underflows to 0 from PoP 0's side while every other
   PoP's demand to 0 stays positive: only a check that reads both
   directions sees that cutting PoP 0 off strands traffic. *)
let one_sided_context n seed =
  let base = random_context n seed in
  let pops = Array.init n (fun v -> if v = 0 then 1e-200 else 1e200) in
  Context.of_points_and_populations ~traffic_scale:1e-200 base.Context.points pops

let test_oracle_zero_population () =
  List.iter
    (fun n ->
      let ctx = zero_population_context n (500 + n) in
      let lonely = n - 1 in
      let g = Graph.of_edges n (List.init (n - 2) (fun i -> (0, i + 1))) in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d stays feasible" n)
        true
        (Float.is_finite (Cost.evaluate oracle_params ctx g));
      check_graph (Printf.sprintf "zero population n=%d" n) ctx g;
      Graph.add_edge g 0 lonely;
      check_graph (Printf.sprintf "zero population reattached n=%d" n) ctx g;
      (* Split graphs whose only cut-off PoP is 0 or n - 1 (the source
         that routes nothing), with and without demand, and one whose
         split-off part is an isolated edge. *)
      let all = List.init n Fun.id in
      let cut_first = star_on n (n / 2) (List.tl all) in
      let cut_last = star_on n (n / 2) (List.filter (fun v -> v <> n - 1) all) in
      let edge_apart =
        let g = star_on n 0 (List.filter (fun v -> v < n - 2) all) in
        Graph.add_edge g (n - 2) (n - 1);
        g
      in
      let positive = random_context n (510 + n) in
      List.iter
        (fun (label, ctx, g) ->
          check_graph (Printf.sprintf "n=%d %s" n label) ctx g)
        [
          ("cut-off 0, no demand", zero_population_context ~zeros:[ 0 ] n (520 + n), cut_first);
          ("cut-off 0, demand", positive, cut_first);
          ("cut-off n-1, no demand", ctx, cut_last);
          ("cut-off n-1, demand", positive, cut_last);
          ("isolated edge, no demand",
           zero_population_context ~zeros:[ n - 2; n - 1 ] n (530 + n), edge_apart);
          ("isolated edge, demand", positive, edge_apart);
          ("isolated edge, half demand", ctx, edge_apart);
        ];
      let one_sided = one_sided_context n (540 + n) in
      let tm = one_sided.Context.tm in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d demand 0 -> 1 underflows, 1 -> 0 does not" n)
        true
        (Gravity.demand tm 0 1 = 0.0 && Gravity.demand tm 1 0 > 0.0);
      check_graph (Printf.sprintf "n=%d one-sided demand, 0 cut off" n) one_sided cut_first;
      Alcotest.(check bool)
        (Printf.sprintf "n=%d one-sided demand is infeasible" n)
        true
        (Float.equal (Cost.evaluate oracle_params one_sided cut_first) infinity))
    oracle_sizes

(* Two leaves of one hub whose access lengths differ by less than an ulp
   of their distance from source 0, 1000 units away, so both sums round
   to 1001 and the id, not the length, orders them; the longer leaf has
   the smaller id. The hub's subtree takes three adds (a farther leaf
   first), and the populations make the two orders of the last two give
   different bits. *)
let test_oracle_rounding_tie () =
  let tiny = 1.0 +. epsilon_float in
  let points =
    [| Point.make (-1000.0) 0.0; Point.make 0.0 0.0; Point.make tiny 0.0;
       Point.make 1.0 0.0; Point.make 0.0 5.0 |]
  in
  let ctx =
    Context.of_points_and_populations ~traffic_scale:1.0 points
      [| 0.5; 0.0; 0.3; 0.1; 0.2 |]
  in
  let d = Context.distance ctx in
  Alcotest.(check bool) "lengths differ" true (d 1 2 > d 1 3);
  Alcotest.(check bool) "sums tie" true (Float.equal (d 0 1 +. d 1 2) (d 0 1 +. d 1 3));
  Alcotest.(check bool) "orders differ" false (bits_equal ((0.2 +. 0.1) +. 0.3) ((0.2 +. 0.3) +. 0.1));
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (1, 3); (1, 4) ] in
  check_graph "rounding tie" ctx g;
  Graph.add_edge g 0 4;
  check_graph "rounding tie, hub with a core child" ctx g

(* Every trial graph a seed set prices, each held against the reference
   as the historical heuristics reach it, and the seed set itself against
   the historical one. *)
let seed_set_trials n =
  let permutations = 2 in
  let ctx = random_context n (600 + n) in
  let trials = ref 0 in
  let eval g =
    incr trials;
    let want = (Cost_oracle.breakdown oracle_params ctx g).Cost.total in
    let got = Cost.evaluate oracle_params ctx g in
    let total = (Cost.evaluate_breakdown oracle_params ctx g).Cost.total in
    if not (bits_equal got want && bits_equal total want) then
      Alcotest.failf "n=%d trial %d: Cost.evaluate %h / breakdown %h, reference %h"
        n !trials got total want;
    if !trials mod 50 = 0 then
      check_graph (Printf.sprintf "n=%d trial %d" n !trials) ctx g;
    want
  in
  let want = Cost_oracle.seed_set ~eval ~permutations ctx (Prng.create 601) in
  let got = Heuristics.seed_set ~permutations oracle_params ctx (Prng.create 601) in
  Alcotest.(check bool)
    (Printf.sprintf "n=%d seed set unchanged" n)
    true (List.equal Graph.equal got want);
  !trials

let test_oracle_seed_set_trials () =
  ignore (seed_set_trials 2);
  ignore (seed_set_trials 3);
  let trials = seed_set_trials 20 in
  Alcotest.(check bool)
    (Printf.sprintf "n=20: over 1000 trials (got %d)" trials)
    true (trials > 1000)

(* The seeding sweep: over a k2/k3 grid and four context families, every
   algorithm's graph and cost bits, and every seed set, equal the
   historical heuristics priced with Cost.evaluate. *)
let check_seeding label p ctx =
  let eval = Cost.evaluate p ctx in
  let permutations = 2 in
  List.iter
    (fun alg ->
      let name = Printf.sprintf "%s %s" label (Heuristics.name alg) in
      let (want_g, want_c) = Cost_oracle.run ~eval alg ctx (Prng.create 611) in
      let (got_g, got_c) = Heuristics.run alg p ctx (Prng.create 611) in
      Alcotest.(check bool) (name ^ " graph") true (Graph.equal got_g want_g);
      if not (bits_equal got_c want_c) then
        Alcotest.failf "%s cost: %h, reference %h" name got_c want_c)
    (Heuristics.all ~permutations);
  let want = Cost_oracle.seed_set ~eval ~permutations ctx (Prng.create 612) in
  let got = Heuristics.seed_set ~permutations p ctx (Prng.create 612) in
  Alcotest.(check bool) (label ^ " seed set") true (List.equal Graph.equal got want)

let seeding_contexts n seed =
  let pareto =
    { (Context.default_spec ~n) with
      Context.population = Cold_traffic.Population.pareto_heavy }
  in
  [
    ("default", random_context n seed);
    ("colocated", colocated_context n seed);
    ("zero population", zero_population_context n seed);
    ("pareto", Context.generate pareto (Prng.create seed));
  ]

let test_oracle_seeding_sweep () =
  List.iter
    (fun n ->
      List.iter
        (fun (family, ctx) ->
          List.iter
            (fun k2 ->
              List.iter
                (fun k3 ->
                  check_seeding
                    (Printf.sprintf "n=%d %s k2=%g k3=%g" n family k2 k3)
                    (Cost.params ~k2 ~k3 ()) ctx)
                [ 0.0; 10.0 ])
            [ 2.5e-5; 1e-4; 4e-4; 1.6e-3 ])
        (seeding_contexts n (620 + n)))
    [ 2; 3; 10 ];
  (* Corners at n = 20: the k2 extremes on the degenerate families. *)
  let corners = seeding_contexts 20 640 in
  List.iter
    (fun (family, k2, k3) ->
      check_seeding
        (Printf.sprintf "n=20 %s k2=%g k3=%g" family k2 k3)
        (Cost.params ~k2 ~k3 ())
        (List.assoc family corners))
    [ ("colocated", 1.6e-3, 10.0); ("zero population", 2.5e-5, 0.0);
      ("pareto", 4e-4, 10.0) ]

(* The same comparisons fanned out over a pool: each domain routes in its
   own scratch, and the results must not depend on the domain count. *)
let test_oracle_domains () =
  let cases =
    Array.of_list
      (List.concat_map
         (fun n ->
           let ctx = random_context n (700 + n) in
           let colocated = colocated_context n (800 + n) in
           List.map (fun (_, g) -> (ctx, g)) (oracle_graphs ctx (Prng.create n))
           @ List.map
               (fun (_, g) -> (colocated, g))
               (oracle_graphs colocated (Prng.create (n + 1))))
         oracle_sizes)
  in
  let want = Array.map (fun (ctx, g) -> oracle_outcome ctx g) cases in
  List.iter
    (fun domains ->
      let got =
        Par.with_pool ~domains (fun pool ->
            Par.map_array pool (fun (ctx, g) -> library_outcome ctx g) cases)
      in
      Array.iteri
        (fun i got ->
          check_outcome
            (Printf.sprintf "domains=%d case %d" domains i)
            ~want:want.(i) got)
        got)
    [ 1; 2; 4; 8 ]

(* --- allocation ------------------------------------------------------------ *)

(* A full evaluation routes in the calling domain's scratch and folds in a
   plain loop, so once the scratch is warm it allocates only its result:
   a few words, the same at every n. *)
let check_allocation label graph =
  let words n =
    let ctx = random_context n (900 + n) in
    let g = graph n in
    let p = Cost.params () in
    ignore (Cost.evaluate p ctx g);
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Cost.evaluate p ctx g));
    Gc.minor_words () -. before
  in
  let w20 = words 20 and w60 = words 60 in
  Alcotest.(check bool)
    (Printf.sprintf "%s n=20: %.0f words < 100" label w20) true (w20 < 100.0);
  Alcotest.(check bool)
    (Printf.sprintf "%s n=60: %.0f words < 100" label w60) true (w60 < 100.0);
  Alcotest.(check bool)
    (Printf.sprintf "%s: no growth with n (%.0f then %.0f)" label w20 w60)
    true (w60 <= w20)

let test_evaluate_allocation () =
  check_allocation "star" (fun n ->
      Graph.of_edges n (List.init (n - 1) (fun i -> (0, i + 1))));
  (* n / 4 hubs on a path, every other PoP a leaf of one of them: 5 hubs
     at n = 20, 15 at n = 60. *)
  check_allocation "hubs" (fun n ->
      let k = n / 4 in
      Graph.of_edges n
        (List.init (n - 1) (fun v ->
             let v = v + 1 in
             if v < k then (v - 1, v) else (v mod k, v))))

(* The clique every initial population holds has n(n - 1) CSR slots, far
   more than the scratch starts with, so the warm-up grows the view and the
   length table, and the measured run must then fit in them. Each source
   pushes its n - 1 neighbours through the sift-up. Euclidean lengths make
   each direct link a shortest path, so the heap stays inside its initial
   2n entries; test_graph's heap sweep is what makes it grow. *)
let test_clique_allocation () = check_allocation "clique" Graph.complete

let () =
  Alcotest.run "cold_cost"
    [
      ( "cost",
        [
          Alcotest.test_case "defaults" `Quick test_params_defaults;
          Alcotest.test_case "invalid" `Quick test_params_invalid;
          Alcotest.test_case "hand computed" `Quick test_hand_computed;
          Alcotest.test_case "disconnected" `Quick test_disconnected_infeasible;
          Alcotest.test_case "size mismatch" `Quick test_size_mismatch;
          Alcotest.test_case "monotone in params" `Quick test_cost_monotone_in_params;
          Alcotest.test_case "scale invariance" `Quick test_scale_invariance;
          Alcotest.test_case "breakdown sums" `Quick test_breakdown_components_sum;
        ] );
      ( "dominance (brute force)",
        [
          Alcotest.test_case "k1 -> MST" `Quick test_k1_dominant_mst_optimal;
          Alcotest.test_case "k2 -> clique" `Quick test_k2_dominant_clique_optimal;
          Alcotest.test_case "k0 -> spanning tree" `Quick test_k0_dominant_tree_optimal;
          Alcotest.test_case "k3 -> star" `Quick test_k3_dominant_star_optimal;
        ] );
      ( "brute force",
        [ Alcotest.test_case "connected graph counts" `Quick test_count_connected_oracle ] );
      ("properties", [ QCheck_alcotest.to_alcotest qcheck_cost_positive ]);
      ( "oracle",
        [
          Alcotest.test_case "random graphs" `Quick test_oracle_random;
          Alcotest.test_case "colocated PoPs" `Quick test_oracle_colocated;
          Alcotest.test_case "lattice PoPs" `Quick test_oracle_lattice;
          Alcotest.test_case "zero population" `Quick test_oracle_zero_population;
          Alcotest.test_case "rounding tie" `Quick test_oracle_rounding_tie;
          Alcotest.test_case "seed set trials" `Quick test_oracle_seed_set_trials;
          Alcotest.test_case "seeding sweep" `Quick test_oracle_seeding_sweep;
          Alcotest.test_case "domains" `Quick test_oracle_domains;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "evaluate" `Quick test_evaluate_allocation;
          Alcotest.test_case "clique" `Quick test_clique_allocation;
        ] );
    ]
