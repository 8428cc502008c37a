module Graph = Cold_graph.Graph
module Mst = Cold_graph.Mst
module Dist = Cold_prng.Dist
module Context = Cold_context.Context

type algorithm =
  | Complete
  | Mst_hubs
  | Greedy_attachment
  | Random_greedy of { permutations : int }

let name = function
  | Complete -> "complete"
  | Mst_hubs -> "mst"
  | Greedy_attachment -> "greedy attachment"
  | Random_greedy _ -> "random greedy"

let all ~permutations =
  [ Random_greedy { permutations }; Complete; Mst_hubs; Greedy_attachment ]

let mst_topology ctx =
  Mst.mst_graph ~n:(Context.n ctx) ~weight:(fun u v -> Context.distance ctx u v)

let clique_topology ctx = Graph.complete (Context.n ctx)

(* Attach every non-hub to its nearest hub. [hubs] is a bool array. The
   spatial grid behind Distmat.nearest finds each leaf's nearest hub in
   near-constant time instead of an O(n) scan; ties resolve to the lowest
   hub index, exactly as the historical strict-< scan did, and the distances
   compared are the same floats — so the attachment (and every golden
   topology built on it) is unchanged. *)
let attach_leaves ctx g hubs =
  let n = Context.n ctx in
  for v = 0 to n - 1 do
    if not hubs.(v) then
      match
        Cold_geom.Distmat.nearest ctx.Context.dist v
          ~except:(fun h -> not hubs.(h))
      with
      | Some h -> Graph.add_edge g v h
      | None -> ()
  done

(* Wire the hub set as a clique. *)
let wire_clique g hub_list =
  List.iter
    (fun h ->
      List.iter (fun h' -> if h < h' then Graph.add_edge g h h') hub_list)
    hub_list

(* Wire the hub set as a distance MST. *)
let wire_mst ctx g hub_list =
  let hubs = Array.of_list hub_list in
  let k = Array.length hubs in
  if k > 1 then begin
    let weight a b = Context.distance ctx hubs.(a) hubs.(b) in
    List.iter
      (fun (a, b) -> Graph.add_edge g hubs.(a) hubs.(b))
      (Mst.prim_complete ~n:k ~weight)
  end

let build_clique_style ctx hubs =
  let g = Graph.create (Context.n ctx) in
  let hub_list = ref [] in
  Array.iteri (fun v is_hub -> if is_hub then hub_list := v :: !hub_list) hubs;
  wire_clique g !hub_list;
  attach_leaves ctx g hubs;
  g

let build_mst_style ctx hubs =
  let g = Graph.create (Context.n ctx) in
  let hub_list = ref [] in
  Array.iteri (fun v is_hub -> if is_hub then hub_list := v :: !hub_list) hubs;
  wire_mst ctx g (List.rev !hub_list);
  attach_leaves ctx g hubs;
  g

let best_star params ctx =
  let n = Context.n ctx in
  if n < 1 then invalid_arg "Heuristics.best_star: empty context";
  let best = ref None in
  for hub = 0 to n - 1 do
    let hubs = Array.make n false in
    hubs.(hub) <- true;
    let g = build_clique_style ctx hubs in
    let c = Cost.evaluate params ctx g in
    match !best with
    | None -> best := Some (g, c)
    | Some (_, bc) -> if c < bc then best := Some (g, c)
  done;
  Option.get !best

(* Greedy-attachment wiring: connect new hub [h] to existing hubs, cheapest
   feasible link first, keep adding links while total cost decreases. The
   leaves are re-attached after each trial, so we rebuild candidate graphs
   from the hub structure. [inter_edges] is the current inter-hub edge set. *)
let build_with_edges ctx hubs inter_edges =
  let g = Graph.create (Context.n ctx) in
  List.iter (fun (a, b) -> Graph.add_edge g a b) inter_edges;
  attach_leaves ctx g hubs;
  g

let greedy_attach params ctx hubs inter_edges new_hub =
  (* Candidate endpoints: existing hubs. *)
  let targets = ref [] in
  Array.iteri (fun v is_hub -> if is_hub && v <> new_hub then targets := v :: !targets) hubs;
  (* First link: the one giving the cheapest network; then keep adding while
     cost decreases. *)
  let rec add_links edges cost targets =
    let best = ref None in
    List.iter
      (fun t ->
        let trial_edges = (min new_hub t, max new_hub t) :: edges in
        let g = build_with_edges ctx hubs trial_edges in
        let c = Cost.evaluate params ctx g in
        match !best with
        | None -> best := Some (t, c)
        | Some (_, bc) -> if c < bc then best := Some (t, c))
      targets;
    match !best with
    | Some (t, c) when c < cost || Float.equal cost infinity ->
      let edges = (min new_hub t, max new_hub t) :: edges in
      add_links edges c (List.filter (fun x -> x <> t) targets)
    | _ -> (edges, cost)
  in
  add_links inter_edges infinity !targets

(* The hub of the best single-hub star: its max-degree node. *)
let star_hub star =
  let n = Graph.node_count star in
  let best = ref 0 in
  for v = 1 to n - 1 do
    if Graph.degree star v > Graph.degree star !best then best := v
  done;
  !best

(* The generic driver: repeatedly promote the leaf whose promotion reduces
   cost the most, using [wire] to produce (graph, cost, new inter-hub
   edges) for a candidate. Stops when no promotion helps. It starts from
   the best star — rebuilt from its hub, the very same graph, so its known
   cost stands in for a re-evaluation — and only ever accepts a strictly
   cheaper design, so it never returns one dearer than the star. *)
let drive ctx ~star:(star, star_cost) ~wire =
  let n = Context.n ctx in
  let hubs = Array.make n false in
  hubs.(star_hub star) <- true;
  let inter_edges = ref [] in
  let current = ref (build_with_edges ctx hubs !inter_edges) in
  let current_cost = ref star_cost in
  let improved = ref true in
  while !improved do
    improved := false;
    let best = ref None in
    for candidate = 0 to n - 1 do
      if not hubs.(candidate) then begin
        hubs.(candidate) <- true;
        let (g, c, edges) = wire hubs !inter_edges candidate in
        hubs.(candidate) <- false;
        match !best with
        | None -> best := Some (candidate, g, c, edges)
        | Some (_, _, bc, _) -> if c < bc then best := Some (candidate, g, c, edges)
      end
    done;
    match !best with
    | Some (candidate, g, c, edges) when c < !current_cost ->
      hubs.(candidate) <- true;
      inter_edges := edges;
      current := g;
      current_cost := c;
      improved := true
    | _ -> ()
  done;
  (!current, !current_cost)

(* Each algorithm takes the best star, graph and cost, from its caller:
   [run] computes it per call, [seed_set] once for all four. *)
let run_complete params ctx ~star =
  let wire hubs _edges _candidate =
    let g = build_clique_style ctx hubs in
    (* Clique wiring is recomputed wholesale; edge list unused downstream. *)
    (g, Cost.evaluate params ctx g, [])
  in
  drive ctx ~star ~wire

let run_mst params ctx ~star =
  let wire hubs _edges _candidate =
    let g = build_mst_style ctx hubs in
    (g, Cost.evaluate params ctx g, [])
  in
  drive ctx ~star ~wire

let run_greedy_attachment params ctx ~star =
  let wire hubs edges candidate =
    let (edges', c) = greedy_attach params ctx hubs edges candidate in
    (build_with_edges ctx hubs edges', c, edges')
  in
  drive ctx ~star ~wire

(* Every permutation starts from the star, whose cost is known, and ends on
   the graph its accepted trials built, whose cost is the last accepted
   trial's (or the star's): neither is evaluated again. The star graph
   stays the caller's; a permutation that never beats it returns a copy. *)
let run_random_greedy ~permutations params ctx rng ~star:(star, star_cost) =
  let n = Context.n ctx in
  let initial_hub = star_hub star in
  let best_overall = ref (Graph.copy star, star_cost) in
  for _ = 1 to max 1 permutations do
    let hubs = Array.make n false in
    hubs.(initial_hub) <- true;
    let inter_edges = ref [] in
    let cost = ref star_cost in
    let order = Dist.permutation rng n in
    Array.iter
      (fun candidate ->
        if not hubs.(candidate) then begin
          hubs.(candidate) <- true;
          let (edges', c) = greedy_attach params ctx hubs !inter_edges candidate in
          if c < !cost then begin
            inter_edges := edges';
            cost := c
          end
          else hubs.(candidate) <- false
        end)
      order;
    if !cost < snd !best_overall then
      best_overall := (build_with_edges ctx hubs !inter_edges, !cost)
  done;
  !best_overall

let check_size ctx =
  if Context.n ctx < 2 then invalid_arg "Heuristics.run: need at least 2 PoPs"

let run_from ~star alg params ctx rng =
  match alg with
  | Complete -> run_complete params ctx ~star
  | Mst_hubs -> run_mst params ctx ~star
  | Greedy_attachment -> run_greedy_attachment params ctx ~star
  | Random_greedy { permutations } ->
    run_random_greedy ~permutations params ctx rng ~star

let run alg params ctx rng =
  check_size ctx;
  run_from ~star:(best_star params ctx) alg params ctx rng

let seed_set ?(permutations = 10) params ctx rng =
  let star = best_star params ctx in
  check_size ctx;
  fst star
  :: List.map
       (fun alg -> fst (run_from ~star alg params ctx rng))
       (all ~permutations)
