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

(* The one trial layout every heuristic prices: the hub set [hubs] (a bool
   array) wired by the inter-hub [links], and every other PoP a degree-1
   leaf on its nearest hub (§5: leaves always re-attach to their closest
   hub). Distmat.nearest scans the leaf's distance row and breaks ties to
   the lowest hub index. *)
let build ctx hubs links =
  let g = Graph.create (Context.n ctx) in
  List.iter (fun (a, b) -> Graph.add_edge g a b) links;
  let not_hub h = not hubs.(h) in
  for v = 0 to Context.n ctx - 1 do
    if not hubs.(v) then
      match Cold_geom.Distmat.nearest ctx.Context.dist v ~except:not_hub with
      | Some h -> Graph.add_edge g v h
      | None -> ()
  done;
  g

let hub_ids hubs =
  List.filter (fun v -> hubs.(v)) (List.init (Array.length hubs) Fun.id)

(* Complete's inter-hub links: every hub pair. *)
let clique_links hubs =
  let ids = hub_ids hubs in
  List.concat_map
    (fun h ->
      List.filter_map (fun h' -> if h < h' then Some (h, h') else None) ids)
    ids

(* MST's inter-hub links: Prim over the hubs in ascending id order. *)
let mst_links ctx hubs =
  let ids = Array.of_list (hub_ids hubs) in
  List.map
    (fun (a, b) -> (ids.(a), ids.(b)))
    (Mst.prim_complete ~n:(Array.length ids) ~weight:(fun a b ->
         Context.distance ctx ids.(a) ids.(b)))

let best_star params ctx =
  let n = Context.n ctx in
  if n < 1 then invalid_arg "Heuristics.best_star: empty context";
  let best = ref None in
  for hub = 0 to n - 1 do
    let hubs = Array.make n false in
    hubs.(hub) <- true;
    let g = build ctx hubs [] in
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
        let g = build ctx hubs trial_edges in
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
  let current = ref (build ctx hubs !inter_edges) in
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
   [run] computes it per call, [seed_set] once for all four. Complete and
   MST wire the whole hub set afresh with [links] per trial, so the drive's
   edge list goes unused. *)
let run_rewired ~links params ctx ~star =
  let wire hubs _edges _candidate =
    let g = build ctx hubs (links hubs) in
    (g, Cost.evaluate params ctx g, [])
  in
  drive ctx ~star ~wire

let run_greedy_attachment params ctx ~star =
  let wire hubs edges candidate =
    let (edges', c) = greedy_attach params ctx hubs edges candidate in
    (build ctx hubs edges', c, edges')
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
      best_overall := (build ctx hubs !inter_edges, !cost)
  done;
  !best_overall

let check_size caller ctx =
  if Context.n ctx < 2 then
    invalid_arg (Printf.sprintf "Heuristics.%s: need at least 2 PoPs" caller)

let run_from ~star alg params ctx rng =
  match alg with
  | Complete -> run_rewired ~links:clique_links params ctx ~star
  | Mst_hubs -> run_rewired ~links:(mst_links ctx) params ctx ~star
  | Greedy_attachment -> run_greedy_attachment params ctx ~star
  | Random_greedy { permutations } ->
    run_random_greedy ~permutations params ctx rng ~star

let run alg params ctx rng =
  check_size "run" ctx;
  run_from ~star:(best_star params ctx) alg params ctx rng

let seed_set ?(permutations = 10) params ctx rng =
  check_size "seed_set" ctx;
  let star = best_star params ctx in
  fst star
  :: List.map
       (fun alg -> fst (run_from ~star alg params ctx rng))
       (all ~permutations)
