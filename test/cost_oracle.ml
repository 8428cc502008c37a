(* The evaluation pipeline as it stood before routing became one
   allocation-free per-source step, kept as the bitwise reference for
   Cost.evaluate, Cost.evaluate_breakdown and Routing.route: a fresh
   Dijkstra tree per source from a lazy-deletion queue, every tree first,
   then each source's accumulation, then the fused cost fold over
   Graph.iter_edges. The greedy heuristics below are the same historical
   code with every trial evaluation handed to a caller's function, so a
   test can hold each trial graph of a seed set against both paths.

   Nothing here is fast or shared with the library's routing code; that is
   the point. Even the queue is its own: a [Set] of (priority, vertex)
   pairs in the strict order the library's heap promises, so a heap that
   breaks that order cannot hide behind a reference built on it. *)

module Graph = Cold_graph.Graph
module Mst = Cold_graph.Mst
module Shortest_path = Cold_graph.Shortest_path
module Dist = Cold_prng.Dist
module Gravity = Cold_traffic.Gravity
module Context = Cold_context.Context
module Cost = Cold.Cost

exception Disconnected

(* --- routing ------------------------------------------------------------------ *)

(* The lazy-deletion queue: (priority, vertex) pairs, smallest priority
   first and the smaller vertex on an exact tie. *)
module Frontier = Set.Make (struct
  type t = float * int

  let compare (p, v) (q, w) =
    match Float.compare p q with 0 -> Int.compare v w | c -> c
end)

let dijkstra (csr : Graph.Csr.t) ~n ~length ~source =
  let settled = Array.make n false in
  let order = Array.make n (-1) in
  let frontier = ref Frontier.empty in
  let dist = Array.make n infinity in
  let pred = Array.make n (-1) in
  let count = ref 0 in
  dist.(source) <- 0.0;
  frontier := Frontier.add (0.0, source) !frontier;
  let relax u d v =
    if not settled.(v) then begin
      let nd = d +. length u v in
      if nd < dist.(v) then begin
        dist.(v) <- nd;
        pred.(v) <- u;
        frontier := Frontier.add (nd, v) !frontier
      end
      else if Float.equal nd dist.(v) && pred.(v) >= 0 && u < pred.(v) then
        pred.(v) <- u
    end
  in
  let rec drain () =
    match Frontier.min_elt_opt !frontier with
    | None -> ()
    | Some ((d, u) as top) ->
      frontier := Frontier.remove top !frontier;
      if not settled.(u) && d <= dist.(u) then begin
        settled.(u) <- true;
        order.(!count) <- u;
        incr count;
        for k = csr.offsets.(u) to csr.offsets.(u + 1) - 1 do
          relax u d csr.targets.(k)
        done
      end;
      drain ()
  in
  drain ();
  { Shortest_path.dist; pred; order = Array.sub order 0 !count }

let check_routable ~tm ~dist ~source =
  let n = Gravity.size tm in
  for d = 0 to n - 1 do
    if Gravity.demand tm source d > 0.0 && Float.equal dist.(d) infinity then
      raise Disconnected
  done

let accumulate ~csr ~multipath ~length ~tm ~matrix ~subtree ~n
    (tree : Shortest_path.tree) ~source =
  let s = source in
  let dist = tree.dist in
  let add_load u v w =
    matrix.((u * n) + v) <- matrix.((u * n) + v) +. w;
    matrix.((v * n) + u) <- matrix.((u * n) + v)
  in
  Array.fill subtree 0 n 0.0;
  let order = tree.order in
  for i = Array.length order - 1 downto 0 do
    let v = order.(i) in
    if v <> s then begin
      if v > s then subtree.(v) <- subtree.(v) +. Gravity.pair_demand tm s v;
      if subtree.(v) > 0.0 then begin
        if multipath then begin
          let on_path u =
            dist.(u) +. length u v <= dist.(v) +. (1e-9 *. (1.0 +. dist.(v)))
            && dist.(u) < dist.(v)
          in
          let preds =
            Graph.Csr.fold_neighbors csr v
              (fun acc u -> if on_path u then u :: acc else acc)
              []
          in
          let preds = if preds = [] then [ tree.pred.(v) ] else preds in
          let share = subtree.(v) /. float_of_int (List.length preds) in
          List.iter
            (fun u ->
              add_load u v share;
              if u <> s then subtree.(u) <- subtree.(u) +. share)
            preds
        end
        else begin
          let p = tree.pred.(v) in
          add_load p v subtree.(v);
          if p <> s then subtree.(p) <- subtree.(p) +. subtree.(v)
        end
      end
    end
  done

(* Every tree, then every accumulation: the load matrix (row-major n×n,
   mirrored) and the trees. Raises [Disconnected]. *)
let route ?(multipath = false) g ~length ~tm =
  let n = Graph.node_count g in
  let matrix = Array.make (n * n) 0.0 and subtree = Array.make (max n 1) 0.0 in
  let csr = Graph.Csr.of_graph g in
  let trees = Array.init n (fun s -> dijkstra csr ~n ~length ~source:s) in
  for s = 0 to n - 1 do
    let tree = trees.(s) in
    check_routable ~tm ~dist:tree.dist ~source:s;
    accumulate ~csr ~multipath ~length ~tm ~matrix ~subtree ~n tree ~source:s
  done;
  (matrix, trees)

(* --- cost --------------------------------------------------------------------- *)

let breakdown (p : Cost.params) ctx g : Cost.breakdown =
  let n = Context.n ctx in
  let length u v = Context.distance ctx u v in
  match route g ~length ~tm:ctx.Context.tm with
  | exception Disconnected ->
    { existence = infinity; length = infinity; bandwidth = infinity;
      hub = infinity; total = infinity }
  | (matrix, _) ->
    let existence = p.k0 *. float_of_int (Graph.edge_count g) in
    let len = ref 0.0 and vl = ref 0.0 in
    Graph.iter_edges g (fun u v ->
        let l = length u v in
        len := !len +. l;
        let w = matrix.((u * n) + v) in
        if w > 0.0 then vl := !vl +. (w *. l));
    let bandwidth = p.k2 *. !vl in
    let hub = p.k3 *. float_of_int (Graph.core_count g) in
    let length_cost = p.k1 *. !len in
    {
      existence;
      length = length_cost;
      bandwidth;
      hub;
      total = existence +. length_cost +. bandwidth +. hub;
    }

(* --- heuristics, each trial through [eval] --------------------------------------- *)

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

let hub_list hubs =
  let l = ref [] in
  Array.iteri (fun v is_hub -> if is_hub then l := v :: !l) hubs;
  !l

let build_clique_style ctx hubs =
  let g = Graph.create (Context.n ctx) in
  let hubs_l = hub_list hubs in
  List.iter
    (fun h -> List.iter (fun h' -> if h < h' then Graph.add_edge g h h') hubs_l)
    hubs_l;
  attach_leaves ctx g hubs;
  g

let build_mst_style ctx hubs =
  let g = Graph.create (Context.n ctx) in
  let hs = Array.of_list (List.rev (hub_list hubs)) in
  let k = Array.length hs in
  if k > 1 then begin
    let weight a b = Context.distance ctx hs.(a) hs.(b) in
    List.iter
      (fun (a, b) -> Graph.add_edge g hs.(a) hs.(b))
      (Mst.prim_complete ~n:k ~weight)
  end;
  attach_leaves ctx g hubs;
  g

let build_with_edges ctx hubs inter_edges =
  let g = Graph.create (Context.n ctx) in
  List.iter (fun (a, b) -> Graph.add_edge g a b) inter_edges;
  attach_leaves ctx g hubs;
  g

let best_star ~eval ctx =
  let n = Context.n ctx in
  let best = ref None in
  for hub = 0 to n - 1 do
    let hubs = Array.make n false in
    hubs.(hub) <- true;
    let g = build_clique_style ctx hubs in
    let c = eval g in
    match !best with
    | None -> best := Some (g, c)
    | Some (_, bc) -> if c < bc then best := Some (g, c)
  done;
  Option.get !best

let greedy_attach ~eval ctx hubs inter_edges new_hub =
  let targets = ref [] in
  Array.iteri
    (fun v is_hub -> if is_hub && v <> new_hub then targets := v :: !targets)
    hubs;
  let rec add_links edges cost targets =
    let best = ref None in
    List.iter
      (fun t ->
        let g = build_with_edges ctx hubs ((min new_hub t, max new_hub t) :: edges) in
        let c = eval g in
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

let drive ~eval ctx ~initial_hub ~wire =
  let n = Context.n ctx in
  let hubs = Array.make n false in
  hubs.(initial_hub) <- true;
  let inter_edges = ref [] in
  let current = ref (build_with_edges ctx hubs !inter_edges) in
  let current_cost = ref (eval !current) in
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

let star_hub star =
  let best = ref 0 in
  for v = 1 to Graph.node_count star - 1 do
    if Graph.degree star v > Graph.degree star !best then best := v
  done;
  !best

let run ~eval alg ctx rng =
  let (star, star_cost) = best_star ~eval ctx in
  let driven wire =
    let (g, c) = drive ~eval ctx ~initial_hub:(star_hub star) ~wire in
    if c <= star_cost then (g, c) else (star, star_cost)
  in
  match alg with
  | Cold.Heuristics.Complete ->
    driven (fun hubs _ _ ->
        let g = build_clique_style ctx hubs in
        (g, eval g, []))
  | Cold.Heuristics.Mst_hubs ->
    driven (fun hubs _ _ ->
        let g = build_mst_style ctx hubs in
        (g, eval g, []))
  | Cold.Heuristics.Greedy_attachment ->
    driven (fun hubs edges candidate ->
        let (edges', c) = greedy_attach ~eval ctx hubs edges candidate in
        (build_with_edges ctx hubs edges', c, edges'))
  | Cold.Heuristics.Random_greedy { permutations } ->
    let n = Context.n ctx in
    let initial_hub = star_hub star in
    let best_overall = ref (star, star_cost) in
    for _ = 1 to max 1 permutations do
      let hubs = Array.make n false in
      hubs.(initial_hub) <- true;
      let inter_edges = ref [] in
      let cost = ref (eval (build_with_edges ctx hubs !inter_edges)) in
      Array.iter
        (fun candidate ->
          if not hubs.(candidate) then begin
            hubs.(candidate) <- true;
            let (edges', c) = greedy_attach ~eval ctx hubs !inter_edges candidate in
            if c < !cost then begin
              inter_edges := edges';
              cost := c
            end
            else hubs.(candidate) <- false
          end)
        (Dist.permutation rng n);
      let g = build_with_edges ctx hubs !inter_edges in
      let c = eval g in
      if c < snd !best_overall then best_overall := (g, c)
    done;
    !best_overall

let seed_set ~eval ~permutations ctx rng =
  let (star, _) = best_star ~eval ctx in
  star
  :: List.map
       (fun alg -> fst (run ~eval alg ctx rng))
       (Cold.Heuristics.all ~permutations)
