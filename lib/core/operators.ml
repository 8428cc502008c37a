module Graph = Cold_graph.Graph
module Prng = Cold_prng.Prng
module Dist = Cold_prng.Dist
module Context = Cold_context.Context

let inverse_cost_weights pop =
  let w =
    Array.map
      (fun (_, c) -> if Float.is_finite c && c > 0.0 then 1.0 /. c else 0.0)
      pop
  in
  (* A custom objective can render a whole pool infeasible (e.g. frozen
     legacy links): fall back to uniform choice rather than failing. *)
  if Array.for_all (fun x -> Float.equal x 0.0) w then Array.map (fun _ -> 1.0) w else w

let select_inverse_cost pop rng =
  if Array.length pop = 0 then invalid_arg "Operators.select_inverse_cost: empty";
  Dist.choose_weighted rng (inverse_cost_weights pop)

let tournament ~pool ~winners pop rng =
  if pool < winners || winners < 1 then invalid_arg "Operators.tournament";
  let n = Array.length pop in
  if n = 0 then invalid_arg "Operators.tournament: empty population";
  let picks = Array.init pool (fun _ -> pop.(Prng.int rng n)) in
  Array.sort (fun (_, a) (_, b) -> Float.compare a b) picks;
  Array.sub picks 0 winners

let crossover ctx ~parents rng =
  if Array.length parents = 0 then invalid_arg "Operators.crossover: no parents";
  let weights = inverse_cost_weights parents in
  let n = Graph.node_count (fst parents.(0)) in
  let child = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let (parent, _) = parents.(Dist.choose_weighted rng weights) in
      if Graph.mem_edge parent u v then Graph.add_edge child u v
    done
  done;
  ignore (Repair.repair ctx child);
  child

let random_existing_edge g rng =
  let m = Graph.edge_count g in
  if m = 0 then None
  else
    (* Indexed lookup at the same lexicographic rank the old full edge scan
       selected, so every RNG trajectory is preserved. *)
    Some (Graph.nth_edge g (Prng.int rng m))

let random_absent_pair g rng =
  let n = Graph.node_count g in
  let total = n * (n - 1) / 2 in
  let absent = total - Graph.edge_count g in
  if absent = 0 then None
  else if 2 * absent >= total then begin
    (* Sparse regime (synthesis topologies live here): rejection sampling
       over uniform pairs succeeds in ~2 draws. This branch is verbatim the
       historical sampler, so every established RNG trajectory — and every
       golden output downstream of one — is preserved. *)
    let rec draw attempts =
      if attempts > 64 * total then None
      else begin
        let u = Prng.int rng n and v = Prng.int rng n in
        if u <> v && not (Graph.mem_edge g u v) then Some (min u v, max u v)
        else draw (attempts + 1)
      end
    in
    draw 0
  end
  else begin
    (* Dense regime: rejection degenerates (near-clique graphs used to spin
       for up to 64·C(n,2) draws — O(n²) RNG pulls per addition). A short
       burst keeps the common case cheap, then one uniform rank indexes
       straight into the r-th absent pair — O(n) via the forward-degree
       index, exact uniform distribution, never fails. *)
    let rec draw attempts =
      if attempts >= 64 then Some (Graph.nth_absent_pair g (Prng.int rng absent))
      else begin
        let u = Prng.int rng n and v = Prng.int rng n in
        if u <> v && not (Graph.mem_edge g u v) then Some (min u v, max u v)
        else draw (attempts + 1)
      end
    in
    draw 0
  end

let link_mutation ctx g rng =
  let removals = Dist.geometric rng ~p:0.5 in
  let additions = Dist.geometric rng ~p:0.5 in
  for _ = 1 to removals do
    match random_existing_edge g rng with
    | Some (u, v) -> Graph.remove_edge g u v
    | None -> ()
  done;
  for _ = 1 to additions do
    match random_absent_pair g rng with
    | Some (u, v) -> Graph.add_edge g u v
    | None -> ()
  done;
  ignore (Repair.repair ctx g)

let node_mutation ctx g rng =
  let non_leaves = Array.of_list (Graph.core_nodes g) in
  let k = Array.length non_leaves in
  if k > 0 then begin
    let v = non_leaves.(Prng.int rng k) in
    Graph.remove_all_edges_of g v;
    (* Closest non-leaf node other than v; degrees shift after detaching, so
       use the pre-mutation core set. *)
    let best = ref None in
    Array.iter
      (fun u ->
        if u <> v then
          match !best with
          | None -> best := Some u
          | Some b ->
            if Context.distance ctx v u < Context.distance ctx v b then
              best := Some u)
      non_leaves;
    (match !best with
    | Some u -> Graph.add_edge g v u
    | None ->
      (* v was the only hub (pure star): reattach to the nearest node. *)
      (match Cold_geom.Distmat.nearest ctx.Context.dist v ~except:(fun _ -> false) with
      | Some u -> Graph.add_edge g v u
      | None -> ()));
    ignore (Repair.repair ctx g)
  end
