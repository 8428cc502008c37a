module Graph = Cold_graph.Graph
module Shortest_path = Cold_graph.Shortest_path
module Gravity = Cold_traffic.Gravity

exception Disconnected

type loads = {
  n : int;
  matrix : float array;  (* n*n, both (u,v) and (v,u) mirror the value *)
  trees : Shortest_path.tree array;
}

let of_parts ~n ~matrix ~trees =
  if Array.length matrix <> n * n || Array.length trees <> n then
    invalid_arg "Routing.of_parts";
  { n; matrix; trees }

(* One domain's accumulation buffers: the load matrix a tree-less pass
   writes, the subtree accumulator and one source's pair-demand row. *)
type scratch = {
  sn : int;
  s_matrix : float array;
  s_subtree : float array;
  s_pair : float array;
}

let dls_scratch : scratch option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let scratch ~n =
  match Domain.DLS.get dls_scratch with
  | Some rs when rs.sn = n -> rs
  | _ ->
    let rs =
      {
        sn = n;
        s_matrix = Array.make (n * n) 0.0;
        s_subtree = Array.make (max n 1) 0.0;
        s_pair = Array.make (max n 1) 0.0;
      }
    in
    Domain.DLS.set dls_scratch (Some rs);
    rs

let check_routable ~tm ~dist ~source =
  (* Every demand from [source] must be routable. The distance test comes
     first, so demands are only looked up for unreached destinations. *)
  let n = Gravity.size tm in
  for d = 0 to n - 1 do
    if Float.equal dist.(d) infinity && Gravity.demand tm source d > 0.0 then
      raise Disconnected
  done

(* What an ECMP split needs beyond the tree: the distances, a neighbour
   view and the length function. *)
type ecmp = {
  e_dist : float array;
  e_csr : Graph.Csr.t;
  e_length : int -> int -> float;
}

let[@inline] add_load matrix n u v w =
  matrix.((u * n) + v) <- matrix.((u * n) + v) +. w;
  matrix.((v * n) + u) <- matrix.((u * n) + v)

(* ECMP: every neighbour on a shortest path shares [v]'s subtree equally. *)
let split_ecmp e ~matrix ~subtree ~n ~pred ~source v =
  let dist = e.e_dist and length = e.e_length in
  let on_path u =
    dist.(u) +. length u v <= dist.(v) +. (1e-9 *. (1.0 +. dist.(v)))
    && dist.(u) < dist.(v)
  in
  let preds =
    Graph.Csr.fold_neighbors e.e_csr v
      (fun acc u -> if on_path u then u :: acc else acc)
      []
  in
  (* Degenerate geometries (zero-length links) can leave the strict
     distance test empty; fall back to the tree predecessor. *)
  let preds = if preds = [] then [ pred.(v) ] else preds in
  let share = subtree.(v) /. float_of_int (List.length preds) in
  List.iter
    (fun u ->
      add_load matrix n u v share;
      if u <> source then subtree.(u) <- subtree.(u) +. share)
    preds

(* The one accumulation. Reverse settling order: children are processed
   before parents, so each vertex's inflow is complete when it is pushed
   one hop towards [source]. Demands s→d and d→s are both accumulated here
   ([pair.(base + d)] is their sum), and every unordered pair is counted
   once, at its smaller endpoint's tree, through the [v > source] filter.
   The single-path case allocates nothing. *)
let accumulate_order ~ecmp ~matrix ~subtree ~n ~pair ~base ~pred ~order ~count
    ~source =
  Array.fill subtree 0 n 0.0;
  for i = count - 1 downto 0 do
    let v = order.(i) in
    if v <> source then begin
      if v > source then subtree.(v) <- subtree.(v) +. pair.(base + v);
      if subtree.(v) > 0.0 then
        match ecmp with
        | Some e -> split_ecmp e ~matrix ~subtree ~n ~pred ~source v
        | None ->
          let p = pred.(v) in
          add_load matrix n p v subtree.(v);
          if p <> source then subtree.(p) <- subtree.(p) +. subtree.(v)
    end
  done

let accumulate ?csr ?pair_demands ~multipath ~length ~tm ~matrix ~subtree
    ~n tree ~source =
  let (pair, base) =
    match pair_demands with
    | Some pd -> (pd, source * n)
    | None ->
      let row = Array.make (max n 1) 0.0 in
      Gravity.pair_demand_row tm source row;
      (row, 0)
  in
  let dist = tree.Shortest_path.dist and order = tree.Shortest_path.order in
  let ecmp =
    match (multipath, csr) with
    | (false, _) -> None
    | (true, Some csr) -> Some { e_dist = dist; e_csr = csr; e_length = length }
    | (true, None) -> invalid_arg "Routing.accumulate: multipath needs ~csr"
  in
  accumulate_order ~ecmp ~matrix ~subtree ~n ~pair ~base
    ~pred:tree.Shortest_path.pred ~order ~count:(Array.length order) ~source

(* The per-source step over every source, sources in order 0..n-1: settle
   into the domain's Dijkstra scratch, check routability (only a partial
   settle can strand a demand), accumulate into [matrix]. [trees], when
   non-empty, receives a copy of each tree. *)
let pass sp (csr : Graph.Csr.t) ~lengths ~tm ~ecmp ~matrix ~trees =
  let n = Graph.Csr.node_count csr in
  let rs = scratch ~n in
  let t = Shortest_path.settled_tree sp in
  Array.fill matrix 0 (n * n) 0.0;
  for s = 0 to n - 1 do
    let count = Shortest_path.settle sp csr ~lengths ~source:s in
    if count < n then check_routable ~tm ~dist:t.Shortest_path.dist ~source:s;
    Gravity.pair_demand_row tm s rs.s_pair;
    accumulate_order ~ecmp ~matrix ~subtree:rs.s_subtree ~n ~pair:rs.s_pair
      ~base:0 ~pred:t.Shortest_path.pred ~order:t.Shortest_path.order ~count
      ~source:s;
    if Array.length trees > 0 then trees.(s) <- Shortest_path.copy_tree sp count
  done

let route_loads sp csr ~lengths ~tm =
  let n = Graph.Csr.node_count csr in
  if Gravity.size tm <> n then invalid_arg "Routing.route_loads: size mismatch";
  let matrix = (scratch ~n).s_matrix in
  pass sp csr ~lengths ~tm ~ecmp:None ~matrix ~trees:[||];
  matrix

let route ?(multipath = false) g ~length ~tm =
  let n = Graph.node_count g in
  if Gravity.size tm <> n then invalid_arg "Routing.route: size mismatch";
  let sp = Shortest_path.scratch ~n in
  let csr = Shortest_path.view sp g in
  let lengths = Shortest_path.edge_lengths sp csr ~length in
  let ecmp =
    if multipath then
      Some
        {
          e_dist = (Shortest_path.settled_tree sp).Shortest_path.dist;
          e_csr = csr;
          e_length = length;
        }
    else None
  in
  let matrix = Array.make (n * n) 0.0 in
  let empty = { Shortest_path.dist = [||]; pred = [||]; order = [||] } in
  let trees = Array.make n empty in
  pass sp csr ~lengths ~tm ~ecmp ~matrix ~trees;
  { n; matrix; trees }

let load ld u v =
  if u < 0 || v < 0 || u >= ld.n || v >= ld.n then invalid_arg "Routing.load";
  ld.matrix.((u * ld.n) + v)

let matrix ld = ld.matrix

let fold ld f init =
  let acc = ref init in
  for u = 0 to ld.n - 1 do
    for v = u + 1 to ld.n - 1 do
      let w = ld.matrix.((u * ld.n) + v) in
      if w > 0.0 then acc := f !acc u v w
    done
  done;
  !acc

let total_volume_length ld ~length =
  fold ld (fun acc u v w -> acc +. (w *. length u v)) 0.0

let max_load ld = Array.fold_left Float.max 0.0 ld.matrix

let trees ld = ld.trees
