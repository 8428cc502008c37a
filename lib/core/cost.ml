module Graph = Cold_graph.Graph
module Shortest_path = Cold_graph.Shortest_path
module Context = Cold_context.Context
module Routing = Cold_net.Routing
module Incremental = Cold_net.Incremental

type params = { k0 : float; k1 : float; k2 : float; k3 : float }

type breakdown = {
  existence : float;
  length : float;
  bandwidth : float;
  hub : float;
  total : float;
}

(* lint: allow magic-cost-constant — these defaults are the canonical values. *)
let params ?(k0 = 10.0) ?(k1 = 1.0) ?(k2 = 1e-4) ?(k3 = 0.0) () =
  if k0 < 0.0 || k1 < 0.0 || k2 < 0.0 || k3 < 0.0 then
    invalid_arg "Cost.params: costs must be non-negative";
  { k0; k1; k2; k3 }

let infeasible =
  { existence = infinity; length = infinity; bandwidth = infinity;
    hub = infinity; total = infinity }

(* The cost fold, shared by every evaluation path. One pass over the links
   serves both length-dependent terms: each link's length feeds the k1 sum
   and, scaled by its load, the k2 sum. Links are visited u < v in
   lexicographic order — CSR rows are ascending — so each accumulator adds
   the same values in the same order as a fold over Graph.iter_edges. It is
   a plain loop over arrays: a closure would capture the accumulators and
   box every float they take. *)
let fold p ~n (csr : Graph.Csr.t) ~lengths ~loads ~edges ~cores =
  let len = ref 0.0 and vl = ref 0.0 in
  for u = 0 to n - 1 do
    for k = csr.offsets.(u) to csr.offsets.(u + 1) - 1 do
      let v = csr.targets.(k) in
      if v > u then begin
        let l = lengths.((u * n) + v) in
        len := !len +. l;
        let w = loads.((u * n) + v) in
        if w > 0.0 then vl := !vl +. (w *. l)
      end
    done
  done;
  let existence = p.k0 *. float_of_int edges in
  let bandwidth = p.k2 *. !vl in
  let hub = p.k3 *. float_of_int cores in
  let length_cost = p.k1 *. !len in
  {
    existence;
    length = length_cost;
    bandwidth;
    hub;
    total = existence +. length_cost +. bandwidth +. hub;
  }

(* Route every source through the per-source step into the domain's
   scratch, with no trees built, then fold. Only a few words are allocated
   (the view's record and the result), the same at every n. *)
let evaluate_breakdown p ctx g =
  let n = Context.n ctx in
  if Graph.node_count g <> n then
    invalid_arg "Cost.evaluate: graph size does not match context";
  let lengths = Context.lengths ctx in
  let sp = Shortest_path.scratch ~n in
  let csr = Shortest_path.view sp g in
  let edge_lengths = Shortest_path.edge_lengths_of_matrix sp csr lengths in
  match
    Routing.route_loads sp csr ~lengths:edge_lengths ~tm:ctx.Context.tm
  with
  | exception Routing.Disconnected -> infeasible
  | loads ->
    fold p ~n csr ~lengths ~loads ~edges:(Graph.edge_count g)
      ~cores:(Graph.core_count g)

let evaluate p ctx g = (evaluate_breakdown p ctx g).total

let state ctx g =
  if Graph.node_count g <> Context.n ctx then
    invalid_arg "Cost.state: graph size does not match context";
  Incremental.create g
    ~length:(fun u v -> Context.distance ctx u v)
    ~tm:ctx.Context.tm

let evaluate_state p ctx st =
  let g = Incremental.graph st in
  let n = Context.n ctx in
  if Graph.node_count g <> n then
    invalid_arg "Cost.evaluate_state: graph size does not match context";
  match Incremental.loads st with
  | exception Routing.Disconnected -> infinity
  | loads ->
    let csr = Shortest_path.view (Shortest_path.scratch ~n) g in
    (fold p ~n csr ~lengths:(Context.lengths ctx) ~loads:(Routing.matrix loads)
       ~edges:(Graph.edge_count g) ~cores:(Graph.core_count g))
      .total

let pp_params fmt p =
  Format.fprintf fmt "{k0=%g; k1=%g; k2=%g; k3=%g}" p.k0 p.k1 p.k2 p.k3

let pp_breakdown fmt b =
  Format.fprintf fmt
    "total=%.4f (existence=%.4f length=%.4f bandwidth=%.4f hub=%.4f)" b.total
    b.existence b.length b.bandwidth b.hub
