module Graph = Cold_graph.Graph
module Shortest_path = Cold_graph.Shortest_path
module Context = Cold_context.Context

type t = {
  graph : Graph.t;
  context : Context.t;
  loads : Routing.loads;
  capacities : Capacity.t;
}

let build ?(policy = Capacity.default) ctx g =
  if Graph.node_count g <> Context.n ctx then
    invalid_arg "Network.build: graph size does not match context";
  let length u v = Context.distance ctx u v in
  let loads = Routing.route g ~length ~tm:ctx.Context.tm in
  { graph = g; context = ctx; loads; capacities = Capacity.assign policy loads }

let link_length net u v = Context.distance net.context u v

let total_link_length net =
  Graph.fold_edges net.graph (fun acc u v -> acc +. link_length net u v) 0.0

let path net s d =
  let n = Graph.node_count net.graph in
  if s < 0 || d < 0 || s >= n || d >= n then invalid_arg "Network.path";
  if s = d then [ s ]
  else begin
    (* Pairs are carried on the tree rooted at the smaller endpoint, matching
       how Routing accumulated loads. *)
    let root = min s d and other = max s d in
    let tree = (Routing.trees net.loads).(root) in
    match Shortest_path.path tree other with
    | None -> invalid_arg "Network.path: unreachable (network disconnected?)"
    | Some p -> if root = s then p else List.rev p
  end

let path_length net s d =
  let rec walk = function
    | [] | [ _ ] -> 0.0
    | u :: (v :: _ as rest) -> link_length net u v +. walk rest
  in
  walk (path net s d)

let pp_summary fmt net =
  let g = net.graph in
  Format.fprintf fmt
    "@[<v>PoPs: %d@ links: %d@ total link length: %.4f@ total capacity: %.1f@ \
     max link load: %.1f@ utilization: %.3f@]"
    (Graph.node_count g) (Graph.edge_count g) (total_link_length net)
    (Capacity.total net.capacities)
    (Routing.max_load net.loads)
    (Capacity.utilization net.capacities net.loads)
