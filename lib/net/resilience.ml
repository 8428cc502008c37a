module Graph = Cold_graph.Graph
module Robustness = Cold_graph.Robustness

type link_report = {
  link : int * int;
  stranded_fraction : float;
  load_fraction : float;
  is_bridge : bool;
}

(* A single failure's stranded fraction is what the survivability pass
   loses when it reroutes around that one component. *)
let stranded_by_link_failure (net : Network.t) u v =
  if not (Graph.mem_edge net.Network.graph u v) then 0.0
  else
    (Survivability.evaluate net ~down_nodes:[] ~down_links:[ (u, v) ])
      .Survivability.lost_fraction

let stranded_by_node_failure (net : Network.t) v =
  if v < 0 || v >= Graph.node_count net.Network.graph then
    invalid_arg "Resilience.stranded_by_node_failure";
  (Survivability.evaluate net ~down_nodes:[ v ] ~down_links:[])
    .Survivability.lost_fraction

let link_reports (net : Network.t) =
  let bridges = Robustness.bridges net.Network.graph in
  let total_volume =
    Routing.fold net.Network.loads (fun acc _ _ w -> acc +. w) 0.0
  in
  let reports =
    Graph.fold_edges net.Network.graph
      (fun acc u v ->
        let load = Routing.load net.Network.loads u v in
        {
          link = (u, v);
          stranded_fraction = stranded_by_link_failure net u v;
          load_fraction = (if total_volume > 0.0 then load /. total_volume else 0.0);
          is_bridge = List.mem (u, v) bridges;
        }
        :: acc)
      []
  in
  let report_order a b =
    match Float.compare (-.a.stranded_fraction) (-.b.stranded_fraction) with
    | 0 -> (
      match Float.compare (-.a.load_fraction) (-.b.load_fraction) with
      | 0 ->
        let (u1, v1) = a.link and (u2, v2) = b.link in
        (match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c)
      | c -> c)
    | c -> c
  in
  List.sort report_order reports

let worst_link net =
  match link_reports net with
  | [] -> invalid_arg "Resilience.worst_link: network has no links"
  | r :: _ -> r

let single_points_of_failure (net : Network.t) =
  Robustness.articulation_points net.Network.graph

let survivable (net : Network.t) =
  Robustness.is_two_edge_connected net.Network.graph
