(* Layered design: synthesize the PoP level with COLD, then expand each PoP
   with a traffic-sized template into a router-level network (§1: "the
   generation of the router-level network from the PoP level can be easily
   accomplished using ... structural methods").

   Run with:  dune exec examples/router_level.exe *)

module Graph = Cold_graph.Graph
module Network = Cold_net.Network
module Template = Cold_router.Template
module Expand = Cold_router.Expand

let () =
  let params = Cold.Cost.params ~k2:3e-4 ~k3:50.0 () in
  let cfg =
    {
      (Cold.Synthesis.default_config ~params ()) with
      Cold.Synthesis.ga = Cold.Ga.settings_for ~population:40 ~generations:40;
      heuristic_permutations = 3;
    }
  in
  let spec =
    {
      (Cold_context.Context.default_spec ~n:15) with
      (* Pareto populations spread PoP traffic shares, so templates differ —
         exactly the paper's observation that the router level is more
         sensitive to the traffic model than the PoP level (§3.1). *)
      Cold_context.Context.population = Cold_traffic.Population.pareto_moderate;
    }
  in
  let net = Cold.Synthesis.synthesize cfg spec ~seed:11 in
  let r = Expand.expand net in
  Printf.printf "PoP level:    %3d nodes, %3d links\n"
    (Graph.node_count net.Network.graph)
    (Graph.edge_count net.Network.graph);
  Printf.printf "router level: %3d nodes, %3d links\n\n"
    (Expand.router_count r)
    (Graph.edge_count r.Expand.graph);
  Printf.printf "%5s %-14s %8s %6s\n" "PoP" "template" "routers" "cores";
  Array.iteri
    (fun pop t ->
      let name =
        match t with
        | Template.Single -> "single"
        | Template.Dual -> "dual"
        | Template.Full { access } -> Printf.sprintf "full+%d" access
      in
      Printf.printf "%5d %-14s %8d %6d\n" pop name (Template.router_count t)
        (List.length (Template.core_indices t)))
    r.Expand.templates;
  (* Check the expansion kept the network usable. *)
  Printf.printf "\nrouter-level connected: %b\n"
    (Cold_graph.Traversal.is_connected r.Expand.graph)
