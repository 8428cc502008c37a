(* Multi-AS extension (§2): several providers share the same cities; each
   designs its own network over its footprint, and AS pairs interconnect at
   shared cities.

   Run with:  dune exec examples/multi_as_demo.exe *)

module Multi_as = Cold.Multi_as
module Graph = Cold_graph.Graph
module Network = Cold_net.Network

let () =
  let cfg =
    {
      (Multi_as.default_config ~ases:3 ~cities:30 ()) with
      Multi_as.synthesis =
        {
          (Cold.Synthesis.default_config
             ~params:(Cold.Cost.params ~k2:2e-4 ~k3:20.0 ())
             ())
          with
          Cold.Synthesis.ga = Cold.Ga.settings_for ~population:30 ~generations:30;
          heuristic_permutations = 2;
        };
      presence = 0.55;
    }
  in
  let world = Multi_as.synthesize cfg ~seed:17 in
  Printf.printf "shared geography: %d cities\n\n"
    (Array.length world.Multi_as.city_points);
  Array.iter
    (fun (asn : Multi_as.as_network) ->
      let g = asn.Multi_as.network.Network.graph in
      Printf.printf "AS %d: present in %2d cities, %2d links, avg degree %.2f\n"
        asn.Multi_as.as_id
        (Array.length asn.Multi_as.cities)
        (Graph.edge_count g)
        (Cold_metrics.Degree.average g))
    world.Multi_as.ases;
  Printf.printf "\ninterconnects (chosen at the busiest shared cities):\n";
  List.iter
    (fun ic ->
      Printf.printf "  AS%d <-> AS%d at city %d\n" ic.Multi_as.a ic.Multi_as.b
        ic.Multi_as.city)
    world.Multi_as.interconnects;
  List.iter
    (fun (a, b) ->
      Printf.printf "AS%d/AS%d share %d cities\n" a b
        (List.length (Multi_as.shared_cities world a b)))
    [ (0, 1); (0, 2); (1, 2) ]
