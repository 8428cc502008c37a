(* Growth study: because COLD's parameters are real costs, scaling scenarios
   are expressible directly (§1, challenge 3): a maturing ISP adds PoPs and
   carries more traffic, while its cost structure stays put. We watch the
   designed network change shape as the market grows.

   Run with:  dune exec examples/growth_study.exe *)

module Prng = Cold_prng.Prng
module Context = Cold_context.Context
module Summary = Cold_metrics.Summary
module Network = Cold_net.Network

let settings = Cold.Ga.settings_for ~population:40 ~generations:40

let design ~n ~traffic_multiplier ~seed =
  (* A young network in a burgeoning market: connectivity as cheaply as
     possible. The SAME cost parameters, applied to a bigger, busier
     context, yield a meshier network — the economics shift, not the
     model. *)
  let params = Cold.Cost.params ~k0:10.0 ~k1:1.0 ~k2:2e-4 ~k3:20.0 () in
  let cfg =
    { (Cold.Synthesis.default_config ~params ()) with
      Cold.Synthesis.ga = settings; heuristic_permutations = 3 }
  in
  let spec =
    { (Context.default_spec ~n) with
      Context.traffic_scale = Context.default_traffic_scale *. traffic_multiplier }
  in
  let rng = Prng.create seed in
  let ctx = Context.generate spec rng in
  Cold.Synthesis.design cfg ctx rng

let () =
  Printf.printf "%6s %9s | %7s %11s %6s %7s %13s\n" "PoPs" "traffic" "links"
    "avg degree" "hubs" "diam" "capacity";
  print_endline (String.make 70 '-');
  List.iter
    (fun (n, mult) ->
      let net = design ~n ~traffic_multiplier:mult ~seed:5 in
      let s = Summary.compute net.Network.graph in
      Printf.printf "%6d %8.0fx | %7d %11.2f %6d %7d %13.0f\n" n mult
        s.Summary.edges s.Summary.average_degree s.Summary.hubs
        s.Summary.diameter
        (Cold_net.Capacity.total net.Network.capacities))
    [ (10, 1.0); (15, 2.0); (20, 4.0); (25, 8.0); (30, 16.0) ];
  print_endline
    "\nas the market grows, bandwidth economics (k2 x traffic) overtake the\n\
     fixed link costs: the design gains links, hubs multiply, and the\n\
     diameter stays controlled — intuitive and sensible scaling (paper §8)."
