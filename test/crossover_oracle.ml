(* The GA crossover as it stood before it learned to skip draws: one
   Dist.choose_weighted draw per vertex pair, C(n,2) in all, each copying
   the drawn parent's bit with Graph.mem_edge. Kept verbatim as the
   reference Operators.crossover must match, child for child and draw for
   draw.

   Nothing here is fast or shared with the library's operators; that is
   the point. *)

module Graph = Cold_graph.Graph
module Dist = Cold_prng.Dist

let inverse_cost_weights pop =
  let w =
    Array.map
      (fun (_, c) -> if Float.is_finite c && c > 0.0 then 1.0 /. c else 0.0)
      pop
  in
  (* A custom objective can render a whole pool infeasible (e.g. frozen
     legacy links): fall back to uniform choice rather than failing. *)
  if Array.for_all (fun x -> Float.equal x 0.0) w then Array.map (fun _ -> 1.0) w else w

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
  ignore (Cold.Repair.repair ctx child);
  child
