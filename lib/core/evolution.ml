module Graph = Cold_graph.Graph
module Prng = Cold_prng.Prng
module Point_process = Cold_geom.Point_process
module Population = Cold_traffic.Population
module Gravity = Cold_traffic.Gravity
module Context = Cold_context.Context
module Network = Cold_net.Network

type step = { new_pops : int; traffic_growth : float }

type config = {
  params : Cost.params;
  decommission_cost : float;
  ga : Ga.settings;
}

type state = {
  context : Context.t;
  network : Network.t;
  installed : (int * int) list;
  cumulative_decommissions : int;
}

let default_config ?(params = Cost.params ()) () =
  {
    params;
    decommission_cost = 50.0;
    ga = Ga.settings_for ~population:50 ~generations:50;
  }

let greenfield cfg ctx rng =
  let seeds = Heuristics.seed_set cfg.params ctx rng in
  let result = Ga.run ~seeds cfg.ga cfg.params ctx rng in
  {
    context = ctx;
    network = Network.build ctx result.Ga.best;
    installed = Graph.edges result.Ga.best;
    cumulative_decommissions = 0;
  }

(* Objective with legacy charges: plain COLD cost plus decommission_cost per
   installed link the candidate drops. *)
let legacy_objective cfg ctx ~installed g =
  let base = Cost.evaluate cfg.params ctx g in
  if not (Float.is_finite base) then base
  else begin
    let dropped =
      List.fold_left
        (fun acc (u, v) -> if Graph.mem_edge g u v then acc else acc + 1)
        0 installed
    in
    base +. (cfg.decommission_cost *. float_of_int dropped)
  end

let evolve cfg state step rng =
  if step.new_pops < 0 then invalid_arg "Evolution.evolve: negative new_pops";
  if step.traffic_growth < 0.0 then
    invalid_arg "Evolution.evolve: negative traffic growth";
  let old_ctx = state.context in
  let spec = old_ctx.Context.spec in
  (* Extend the geography: old PoPs keep their indices. *)
  let new_points =
    Point_process.generate Point_process.Uniform ~region:spec.Context.region
      ~n:step.new_pops rng
  in
  let points = Array.append old_ctx.Context.points new_points in
  let new_pops_arr = Population.generate spec.Context.population ~n:step.new_pops rng in
  let populations = Array.append (Gravity.populations old_ctx.Context.tm) new_pops_arr in
  let traffic_scale = spec.Context.traffic_scale *. step.traffic_growth in
  let ctx = Context.of_points_and_populations ~traffic_scale points populations in
  let n = Array.length points in
  (* Legacy seed: installed plant plus cheap attachment of the new PoPs. *)
  let legacy = Graph.create n in
  List.iter (fun (u, v) -> Graph.add_edge legacy u v) state.installed;
  ignore (Repair.repair ctx legacy);
  let seeds = legacy :: Heuristics.seed_set cfg.params ctx rng in
  let objective = legacy_objective cfg ctx ~installed:state.installed in
  let result = Ga.run_custom ~seeds cfg.ga ~objective ctx rng in
  let best = result.Ga.best in
  let dropped =
    List.fold_left
      (fun acc (u, v) -> if Graph.mem_edge best u v then acc else acc + 1)
      0 state.installed
  in
  {
    context = ctx;
    network = Network.build ctx best;
    installed = Graph.edges best;
    cumulative_decommissions = state.cumulative_decommissions + dropped;
  }

let run cfg ~initial_n ~steps ~seed =
  let root = Prng.create seed in
  let ctx = Context.generate (Context.default_spec ~n:initial_n) (Prng.split_at root 0) in
  let initial = greenfield cfg ctx (Prng.split_at root 1) in
  let (_, states) =
    List.fold_left
      (fun (i, acc) step ->
        let prev = List.hd acc in
        let next = evolve cfg prev step (Prng.split_at root (i + 2)) in
        (i + 1, next :: acc))
      (0, [ initial ])
      steps
  in
  List.rev states

let legacy_penalty cfg state rng =
  let fresh = greenfield cfg state.context rng in
  let evolved_cost =
    Cost.evaluate cfg.params state.context state.network.Network.graph
  in
  let fresh_cost =
    Cost.evaluate cfg.params state.context fresh.network.Network.graph
  in
  (evolved_cost -. fresh_cost) /. fresh_cost
