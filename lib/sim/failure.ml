module Prng = Cold_prng.Prng
module Dist = Cold_prng.Dist
module Context = Cold_context.Context
module Network = Cold_net.Network
module Survivability = Cold_net.Survivability
module Par = Cold_par.Par
module Bootstrap = Cold_stats.Bootstrap

type rates = {
  link_rate : float;
  node_rate : float;
  regional_rate : float;
  regional_radius : float;
}

let default_rates =
  { link_rate = 0.01; node_rate = 0.005; regional_rate = 0.02;
    regional_radius = 10.0 }

type event = {
  step : int;
  down_nodes : int array;
  down_links : (int * int) array;
}

type trace = { seed : int; rates : rates; n : int; events : event array }

let validate_rates r =
  let prob name p =
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg (Printf.sprintf "Failure: %s must be a probability" name)
  in
  prob "link_rate" r.link_rate;
  prob "node_rate" r.node_rate;
  prob "regional_rate" r.regional_rate;
  if not (r.regional_radius >= 0.0) then
    invalid_arg "Failure: regional_radius must be >= 0"

let generate ?(rates = default_rates) ~steps ctx ~seed =
  validate_rates rates;
  if steps < 0 then invalid_arg "Failure.generate: steps must be >= 0";
  let n = Context.n ctx in
  let base = Prng.create seed in
  (* One independent child stream per step (split_at does not advance the
     base generator), so a step's events depend only on (seed, step): the
     schedule can be regenerated, truncated or extended without shifting
     any other step's draws. Within a step the draw order is fixed —
     potential links in lexicographic pair order, then PoPs ascending, then
     the regional cut — making the whole trace a pure function of
     (seed, rates, context). *)
  let events =
    Array.init steps (fun step ->
        let rng = Prng.split_at base step in
        let links = ref [] in
        for u = 0 to n - 1 do
          for v = u + 1 to n - 1 do
            if Dist.bernoulli rng ~p:rates.link_rate then
              links := (u, v) :: !links
          done
        done;
        let node_down = Array.make n false in
        for v = 0 to n - 1 do
          if Dist.bernoulli rng ~p:rates.node_rate then node_down.(v) <- true
        done;
        if n > 0 && Dist.bernoulli rng ~p:rates.regional_rate then begin
          (* Geographically correlated cut: a uniformly drawn epicentre PoP
             takes down every PoP within the regional radius of it, itself
             included (its distance is 0) — one fibre-duct dig, one flooded
             metro area. *)
          let epicentre = Prng.int rng n in
          for j = 0 to n - 1 do
            if Context.distance ctx epicentre j <= rates.regional_radius then
              node_down.(j) <- true
          done
        end;
        let down_nodes = ref [] in
        for v = n - 1 downto 0 do
          if node_down.(v) then down_nodes := v :: !down_nodes
        done;
        {
          step;
          down_nodes = Array.of_list !down_nodes;
          down_links = Array.of_list (List.rev !links);
        })
  in
  { seed; rates; n; events }

let length trace = Array.length trace.events

let evaluate ?(domains = 1) (net : Network.t) trace =
  if Cold_graph.Graph.node_count net.Network.graph <> trace.n then
    invalid_arg "Failure.evaluate: trace size does not match network";
  Par.with_pool ~domains (fun pool ->
      Par.map_array pool
        (fun (e : event) ->
          Survivability.evaluate net
            ~down_nodes:(Array.to_list e.down_nodes)
            ~down_links:(Array.to_list e.down_links))
        trace.events)

type summary = {
  steps : int;
  availability : Bootstrap.interval;
  lost_traffic : Bootstrap.interval;
  mean_disconnected_pairs : float;
  mean_stretch : float;
  worst_delivered : float;
  partitioned_steps : int;
  overloaded_steps : int;
}

let summarize ?replicates rng (reports : Survivability.report array) =
  let steps = Array.length reports in
  if steps = 0 then invalid_arg "Failure.summarize: no reports";
  let delivered =
    Array.map (fun r -> r.Survivability.delivered_fraction) reports
  in
  let lost = Array.map (fun r -> r.Survivability.lost_fraction) reports in
  let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int steps in
  let count p = Array.fold_left (fun acc r -> if p r then acc + 1 else acc) 0 reports in
  {
    steps;
    availability = Bootstrap.mean_ci ?replicates rng delivered;
    lost_traffic = Bootstrap.mean_ci ?replicates rng lost;
    mean_disconnected_pairs =
      mean
        (Array.map
           (fun r -> float_of_int r.Survivability.disconnected_pairs)
           reports);
    mean_stretch = mean (Array.map (fun r -> r.Survivability.stretch) reports);
    worst_delivered = Array.fold_left Float.min infinity delivered;
    partitioned_steps =
      count (fun r -> r.Survivability.disconnected_pairs > 0);
    overloaded_steps = count (fun r -> r.Survivability.overloaded_links > 0);
  }

let pp_summary fmt s =
  Format.fprintf fmt
    "@[<v>steps: %d@ availability: %a@ lost traffic: %a@ mean disconnected \
     pairs: %.3f@ mean stretch: %.4f@ worst step delivered: %.4f@ \
     partitioned steps: %d@ overloaded steps: %d@]"
    s.steps Bootstrap.pp s.availability Bootstrap.pp s.lost_traffic
    s.mean_disconnected_pairs s.mean_stretch s.worst_delivered
    s.partitioned_steps s.overloaded_steps
