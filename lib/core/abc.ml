module Prng = Cold_prng.Prng
module Dist = Cold_prng.Dist
module Context = Cold_context.Context
module Summary = Cold_metrics.Summary

type observation = {
  n : int;
  average_degree : float;
  global_clustering : float;
  cvnd : float;
  diameter : float;
}

type prior = {
  k0_range : float * float;
  k2_range : float * float;
  k3_range : float * float;
}

type posterior_sample = { params : Cost.params; distance : float }

let observe g =
  let s = Summary.compute g in
  {
    n = s.Summary.nodes;
    average_degree = s.Summary.average_degree;
    global_clustering = s.Summary.global_clustering;
    cvnd = s.Summary.cvnd;
    diameter = float_of_int s.Summary.diameter;
  }

let default_prior =
  { k0_range = (1.0, 100.0); k2_range = (1e-5, 1e-2); k3_range = (0.1, 1000.0) }

let log_uniform rng (lo, hi) =
  if lo <= 0.0 || hi <= lo then invalid_arg "Abc: bad prior range";
  exp (Dist.uniform rng ~lo:(log lo) ~hi:(log hi))

let distance obs sim =
  (* Relative error per statistic; clustering and CVND are already O(1) so a
     floor keeps near-zero observations from exploding the scale. *)
  let term o s =
    let scale = Float.max 0.25 (Float.abs o) in
    let d = (s -. o) /. scale in
    d *. d
  in
  sqrt
    (term obs.average_degree sim.average_degree
    +. term obs.global_clustering sim.global_clustering
    +. term obs.cvnd sim.cvnd
    +. term obs.diameter sim.diameter)
  /. 2.0

let reduced_ga = Ga.settings_for ~population:40 ~generations:40

(* The paper fixes k1 as the unit of cost; ABC infers only k0, k2, k3. *)
let unit_k1 = 1.0

let infer ?(domains = 1) ?(prior = default_prior) ?(trials = 200)
    ?(epsilon = 0.35) ?(ga = reduced_ga) obs ~seed =
  if obs.n < 2 then invalid_arg "Abc.infer: observation too small";
  if trials < 1 then invalid_arg "Abc.infer: trials must be positive";
  let root = Prng.create seed in
  let spec = Context.default_spec ~n:obs.n in
  (* Each trial owns a child PRNG stream, so trials are independent tasks;
     acceptances are then folded in trial order, reproducing the sequential
     accumulation (and the stable sort's ordering of equal distances)
     exactly. *)
  let simulate trial =
    let rng = Prng.split_at root trial in
    let k0 = log_uniform rng prior.k0_range in
    let k2 = log_uniform rng prior.k2_range in
    let k3_raw = log_uniform rng prior.k3_range in
    (* Keep posterior mass at "no hub cost": small draws collapse to 0 on a
       coin flip. *)
    let k3 = if k3_raw < 1.0 && Prng.bool rng then 0.0 else k3_raw in
    let params = Cost.params ~k0 ~k1:unit_k1 ~k2 ~k3 () in
    let cfg =
      { (Synthesis.default_config ~params ()) with Synthesis.ga;
        seed_with_heuristics = false }
    in
    let ctx = Context.generate spec rng in
    let result = Synthesis.design_ga cfg ctx rng in
    let sim = observe result.Ga.best in
    let d = distance obs sim in
    if d <= epsilon then Some { params; distance = d } else None
  in
  let outcomes =
    Cold_par.Par.with_pool ~domains (fun pool ->
        Cold_par.Par.map_array pool simulate (Array.init trials (fun i -> i)))
  in
  let accepted =
    Array.fold_left
      (fun acc outcome ->
        match outcome with Some s -> s :: acc | None -> acc)
      [] outcomes
  in
  List.sort (fun a b -> Float.compare a.distance b.distance) accepted

let posterior_mean = function
  | [] -> None
  | samples ->
    let k = float_of_int (List.length samples) in
    let geo f =
      exp
        (List.fold_left (fun acc s -> acc +. log (Float.max 1e-12 (f s.params)))
           0.0 samples
        /. k)
    in
    let arith f = List.fold_left (fun acc s -> acc +. f s.params) 0.0 samples /. k in
    Some
      (Cost.params ~k0:(geo (fun p -> p.Cost.k0)) ~k1:unit_k1
         ~k2:(geo (fun p -> p.Cost.k2))
         ~k3:(arith (fun p -> p.Cost.k3))
         ())
