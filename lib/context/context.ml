module Region = Cold_geom.Region
module Point_process = Cold_geom.Point_process
module Distmat = Cold_geom.Distmat
module Population = Cold_traffic.Population
module Gravity = Cold_traffic.Gravity

type spec = {
  n : int;
  region : Region.t;
  point_process : Point_process.spec;
  population : Population.model;
  traffic_scale : float;
}

type t = {
  spec : spec;
  points : Cold_geom.Point.t array;
  dist : Distmat.t;
  tm : Gravity.t;
}

(* The paper's printed parameter ranges (k0 = 10, k1 = 1, k2 in 2.5e-5 ..
   1.6e-3, k3 in 1 .. 1000) are only meaningful relative to the length and
   traffic units, which the paper does not pin down (its "unit square" cannot
   be literal: with k1 = 1 the total-length term would be negligible against
   k0 = 10 and k3 = 1 would already collapse networks to stars). A 50 x 50
   region with gravity scale 0.4 reproduces the published figure ranges; see
   DESIGN.md ("traffic and length calibration"). *)
let default_region = Region.rectangle ~aspect:1.0 ~area:2500.0

let default_traffic_scale = 0.4

let default_spec ~n =
  {
    n;
    region = default_region;
    point_process = Point_process.Uniform;
    population = Population.default;
    traffic_scale = default_traffic_scale;
  }

let generate spec g =
  if spec.n < 0 then invalid_arg "Context.generate: negative n";
  let points =
    Point_process.generate spec.point_process ~region:spec.region ~n:spec.n g
  in
  let pops = Population.generate spec.population ~n:spec.n g in
  {
    spec;
    points;
    dist = Distmat.of_points points;
    tm = Gravity.of_populations ~scale:spec.traffic_scale pops;
  }

let of_points_and_populations ?(traffic_scale = 1.0) points pops =
  if Array.length points <> Array.length pops then
    invalid_arg "Context.of_points_and_populations: length mismatch";
  let n = Array.length points in
  {
    spec = { (default_spec ~n) with traffic_scale };
    points = Array.copy points;
    dist = Distmat.of_points points;
    tm = Gravity.of_populations ~scale:traffic_scale pops;
  }

let n t = Array.length t.points

let distance t i j = Distmat.get t.dist i j

let lengths t = Distmat.matrix t.dist
