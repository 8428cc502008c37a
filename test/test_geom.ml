(* Tests for Cold_geom: points, regions, point processes, distance matrix. *)

module Prng = Cold_prng.Prng
module Point = Cold_geom.Point
module Region = Cold_geom.Region
module Point_process = Cold_geom.Point_process
module Distmat = Cold_geom.Distmat

let feq = Alcotest.(check (float 1e-9))

let test_distance () =
  feq "3-4-5 triangle" 5.0 (Point.distance (Point.make 0.0 0.0) (Point.make 3.0 4.0));
  feq "zero distance" 0.0 (Point.distance (Point.make 1.0 1.0) (Point.make 1.0 1.0));
  feq "distance_sq" 25.0 (Point.distance_sq (Point.make 0.0 0.0) (Point.make 3.0 4.0))

let test_midpoint () =
  let m = Point.midpoint (Point.make 0.0 0.0) (Point.make 2.0 4.0) in
  feq "mid x" 1.0 m.Point.x;
  feq "mid y" 2.0 m.Point.y

let test_point_equal_pp () =
  Alcotest.(check bool) "equal" true (Point.equal (Point.make 1.0 2.0) (Point.make 1.0 2.0));
  Alcotest.(check bool) "not equal" false (Point.equal (Point.make 1.0 2.0) (Point.make 2.0 1.0));
  Alcotest.(check string) "pp" "(1.0000, 2.0000)"
    (Format.asprintf "%a" Point.pp (Point.make 1.0 2.0))

let test_unit_square_sampling () =
  let g = Prng.create 1 in
  for _ = 1 to 1000 do
    let p = Region.sample Region.unit_square g in
    Alcotest.(check bool) "in region" true (Region.contains Region.unit_square p)
  done

let test_rectangle () =
  let r = Region.rectangle ~aspect:4.0 ~area:1.0 in
  feq "area" 1.0 (Region.area r);
  (match r with
  | Region.Rectangle { width; height } ->
    feq "aspect" 4.0 (width /. height)
  | _ -> Alcotest.fail "expected rectangle");
  let g = Prng.create 2 in
  for _ = 1 to 500 do
    Alcotest.(check bool) "sample inside" true (Region.contains r (Region.sample r g))
  done;
  Alcotest.check_raises "bad aspect"
    (Invalid_argument "Region.rectangle: aspect and area must be positive") (fun () ->
      ignore (Region.rectangle ~aspect:0.0 ~area:1.0))

let test_disk () =
  let d = Region.disk ~radius:2.0 in
  feq "diameter" 4.0 (Region.diameter d);
  let g = Prng.create 3 in
  for _ = 1 to 500 do
    Alcotest.(check bool) "sample inside" true (Region.contains d (Region.sample d g))
  done

let test_region_diameter () =
  feq "unit square diagonal" (sqrt 2.0) (Region.diameter Region.unit_square);
  let r = Region.rectangle ~aspect:1.0 ~area:4.0 in
  feq "2x2 diagonal" (2.0 *. sqrt 2.0) (Region.diameter r)

let test_uniform_process () =
  let g = Prng.create 4 in
  let pts =
    Point_process.generate Point_process.Uniform ~region:Region.unit_square ~n:100 g
  in
  Alcotest.(check int) "count" 100 (Array.length pts);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "inside" true (Region.contains Region.unit_square p))
    pts

let test_uniform_process_deterministic () =
  let gen () =
    Point_process.generate Point_process.Uniform ~region:Region.unit_square ~n:10
      (Prng.create 99)
  in
  let a = gen () and b = gen () in
  Array.iteri
    (fun i p -> Alcotest.(check bool) "same points" true (Point.equal p b.(i)))
    a

let test_bursty_process () =
  let g = Prng.create 5 in
  let spec = Point_process.Bursty { clusters = 4; sigma = 0.05 } in
  let pts = Point_process.generate spec ~region:Region.unit_square ~n:80 g in
  Alcotest.(check int) "count" 80 (Array.length pts);
  Array.iter
    (fun p -> Alcotest.(check bool) "inside" true (Region.contains Region.unit_square p))
    pts

let test_bursty_is_clustered () =
  (* Mean nearest-neighbour distance should be smaller for the bursty process
     than for uniform at the same intensity. *)
  let nn_mean pts =
    let d = Distmat.of_points pts in
    let n = Distmat.size d in
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      match Distmat.nearest d i ~except:(fun _ -> false) with
      | Some j -> total := !total +. Distmat.get d i j
      | None -> ()
    done;
    !total /. float_of_int n
  in
  let uniform =
    Point_process.generate Point_process.Uniform ~region:Region.unit_square ~n:200
      (Prng.create 6)
  in
  let bursty =
    Point_process.generate
      (Point_process.Bursty { clusters = 5; sigma = 0.02 })
      ~region:Region.unit_square ~n:200 (Prng.create 7)
  in
  Alcotest.(check bool) "bursty has closer neighbours" true
    (nn_mean bursty < nn_mean uniform)

let test_bursty_invalid () =
  let g = Prng.create 8 in
  Alcotest.check_raises "no clusters"
    (Invalid_argument "Point_process: clusters must be positive") (fun () ->
      ignore
        (Point_process.generate
           (Point_process.Bursty { clusters = 0; sigma = 0.1 })
           ~region:Region.unit_square ~n:10 g))

let test_jittered_grid () =
  let g = Prng.create 9 in
  let pts =
    Point_process.generate
      (Point_process.Jittered_grid { jitter = 0.2 })
      ~region:Region.unit_square ~n:49 g
  in
  Alcotest.(check int) "count" 49 (Array.length pts);
  Array.iter
    (fun p -> Alcotest.(check bool) "inside" true (Region.contains Region.unit_square p))
    pts

let test_poisson_process () =
  let g = Prng.create 20 in
  (* Mean count over draws should approach intensity * area. *)
  let total = ref 0 in
  let draws = 300 in
  for _ = 1 to draws do
    let pts =
      Point_process.generate Point_process.Uniform ~region:Region.unit_square
        ~n:0 g
    in
    ignore pts;
    let pts =
      Point_process.poisson Point_process.Uniform ~region:Region.unit_square
        ~intensity:25.0 g
    in
    total := !total + Array.length pts;
    Array.iter
      (fun p ->
        Alcotest.(check bool) "inside" true (Region.contains Region.unit_square p))
      pts
  done;
  let mean = float_of_int !total /. float_of_int draws in
  Alcotest.(check bool)
    (Printf.sprintf "mean count near 25 (got %.1f)" mean)
    true
    (Float.abs (mean -. 25.0) < 1.5);
  Alcotest.check_raises "negative intensity"
    (Invalid_argument "Point_process.poisson: intensity must be non-negative")
    (fun () ->
      ignore
        (Point_process.poisson Point_process.Uniform ~region:Region.unit_square
           ~intensity:(-1.0) g))

let test_negative_n () =
  let g = Prng.create 10 in
  Alcotest.check_raises "negative n"
    (Invalid_argument "Point_process.generate: n must be non-negative") (fun () ->
      ignore
        (Point_process.generate Point_process.Uniform ~region:Region.unit_square
           ~n:(-1) g))

let test_distmat_consistency () =
  let g = Prng.create 11 in
  let pts =
    Point_process.generate Point_process.Uniform ~region:Region.unit_square ~n:20 g
  in
  let d = Distmat.of_points pts in
  Alcotest.(check int) "size" 20 (Distmat.size d);
  for i = 0 to 19 do
    feq "diagonal zero" 0.0 (Distmat.get d i i);
    for j = 0 to 19 do
      feq "matches Point.distance" (Point.distance pts.(i) pts.(j)) (Distmat.get d i j);
      feq "symmetric" (Distmat.get d i j) (Distmat.get d j i)
    done
  done

let test_distmat_max () =
  let pts = [| Point.make 0.0 0.0; Point.make 1.0 0.0; Point.make 0.2 0.1 |] in
  let d = Distmat.of_points pts in
  feq "max distance" 1.0 (Distmat.max_distance d)

let test_distmat_nearest () =
  let pts =
    [| Point.make 0.0 0.0; Point.make 1.0 0.0; Point.make 0.1 0.0; Point.make 0.5 0.0 |]
  in
  let d = Distmat.of_points pts in
  Alcotest.(check (option int)) "nearest to 0" (Some 2)
    (Distmat.nearest d 0 ~except:(fun _ -> false));
  Alcotest.(check (option int)) "nearest excluding 2" (Some 3)
    (Distmat.nearest d 0 ~except:(fun j -> j = 2));
  Alcotest.(check (option int)) "all excluded" None
    (Distmat.nearest d 0 ~except:(fun _ -> true))

(* Point clouds that stress a nearest-neighbour query: uniform scatter,
   tight clusters (many near-ties), co-located points (exact ties
   everywhere) and collinear layouts (one degenerate axis). *)
let uniform rng n =
  Array.init n (fun _ -> Point.make (Prng.float rng) (Prng.float rng))

let clustered rng n =
  let centers =
    Array.init (max 1 (n / 10)) (fun _ ->
        Point.make (Prng.float rng) (Prng.float rng))
  in
  Array.init n (fun _ ->
      let c = centers.(Prng.int rng (Array.length centers)) in
      Point.make
        (c.Point.x +. (0.01 *. Prng.float rng))
        (c.Point.y +. (0.01 *. Prng.float rng)))

let colocated rng n =
  (* Half the points share one location exactly; the rest scatter. *)
  let anchor = Point.make (Prng.float rng) (Prng.float rng) in
  Array.init n (fun i ->
      if i mod 2 = 0 then anchor
      else Point.make (Prng.float rng) (Prng.float rng))

let collinear rng n =
  Array.init n (fun _ -> Point.make (Prng.float rng) 0.25)

let clouds rng n =
  [ ("uniform", uniform rng n); ("clustered", clustered rng n);
    ("colocated", colocated rng n); ("collinear", collinear rng n) ]

(* The contract of Distmat.nearest computed from the points themselves:
   minimize (distance, index) lexicographically, skipping self and excepted
   points. *)
let brute_nearest pts i ~except =
  let best = ref None in
  Array.iteri
    (fun j q ->
      if j <> i && not (except j) then begin
        let d = Point.distance pts.(i) q in
        match !best with
        | None -> best := Some (d, j)
        | Some (bd, _) -> if d < bd then best := Some (d, j)
      end)
    pts;
  Option.map snd !best

(* Every heuristic attaches a leaf through Distmat.nearest, the historical
   builders in cost_oracle.ml included, so this sweep is the check of its
   winner and tie-break that does not go through it. *)
let test_distmat_nearest_sweep () =
  let rng = Prng.create 101 in
  List.iter
    (fun n ->
      List.iter
        (fun (label, pts) ->
          let d = Distmat.of_points pts in
          for i = 0 to n - 1 do
            List.iter
              (fun (elabel, except) ->
                Alcotest.(check (option int))
                  (Printf.sprintf "%s n=%d i=%d %s" label n i elabel)
                  (brute_nearest pts i ~except)
                  (Distmat.nearest d i ~except))
              [ ("none excepted", fun _ -> false);
                ("even excepted", fun j -> j mod 2 = 0);
                ("two of three excepted", fun j -> j mod 3 <> 1) ]
          done)
        (clouds rng n))
    [ 1; 2; 7; 40; 150 ]

let test_distmat_bounds () =
  let d = Distmat.of_points [| Point.make 0.0 0.0; Point.make 1.0 1.0 |] in
  Alcotest.check_raises "out of range" (Invalid_argument "Distmat.get") (fun () ->
      ignore (Distmat.get d 0 2));
  List.iter
    (fun i ->
      Alcotest.check_raises "nearest out of range"
        (Invalid_argument "Distmat.nearest") (fun () ->
          ignore (Distmat.nearest d i ~except:(fun _ -> false))))
    [ -1; 2 ]

let qcheck_triangle_inequality =
  QCheck.Test.make ~name:"Euclidean triangle inequality" ~count:500
    QCheck.(triple (pair (float_bound_inclusive 10.) (float_bound_inclusive 10.))
              (pair (float_bound_inclusive 10.) (float_bound_inclusive 10.))
              (pair (float_bound_inclusive 10.) (float_bound_inclusive 10.)))
    (fun ((ax, ay), (bx, by), (cx, cy)) ->
      let a = Point.make ax ay and b = Point.make bx by and c = Point.make cx cy in
      Point.distance a c <= Point.distance a b +. Point.distance b c +. 1e-9)

let () =
  Alcotest.run "cold_geom"
    [
      ( "point",
        [
          Alcotest.test_case "distance" `Quick test_distance;
          Alcotest.test_case "midpoint" `Quick test_midpoint;
          Alcotest.test_case "equal/pp" `Quick test_point_equal_pp;
        ] );
      ( "region",
        [
          Alcotest.test_case "unit square sampling" `Quick test_unit_square_sampling;
          Alcotest.test_case "rectangle" `Quick test_rectangle;
          Alcotest.test_case "disk" `Quick test_disk;
          Alcotest.test_case "diameter" `Quick test_region_diameter;
        ] );
      ( "point_process",
        [
          Alcotest.test_case "uniform" `Quick test_uniform_process;
          Alcotest.test_case "uniform deterministic" `Quick
            test_uniform_process_deterministic;
          Alcotest.test_case "bursty" `Quick test_bursty_process;
          Alcotest.test_case "bursty clusters" `Quick test_bursty_is_clustered;
          Alcotest.test_case "bursty invalid" `Quick test_bursty_invalid;
          Alcotest.test_case "jittered grid" `Quick test_jittered_grid;
          Alcotest.test_case "poisson count" `Quick test_poisson_process;
          Alcotest.test_case "negative n" `Quick test_negative_n;
        ] );
      ( "distmat",
        [
          Alcotest.test_case "consistency" `Quick test_distmat_consistency;
          Alcotest.test_case "max" `Quick test_distmat_max;
          Alcotest.test_case "nearest" `Quick test_distmat_nearest;
          Alcotest.test_case "nearest = brute force" `Quick
            test_distmat_nearest_sweep;
          Alcotest.test_case "bounds" `Quick test_distmat_bounds;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest qcheck_triangle_inequality ]);
    ]
