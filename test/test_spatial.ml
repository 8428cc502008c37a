(* The spatial grid index must agree with brute force on every query —
   Distmat.nearest and the regional failure cuts stand on that equivalence. The
   sweeps below cover the inputs that stress a bucket grid: uniform scatter,
   tight clusters (many points per cell), co-located points (one cell holds
   everything, ties everywhere), and collinear layouts (a degenerate axis
   collapses to a single row). *)

module Prng = Cold_prng.Prng
module Point = Cold_geom.Point
module Spatial = Cold_geom.Spatial
module Distmat = Cold_geom.Distmat

(* --- point clouds ------------------------------------------------------- *)

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

(* --- brute-force references -------------------------------------------- *)

(* Mirrors the spatial index's contract exactly: minimize (distance, index)
   lexicographically, skipping self and excepted points. *)
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

let brute_within pts i ~radius =
  let acc = ref [] in
  Array.iteri
    (fun j q ->
      if j <> i && Point.distance pts.(i) q <= radius then acc := j :: !acc)
    pts;
  List.rev !acc

(* --- sweeps ------------------------------------------------------------- *)

let int_list = Alcotest.(list int)

let test_nearest_matches_brute () =
  let rng = Prng.create 101 in
  List.iter
    (fun n ->
      List.iter
        (fun (label, pts) ->
          let t = Spatial.create pts in
          let except_none _ = false in
          let except_even j = j mod 2 = 0 in
          for i = 0 to n - 1 do
            List.iter
              (fun (elabel, except) ->
                Alcotest.(check (option int))
                  (Printf.sprintf "%s n=%d i=%d %s" label n i elabel)
                  (brute_nearest pts i ~except)
                  (Spatial.nearest t i ~except))
              [ ("all", except_none); ("odd-only", except_even) ]
          done)
        (clouds rng n))
    [ 1; 2; 7; 40; 150 ]

let test_within_matches_brute () =
  let rng = Prng.create 404 in
  List.iter
    (fun n ->
      List.iter
        (fun (label, pts) ->
          let t = Spatial.create pts in
          List.iter
            (fun radius ->
              for i = 0 to min (n - 1) 50 do
                Alcotest.check int_list
                  (Printf.sprintf "%s n=%d r=%.3f i=%d" label n radius i)
                  (brute_within pts i ~radius)
                  (Spatial.within t i ~radius)
              done)
            [ 0.0; 0.05; 0.3; 2.0 ])
        (clouds rng n))
    [ 2; 25; 90 ]

let test_bounds () =
  let t = Spatial.create (uniform (Prng.create 1) 5) in
  Alcotest.(check int) "size" 5 (Spatial.size t);
  Alcotest.check_raises "nearest oob" (Invalid_argument "Spatial.nearest")
    (fun () -> ignore (Spatial.nearest t 5 ~except:(fun _ -> false)))

(* Distmat.nearest is now grid-backed; nearest_scan is the retained linear
   reference. They must agree on every (index, except) query — same winner,
   same lowest-index tie-break. *)
let test_distmat_grid_equals_scan () =
  let rng = Prng.create 505 in
  List.iter
    (fun n ->
      List.iter
        (fun (label, pts) ->
          let dm = Distmat.of_points pts in
          for i = 0 to n - 1 do
            List.iter
              (fun (elabel, except) ->
                Alcotest.(check (option int))
                  (Printf.sprintf "%s n=%d i=%d %s" label n i elabel)
                  (Distmat.nearest_scan dm i ~except)
                  (Distmat.nearest dm i ~except))
              [ ("all", (fun _ -> false));
                ("thirds", (fun j -> j mod 3 <> 1)) ]
          done)
        (clouds rng n))
    [ 1; 9; 64; 140 ]

let () =
  Alcotest.run "cold_spatial"
    [
      ( "grid",
        [
          Alcotest.test_case "nearest = brute force" `Quick
            test_nearest_matches_brute;
          Alcotest.test_case "within = brute force" `Quick
            test_within_matches_brute;
          Alcotest.test_case "bounds" `Quick test_bounds;
        ] );
      ( "distmat",
        [
          Alcotest.test_case "grid nearest = linear scan" `Quick
            test_distmat_grid_equals_scan;
        ] );
    ]
