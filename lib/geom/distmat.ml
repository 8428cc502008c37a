type t = { n : int; data : float array; index : Spatial.t }
(* Row-major n×n with both triangles and a zero diagonal: entry (i, j) lives
   at [i*n + j], so a lookup is one read and routing can index the matrix
   directly. Each pair's distance is computed once and stored twice.
   [index] is the bucket grid over the same points: distance *lookups* stay
   O(1) array reads, nearest-neighbour *searches* go through the grid
   instead of scanning a whole row. *)

let of_points pts =
  let n = Array.length pts in
  let data = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d = Point.distance pts.(i) pts.(j) in
      data.((i * n) + j) <- d;
      data.((j * n) + i) <- d
    done
  done;
  { n; data; index = Spatial.create pts }

let size t = t.n

let spatial t = t.index

let get t i j =
  if i < 0 || j < 0 || i >= t.n || j >= t.n then invalid_arg "Distmat.get";
  t.data.((i * t.n) + j)

let matrix t = t.data

let max_distance t = Array.fold_left Float.max 0.0 t.data

let nearest_scan t i ~except =
  if i < 0 || i >= t.n then invalid_arg "Distmat.nearest";
  let best = ref None in
  for j = 0 to t.n - 1 do
    if j <> i && not (except j) then
      match !best with
      | None -> best := Some j
      | Some b -> if get t i j < get t i b then best := Some j
  done;
  !best

(* The grid visits a superset of the scan's candidates pruned by geometry
   and applies the identical lowest-index tie-break, and Spatial computes
   distances with the same Point.distance expression of_points precomputed
   — so the two paths return the same index on every input (randomized
   equivalence sweep in test_geom.ml). *)
let nearest t i ~except = Spatial.nearest t.index i ~except
