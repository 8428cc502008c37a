type t = { n : int; data : float array }
(* Row-major n×n with both triangles and a zero diagonal: entry (i, j) lives
   at [i*n + j], so a lookup is one read and routing can index the matrix
   directly. Each pair's distance is computed once and stored twice. *)

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
  { n; data }

let size t = t.n

let get t i j =
  if i < 0 || j < 0 || i >= t.n || j >= t.n then invalid_arg "Distmat.get";
  t.data.((i * t.n) + j)

let matrix t = t.data

let max_distance t = Array.fold_left Float.max 0.0 t.data

let nearest t i ~except =
  if i < 0 || i >= t.n then invalid_arg "Distmat.nearest";
  let row = i * t.n in
  let best = ref (-1) in
  for j = 0 to t.n - 1 do
    if j <> i && (not (except j))
       && (!best < 0 || t.data.(row + j) < t.data.(row + !best))
    then best := j
  done;
  if !best < 0 then None else Some !best
