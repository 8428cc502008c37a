type t = {
  pts : Point.t array;
  nx : int;
  ny : int;
  x0 : float;
  y0 : float;
  cw : float; (* cell width; 0 when the x extent is degenerate (nx = 1) *)
  ch : float; (* cell height; 0 when the y extent is degenerate (ny = 1) *)
  start : int array; (* nx*ny + 1 bucket offsets into [cells] (CSR layout) *)
  cells : int array; (* point indices, ascending within each bucket *)
}

let size t = Array.length t.pts

let point t i =
  if i < 0 || i >= Array.length t.pts then invalid_arg "Spatial.point";
  t.pts.(i)

let cell_x t x =
  if t.cw <= 0.0 then 0
  else
    let c = int_of_float ((x -. t.x0) /. t.cw) in
    if c < 0 then 0 else if c >= t.nx then t.nx - 1 else c

let cell_y t y =
  if t.ch <= 0.0 then 0
  else
    let c = int_of_float ((y -. t.y0) /. t.ch) in
    if c < 0 then 0 else if c >= t.ny then t.ny - 1 else c

let create pts =
  let pts = Array.copy pts in
  let n = Array.length pts in
  let x0 = ref infinity and x1 = ref neg_infinity in
  let y0 = ref infinity and y1 = ref neg_infinity in
  Array.iter
    (fun p ->
      if p.Point.x < !x0 then x0 := p.Point.x;
      if p.Point.x > !x1 then x1 := p.Point.x;
      if p.Point.y < !y0 then y0 := p.Point.y;
      if p.Point.y > !y1 then y1 := p.Point.y)
    pts;
  let x0 = if n = 0 then 0.0 else !x0 and y0 = if n = 0 then 0.0 else !y0 in
  let x1 = if n = 0 then 0.0 else !x1 and y1 = if n = 0 then 0.0 else !y1 in
  (* ~1 point per cell on average: a √n × √n grid. Degenerate axes (all
     points sharing a coordinate) collapse to a single column/row so cell
     membership stays well-defined without dividing by zero. *)
  let axis = max 1 (int_of_float (sqrt (float_of_int (max n 1)))) in
  let nx = if x1 > x0 then axis else 1 in
  let ny = if y1 > y0 then axis else 1 in
  let cw = if nx > 1 then (x1 -. x0) /. float_of_int nx else 0.0 in
  let ch = if ny > 1 then (y1 -. y0) /. float_of_int ny else 0.0 in
  let t =
    { pts; nx; ny; x0; y0; cw; ch;
      start = Array.make ((nx * ny) + 1) 0; cells = Array.make n 0 }
  in
  let cell_of = Array.make n 0 in
  for i = 0 to n - 1 do
    let c = (cell_y t pts.(i).Point.y * nx) + cell_x t pts.(i).Point.x in
    cell_of.(i) <- c;
    t.start.(c + 1) <- t.start.(c + 1) + 1
  done;
  for c = 1 to nx * ny do
    t.start.(c) <- t.start.(c) + t.start.(c - 1)
  done;
  (* Counting sort, filled in ascending point order: each bucket's slice is
     automatically in ascending index order — the iteration order every
     query exposes. *)
  let cursor = Array.sub t.start 0 (nx * ny) in
  for i = 0 to n - 1 do
    let c = cell_of.(i) in
    t.cells.(cursor.(c)) <- i;
    cursor.(c) <- cursor.(c) + 1
  done;
  t

let iter_cell t cx cy f =
  if cx >= 0 && cx < t.nx && cy >= 0 && cy < t.ny then begin
    let c = (cy * t.nx) + cx in
    for k = t.start.(c) to t.start.(c + 1) - 1 do
      f t.cells.(k)
    done
  end

(* Points of every cell at Chebyshev ring distance exactly [r] from
   (cx, cy), rows ascending, columns ascending within a row — a fixed
   deterministic visit order. *)
let iter_ring t cx cy r f =
  if r = 0 then iter_cell t cx cy f
  else
    for yy = cy - r to cy + r do
      if yy - cy = -r || yy - cy = r then
        for xx = cx - r to cx + r do
          iter_cell t xx yy f
        done
      else begin
        iter_cell t (cx - r) yy f;
        iter_cell t (cx + r) yy f
      end
    done

(* Any point in a cell at ring distance rho >= 1 is at least (rho - 1)
   cells away from the query point along some axis with more than one
   column/row, hence at Euclidean distance >= (rho - 1) * dmin. Shrunk by
   one part in 10^9 so float rounding of the product can never prune a
   knife-edge candidate the exact real bound would admit. *)
let ring_lower_bound t rho =
  let dmin =
    match (t.nx > 1, t.ny > 1) with
    | true, true -> Float.min t.cw t.ch
    | true, false -> t.cw
    | false, true -> t.ch
    | false, false -> infinity
  in
  float_of_int (rho - 1) *. dmin *. (1.0 -. 1e-9)

let max_ring t cx cy =
  max (max cx (t.nx - 1 - cx)) (max cy (t.ny - 1 - cy))

let nearest t i ~except =
  let n = Array.length t.pts in
  if i < 0 || i >= n then invalid_arg "Spatial.nearest";
  let p = t.pts.(i) in
  let cx = cell_x t p.Point.x and cy = cell_y t p.Point.y in
  let best_d = ref infinity and best_j = ref (-1) in
  let consider j =
    if j <> i && not (except j) then begin
      let d = Point.distance p t.pts.(j) in
      if d < !best_d || (Float.equal d !best_d && j < !best_j) then begin
        best_d := d;
        best_j := j
      end
    end
  in
  let last = max_ring t cx cy in
  let r = ref 0 in
  let continue = ref true in
  while !continue && !r <= last do
    iter_ring t cx cy !r consider;
    if !best_j >= 0 && ring_lower_bound t (!r + 1) > !best_d then
      continue := false;
    incr r
  done;
  if !best_j < 0 then None else Some !best_j

let within t i ~radius =
  let n = Array.length t.pts in
  if i < 0 || i >= n then invalid_arg "Spatial.within";
  let p = t.pts.(i) in
  let cx = cell_x t p.Point.x and cy = cell_y t p.Point.y in
  let acc = ref [] in
  let consider j =
    if j <> i && Point.distance p t.pts.(j) <= radius then acc := j :: !acc
  in
  let last = max_ring t cx cy in
  let r = ref 0 in
  let continue = ref true in
  while !continue && !r <= last do
    iter_ring t cx cy !r consider;
    if ring_lower_bound t (!r + 1) > radius then continue := false;
    incr r
  done;
  List.sort Int.compare !acc
