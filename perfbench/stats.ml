(* Order statistics over timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks. [0.] for no samples. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = percentile xs 0.5

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The highest percentile reported is the one with at least ten samples
   beyond it. *)
let supports xs q =
  float_of_int (List.length xs) *. (1.0 -. q) >= 10.0

(* Per-call time of [f] in seconds: the median over [reps] samples, each
   a loop long enough (at least 2 ms) for the clock's resolution. *)
let per_call ?(reps = 5) f =
  let loop k =
    let t0 = Trace.now () in
    for _ = 1 to k do
      ignore (Sys.opaque_identity (f ()))
    done;
    Trace.now () -. t0
  in
  let rec calibrate k = if loop k >= 0.002 then k else calibrate (2 * k) in
  let k = calibrate 1 in
  median (List.init reps (fun _ -> loop k /. float_of_int k))

let timed f =
  let t0 = Trace.now () in
  let v = f () in
  (v, Trace.now () -. t0)
