type t = { pops : float array; scale : float }

let of_populations ?(scale = 1.0) pops =
  if scale < 0.0 then invalid_arg "Gravity.of_populations: negative scale";
  Array.iter
    (fun p -> if p < 0.0 then invalid_arg "Gravity.of_populations: negative population")
    pops;
  { pops = Array.copy pops; scale }

let size tm = Array.length tm.pops

(* Inlined into both readers below, so the row fill computes each demand
   with the same operations as [demand] without boxing a float per call. *)
let[@inline] unchecked_demand tm s d =
  if s = d then 0.0 else tm.scale *. tm.pops.(s) *. tm.pops.(d)

let demand tm s d =
  let n = size tm in
  if s < 0 || d < 0 || s >= n || d >= n then invalid_arg "Gravity.demand";
  unchecked_demand tm s d

let pair_demand tm u v = demand tm u v +. demand tm v u

let pair_demand_row tm s row =
  let n = size tm in
  if s < 0 || s >= n || Array.length row < n then
    invalid_arg "Gravity.pair_demand_row";
  for d = 0 to n - 1 do
    row.(d) <- unchecked_demand tm s d +. unchecked_demand tm d s
  done

let total tm =
  let sum = Array.fold_left ( +. ) 0.0 tm.pops in
  let sum_sq = Array.fold_left (fun acc p -> acc +. (p *. p)) 0.0 tm.pops in
  tm.scale *. ((sum *. sum) -. sum_sq)

let row_total tm s =
  let sum = Array.fold_left ( +. ) 0.0 tm.pops in
  tm.scale *. tm.pops.(s) *. (sum -. tm.pops.(s))

let populations tm = Array.copy tm.pops

let scale_total tm ~target =
  if target < 0.0 then invalid_arg "Gravity.scale_total";
  let current = total tm in
  if current <= 0.0 then tm
  else { tm with scale = tm.scale *. target /. current }
