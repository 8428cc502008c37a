type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 finalizer: variant of MurmurHash3's 64-bit mix. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  (* Mix the seed once so that small consecutive seeds give unrelated
     streams. *)
  { state = mix64 (Int64.of_int seed) }

let copy g = { state = g.state }

let next_state g =
  g.state <- Int64.add g.state golden_gamma;
  g.state

let bits64 g = mix64 (next_state g)

(* The state after k draws is state + k·gamma (mod 2^64); Int64
   multiplication wraps, so any k lands on the same state as k draws. *)
let skip g k =
  if k < 0 then invalid_arg "Prng.skip: negative count";
  g.state <- Int64.add g.state (Int64.mul golden_gamma (Int64.of_int k))

let split g = { state = bits64 g }

let split_at g i =
  (* Derive child state from current state and index without advancing. *)
  let s = Int64.add g.state (Int64.mul golden_gamma (Int64.of_int (i + 1))) in
  { state = mix64 (Int64.logxor (mix64 s) 0xD6E8FEB86659FD93L) }

let float g =
  (* Use the top 53 bits for a uniform double in [0,1). *)
  let bits = Int64.shift_right_logical (bits64 g) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int g n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  if n = 1 then 0
  else begin
    (* Rejection sampling on 62 bits to avoid modulo bias. *)
    let mask = 0x3FFFFFFFFFFFFFFFL in
    let bound = Int64.of_int n in
    let rec draw () =
      let r = Int64.logand (bits64 g) mask in
      let v = Int64.rem r bound in
      (* Reject the final partial block. *)
      if Int64.sub r v > Int64.sub (Int64.sub mask bound) 1L then draw ()
      else Int64.to_int v
    in
    draw ()
  end

let bool g = Int64.logand (bits64 g) 1L = 1L

let seed_of_string s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Int64.to_int (Int64.logand !h 0x3FFFFFFFFFFFFFFFL)
