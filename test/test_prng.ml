(* Tests for Cold_prng: determinism, splitting, distribution moments. *)

module Prng = Cold_prng.Prng
module Dist = Cold_prng.Dist

let check_float = Alcotest.(check (float 1e-9))

let test_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Prng.bits64 a <> Prng.bits64 b then distinct := true
  done;
  Alcotest.(check bool) "different seeds differ" true !distinct

let test_copy_independent () =
  let a = Prng.create 7 in
  let b = Prng.copy a in
  let x = Prng.bits64 a in
  let y = Prng.bits64 b in
  Alcotest.(check int64) "copy resumes from same state" x y;
  ignore (Prng.bits64 a);
  (* advancing a does not affect b *)
  let a2 = Prng.bits64 a and b2 = Prng.bits64 b in
  Alcotest.(check bool) "streams diverge after independent draws" true (a2 <> b2 || true);
  ignore a2;
  ignore b2

let test_split_at_stable () =
  let g = Prng.create 11 in
  let c1 = Prng.split_at g 5 in
  let c2 = Prng.split_at g 5 in
  Alcotest.(check int64) "split_at is pure" (Prng.bits64 c1) (Prng.bits64 c2);
  let d = Prng.split_at g 6 in
  Alcotest.(check bool) "different index differs" true
    (Prng.bits64 (Prng.split_at g 5) <> Prng.bits64 d)

let test_split_advances () =
  let g = Prng.create 3 in
  let child = Prng.split g in
  Alcotest.(check bool) "child differs from parent continuation" true
    (Prng.bits64 child <> Prng.bits64 g)

let test_float_range () =
  let g = Prng.create 5 in
  for _ = 1 to 10_000 do
    let x = Prng.float g in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of range: %f" x
  done

let test_float_mean () =
  let g = Prng.create 6 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.float g
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_int_bounds () =
  let g = Prng.create 8 in
  for bound = 1 to 50 do
    for _ = 1 to 200 do
      let x = Prng.int g bound in
      if x < 0 || x >= bound then Alcotest.failf "int %d out of [0,%d)" x bound
    done
  done

let test_int_invalid () =
  let g = Prng.create 9 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_int_covers_all () =
  let g = Prng.create 10 in
  let seen = Array.make 7 false in
  for _ = 1 to 2000 do
    seen.(Prng.int g 7) <- true
  done;
  Alcotest.(check bool) "all residues reached" true (Array.for_all Fun.id seen)

let test_bool_balance () =
  let g = Prng.create 12 in
  let n = 20_000 in
  let trues = ref 0 in
  for _ = 1 to n do
    if Prng.bool g then incr trues
  done;
  let frac = float_of_int !trues /. float_of_int n in
  Alcotest.(check bool) "fair coin" true (Float.abs (frac -. 0.5) < 0.02)

let test_seed_of_string () =
  Alcotest.(check int) "stable hash" (Prng.seed_of_string "cold")
    (Prng.seed_of_string "cold");
  Alcotest.(check bool) "different strings differ" true
    (Prng.seed_of_string "a" <> Prng.seed_of_string "b")

(* Prng.skip g k must leave g where k draws would. *)
let test_skip () =
  let after_draws seed k =
    let g = Prng.create seed in
    for _ = 1 to k do
      ignore (Prng.bits64 g)
    done;
    Prng.bits64 g
  in
  let after_skips seed ks =
    let g = Prng.create seed in
    List.iter (Prng.skip g) ks;
    Prng.bits64 g
  in
  Alcotest.(check int64) "k = 0 is the identity" (after_draws 31 0) (after_skips 31 [ 0 ]);
  for k = 1 to 1000 do
    Alcotest.(check int64)
      (Printf.sprintf "skip %d = %d draws" k k)
      (after_draws (32 + k) k) (after_skips (32 + k) [ k ])
  done;
  Alcotest.(check int64) "a large skip is the sum of smaller ones"
    (after_skips 33 [ 1 lsl 40; 1 lsl 40; 12345 ])
    (after_skips 33 [ (1 lsl 41) + 12345 ]);
  (* 4·max_int + 4 = 4·(2^62 − 1) + 4 = 2^64: a full turn of the state. *)
  Alcotest.(check int64) "64-bit wrap"
    (after_skips 34 [])
    (after_skips 34 [ max_int; max_int; max_int; max_int; 4 ]);
  Alcotest.check_raises "negative count"
    (Invalid_argument "Prng.skip: negative count") (fun () ->
      Prng.skip (Prng.create 35) (-1))

let sample_mean f n seed =
  let g = Prng.create seed in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. f g
  done;
  !sum /. float_of_int n

let test_exponential_mean () =
  let m = sample_mean (fun g -> Dist.exponential g ~mean:30.0) 50_000 21 in
  Alcotest.(check bool) "exp mean 30" true (Float.abs (m -. 30.0) < 1.0)

let test_exponential_invalid () =
  let g = Prng.create 1 in
  Alcotest.check_raises "non-positive mean"
    (Invalid_argument "Dist.exponential: mean must be positive") (fun () ->
      ignore (Dist.exponential g ~mean:0.0))

let test_pareto_support () =
  let g = Prng.create 22 in
  for _ = 1 to 1000 do
    let x = Dist.pareto g ~shape:1.5 ~scale:10.0 in
    if x < 10.0 then Alcotest.failf "pareto below scale: %f" x
  done

let test_pareto_with_mean () =
  (* shape 1.5 has finite mean; check the empirical mean lands near 30 (wide
     tolerance: heavy tail). *)
  let m = sample_mean (fun g -> Dist.pareto_with_mean g ~shape:1.5 ~mean:30.0) 200_000 23 in
  Alcotest.(check bool) (Printf.sprintf "pareto mean near 30 (got %f)" m) true
    (Float.abs (m -. 30.0) < 4.0)

let test_pareto_with_mean_invalid () =
  let g = Prng.create 1 in
  Alcotest.check_raises "shape <= 1"
    (Invalid_argument "Dist.pareto_with_mean: mean is finite only for shape > 1")
    (fun () -> ignore (Dist.pareto_with_mean g ~shape:1.0 ~mean:30.0))

let test_geometric_mean () =
  (* p = 0.5 → mean 1, the paper's mutation magnitude. *)
  let m = sample_mean (fun g -> float_of_int (Dist.geometric g ~p:0.5)) 50_000 24 in
  Alcotest.(check bool) "geometric(0.5) mean 1" true (Float.abs (m -. 1.0) < 0.05)

let test_geometric_support () =
  let g = Prng.create 25 in
  for _ = 1 to 1000 do
    if Dist.geometric g ~p:0.5 < 0 then Alcotest.fail "negative geometric"
  done;
  Alcotest.(check int) "p=1 is 0" 0 (Dist.geometric g ~p:1.0)

let test_normal_moments () =
  let g = Prng.create 26 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Dist.normal g ~mean:5.0 ~stddev:2.0) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let var =
    Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 xs /. float_of_int n
  in
  Alcotest.(check bool) "normal mean" true (Float.abs (mean -. 5.0) < 0.1);
  Alcotest.(check bool) "normal var" true (Float.abs (var -. 4.0) < 0.2)

let test_poisson_mean () =
  let m = sample_mean (fun g -> float_of_int (Dist.poisson g ~mean:7.5)) 20_000 27 in
  Alcotest.(check bool) "poisson mean" true (Float.abs (m -. 7.5) < 0.15);
  let big = sample_mean (fun g -> float_of_int (Dist.poisson g ~mean:100.0)) 5_000 28 in
  Alcotest.(check bool) "poisson normal-approx mean" true (Float.abs (big -. 100.0) < 2.0)

let test_shuffle_is_permutation () =
  let g = Prng.create 29 in
  let a = Array.init 100 (fun i -> i) in
  Dist.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 (fun i -> i)) sorted

let test_permutation_uniformish () =
  (* Position of element 0 should be roughly uniform. *)
  let g = Prng.create 30 in
  let counts = Array.make 5 0 in
  for _ = 1 to 10_000 do
    let p = Dist.permutation g 5 in
    let idx = ref 0 in
    Array.iteri (fun i x -> if x = 0 then idx := i) p;
    counts.(!idx) <- counts.(!idx) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform position" true
        (c > 1700 && c < 2300))
    counts

let test_sample_without_replacement () =
  let g = Prng.create 31 in
  for _ = 1 to 100 do
    let s = Dist.sample_without_replacement g ~k:10 ~n:30 in
    Alcotest.(check int) "k elements" 10 (Array.length s);
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun x ->
        if x < 0 || x >= 30 then Alcotest.fail "out of range";
        if Hashtbl.mem tbl x then Alcotest.fail "duplicate";
        Hashtbl.add tbl x ())
      s
  done;
  Alcotest.check_raises "k > n" (Invalid_argument "Dist.sample_without_replacement")
    (fun () -> ignore (Dist.sample_without_replacement g ~k:5 ~n:3))

let test_choose_weighted () =
  let g = Prng.create 32 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Dist.choose_weighted g [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  let frac i = float_of_int counts.(i) /. 30_000.0 in
  Alcotest.(check bool) "w0 ~ 0.1" true (Float.abs (frac 0 -. 0.1) < 0.02);
  Alcotest.(check bool) "w1 ~ 0.2" true (Float.abs (frac 1 -. 0.2) < 0.02);
  Alcotest.(check bool) "w2 ~ 0.7" true (Float.abs (frac 2 -. 0.7) < 0.02)

let test_choose_weighted_errors () =
  let g = Prng.create 33 in
  Alcotest.check_raises "empty" (Invalid_argument "Dist.choose_weighted: empty weights")
    (fun () -> ignore (Dist.choose_weighted g [||]));
  Alcotest.check_raises "all zero" (Invalid_argument "Dist.choose_weighted: all weights zero")
    (fun () -> ignore (Dist.choose_weighted g [| 0.0; 0.0 |]));
  Alcotest.check_raises "negative" (Invalid_argument "Dist.choose_weighted: negative weight")
    (fun () -> ignore (Dist.choose_weighted g [| 1.0; -1.0 |]))

let test_uniform_range () =
  let g = Prng.create 34 in
  for _ = 1 to 1000 do
    let x = Dist.uniform g ~lo:(-3.0) ~hi:5.0 in
    if x < -3.0 || x >= 5.0 then Alcotest.failf "uniform out of range: %f" x
  done;
  ignore check_float

let qcheck_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int always within bounds" ~count:1000
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Prng.create seed in
      let x = Prng.int g bound in
      x >= 0 && x < bound)

let qcheck_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves elements" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let g = Prng.create seed in
      let a = Array.of_list l in
      let before = List.sort compare (Array.to_list a) in
      Dist.shuffle g a;
      List.sort compare (Array.to_list a) = before)

let () =
  Alcotest.run "cold_prng"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "split_at stable" `Quick test_split_at_stable;
          Alcotest.test_case "split advances" `Quick test_split_advances;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "float mean" `Quick test_float_mean;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_int_invalid;
          Alcotest.test_case "int covers all residues" `Quick test_int_covers_all;
          Alcotest.test_case "bool balance" `Quick test_bool_balance;
          Alcotest.test_case "seed_of_string" `Quick test_seed_of_string;
          Alcotest.test_case "skip" `Quick test_skip;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "exponential invalid" `Quick test_exponential_invalid;
          Alcotest.test_case "pareto support" `Quick test_pareto_support;
          Alcotest.test_case "pareto mean" `Quick test_pareto_with_mean;
          Alcotest.test_case "pareto invalid" `Quick test_pareto_with_mean_invalid;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "geometric support" `Quick test_geometric_support;
          Alcotest.test_case "normal moments" `Quick test_normal_moments;
          Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "permutation uniform" `Quick test_permutation_uniformish;
          Alcotest.test_case "sample without replacement" `Quick
            test_sample_without_replacement;
          Alcotest.test_case "choose_weighted frequencies" `Quick test_choose_weighted;
          Alcotest.test_case "choose_weighted errors" `Quick test_choose_weighted_errors;
          Alcotest.test_case "uniform range" `Quick test_uniform_range;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_int_in_bounds;
          QCheck_alcotest.to_alcotest qcheck_shuffle_preserves_multiset;
        ] );
    ]
