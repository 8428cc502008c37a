(* What every workload shares: its run settings, the operation seeds drawn
   from the workload seed, and the per-layer metric names. *)

type run = {
  seed : int;  (** The workload seed; every input is drawn from it. *)
  seconds : float;  (** How long the measured phase runs. *)
  tiny : bool;  (** Self-test scale: tiny inputs, a few operations. *)
  pinned : bool;  (** Check pinned output digests (the default seed). *)
}

(* The seed whose outputs are pinned by digest in [Pins]. *)
let default_seed = 1

(* A stream of distinct operation seeds drawn from the workload seed;
   [stream] keeps independent uses of one workload seed apart. *)
let distinct_seeds ~stream seed =
  let rng = Cold_prng.Prng.split_at (Cold_prng.Prng.create seed) stream in
  let seen = Hashtbl.create 64 in
  let rec next () =
    let s = 1 + Cold_prng.Prng.int rng 999_999_999 in
    if Hashtbl.mem seen s then next ()
    else begin
      Hashtbl.add seen s ();
      s
    end
  in
  next

(* Run [op i] for i = 0, 1, ... (at least once) while another operation
   would be expected to end less than half an operation past [seconds],
   so the phase lasts [seconds] give or take half an operation; returns
   the number run and the wall time. *)
let repeat_for ~seconds op =
  let t0 = Trace.now () in
  let rec go i =
    let elapsed = Trace.now () -. t0 in
    if i > 0 && elapsed +. (elapsed /. float_of_int i /. 2.0) >= seconds then i
    else begin
      op i;
      go (i + 1)
    end
  in
  let count = go 0 in
  (count, Trace.now () -. t0)

(* Every per-layer metric, in the order reported. *)
let per_layer =
  [
    "context.generate_ms"; "seed.seed_set_s"; "seed.best_star_s";
    "seed.random_greedy_s"; "seed.complete_s"; "seed.mst_s";
    "seed.greedy_attachment_s"; "seed.share"; "ga.run_s"; "ga.evaluations";
    "ga.memo_hits"; "ga.memo_misses"; "ga.memo_hit_ratio"; "ga.miss_us";
    "ga.breed_us"; "memo.hit_us"; "eval.full_us"; "eval.clique_us";
    "eval.csr_us"; "eval.dijkstra_us"; "eval.accumulate_us"; "eval.fold_us";
    "eval.state_us"; "eval.delta_us"; "eval.delta_repaired";
    "eval.delta_recomputed"; "build.network_ms"; "par.ga_speedup";
    "serve.parse_us"; "serve.respond_miss_ms"; "serve.respond_hit_us";
    "serve.miss_wait_p50_ms"; "serve.hit_wait_p50_ms"; "serve.miss_p50_ms";
    "serve.miss_p90_ms"; "serve.hit_p50_ms"; "serve.hit_p90_ms"; "serve.hits";
    "serve.misses"; "serve.sheds"; "serve.errors"; "serve.queue_depth_end";
    "loadgen.late_p99_ms"; "trace.overhead"; "trace.coverage";
  ]

let seeding_layers =
  [
    "seed.seed_set_s"; "seed.best_star_s"; "seed.random_greedy_s";
    "seed.complete_s"; "seed.mst_s"; "seed.greedy_attachment_s";
  ]

let serve_layers =
  List.filter
    (fun name ->
      String.starts_with ~prefix:"serve." name
      || String.starts_with ~prefix:"loadgen." name)
    per_layer

(* Emit the per-layer result. A layer off this workload's path reads 0;
   any other layer must have been measured. *)
let emit_layers ~off_path measured =
  List.iter
    (fun (name, _) ->
      if not (List.mem name per_layer) then
        Outcome.invalidate "unknown per-layer metric %s" name)
    measured;
  let value name =
    match List.assoc_opt name measured with
    | Some v -> v
    | None ->
      if not (List.mem name off_path) then
        Outcome.invalidate "per-layer metric %s was not measured" name;
      0.0
  in
  Outcome.emit (List.map (fun name -> (name, value name)) per_layer)

let mean_span name = Stats.mean (Trace.durations name)

(* Mean of each metric over the probed designs. *)
let average = function
  | [] -> []
  | first :: _ as rows ->
    List.map
      (fun (name, _) ->
        (name, Stats.mean (List.filter_map (List.assoc_opt name) rows)))
      first

(* --- host speed ---------------------------------------------------------

   On a shared host the same work takes 10-80% longer from one minute to
   the next, as other tenants load the cores, the caches and the clock.
   [all_pairs] calls nothing in the library, so no change to the program
   can move it; timed next to a measured operation, it gives the host's
   speed at that moment. *)

module Queue_set = Set.Make (struct
  type t = float * int

  let compare (d1, v1) (d2, v2) =
    let c = Float.compare d1 d2 in
    if c <> 0 then c else Int.compare v1 v2
end)

let nodes = 40

(* A fixed graph: six links out of each node, lengths from a hash. *)
let adjacency =
  Array.init nodes (fun u ->
      Array.init 6 (fun k ->
          ( ((u * 7) + ((k + 1) * 11)) mod nodes,
            float_of_int (1 + ((((u * 6) + k) * 37) mod 101)) )))

(* Dijkstra from every node, on a persistent set as the queue: the
   allocation, branches and float compares of the library's routing loop,
   with no call into it. *)
let all_pairs () =
  let total = ref 0.0 in
  for s = 0 to nodes - 1 do
    let dist = Array.make nodes infinity in
    dist.(s) <- 0.0;
    let rec go q =
      match Queue_set.min_elt_opt q with
      | None -> ()
      | Some ((d, u) as e) ->
        let q = ref (Queue_set.remove e q) in
        Array.iter
          (fun (v, l) ->
            let d' = d +. l in
            if d' < dist.(v) then begin
              q := Queue_set.add (d', v) (Queue_set.remove (dist.(v), v) !q);
              dist.(v) <- d'
            end)
          adjacency.(u);
        go !q
    in
    go (Queue_set.singleton (0.0, s));
    total := Array.fold_left ( +. ) !total dist
  done;
  !total

(* Seconds per [all_pairs] call, the fastest seen on a shared 2-vCPU Xeon
   VM; over five fit-abc runs there it took 0.56-1.07 ms. *)
let reference_s = 5.6e-4

(* The host's speed now: 1 at the reference, 0.5 when [all_pairs] takes
   twice as long. *)
let host_speed () = reference_s /. Stats.per_call ~reps:5 all_pairs

(* Top-level span time over wall time, the lowest across operations. *)
let coverage ops =
  List.fold_left
    (fun acc (op, wall) ->
      let covered =
        List.fold_left
          (fun s span -> s +. Trace.duration span)
          0.0 (Trace.top_level_in op)
      in
      Float.min acc (covered /. wall))
    1.0 ops
