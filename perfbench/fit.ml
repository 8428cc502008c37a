(* fit-abc: [Abc.infer] on one domain with the default prior, the reduced
   GA (M = T = 40) and epsilon = 0.35 — the run [cold_gen fit] makes —
   against a fixed observation of about 40 PoPs taken from the synthetic
   zoo. Trials come in batches, one [Abc.infer] call per batch seed drawn
   from the workload seed. Seeding is off, so the GA does the work. *)

module Graph = Cold_graph.Graph
module Context = Cold_context.Context
module Prng = Cold_prng.Prng
module Dist = Cold_prng.Dist
module Abc = Cold.Abc
module Cost = Cold.Cost
module Ga = Cold.Ga

let zoo_seed = 1
let epsilon = 0.35
let prior = Abc.default_prior

let ga ~tiny =
  if tiny then
    {
      Ga.default_settings with
      Ga.population_size = 10;
      generations = 5;
      num_saved = 2;
      num_crossover = 5;
      num_mutation = 3;
    }
  else
    {
      Ga.default_settings with
      Ga.population_size = 40;
      generations = 40;
      num_saved = 8;
      num_crossover = 20;
      num_mutation = 12;
    }

let batch ~tiny = if tiny then 2 else 8

(* The first synthetic-zoo entry of the target size. *)
let observation ~tiny =
  let lo, hi = if tiny then (8, 12) else (35, 45) in
  let entry =
    List.find
      (fun e ->
        let n = Graph.node_count e.Cold_zoo.Zoo.graph in
        lo <= n && n <= hi)
      (Cold_zoo.Zoo.synthetic ~seed:zoo_seed ())
  in
  Abc.observe entry.Cold_zoo.Zoo.graph

let render accepted =
  String.concat ""
    (List.map
       (fun (s : Abc.posterior_sample) ->
         let p = s.Abc.params in
         Printf.sprintf "%h %h %h %h %h\n" p.Cost.k0 p.Cost.k1 p.Cost.k2 p.Cost.k3
           s.Abc.distance)
       accepted)

let in_range x (lo, hi) = x >= lo && x <= hi

let check_batch ~op accepted =
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Abc.distance <= b.Abc.distance && sorted rest
    | _ -> true
  in
  Outcome.check ~op (sorted accepted) "accepted list is not sorted by distance";
  List.iter
    (fun (s : Abc.posterior_sample) ->
      let p = s.Abc.params in
      Outcome.check ~op
        (s.Abc.distance <= epsilon
        && Float.equal p.Cost.k1 1.0
        && in_range p.Cost.k0 prior.Abc.k0_range
        && in_range p.Cost.k2 prior.Abc.k2_range
        && (p.Cost.k3 = 0.0 || in_range p.Cost.k3 prior.Abc.k3_range))
        "accepted sample outside the prior or epsilon")
    accepted

(* Abc.infer's per-trial parameter draw: k1 fixed at 1, log-uniform k0,
   k2 and k3, and a draw of k3 below 1 collapsing to 0 on a coin flip. *)
let draw_params rng =
  let log_uniform (lo, hi) = exp (Dist.uniform rng ~lo:(log lo) ~hi:(log hi)) in
  let k0 = log_uniform prior.Abc.k0_range in
  let k2 = log_uniform prior.Abc.k2_range in
  let k3_raw = log_uniform prior.Abc.k3_range in
  let k3 = if k3_raw < 1.0 && Prng.bool rng then 0.0 else k3_raw in
  Cost.params ~k0 ~k1:1.0 ~k2 ~k3 ()

(* Batch seeds, drawn from the workload seed. A candidate is kept only if
   its trials' k2 draws fall one in each equal slice of the prior's log
   range. k2 sets a trial's cost — dense designs cost up to 7 times sparse
   ones — so without this the throughput swings with the share of dense
   trials a seed happens to draw. Each trial is still a prior draw; the
   batch is a stratified sample of the prior. *)
let batch_seeds ~tiny seed =
  let candidates = Workload.distinct_seeds ~stream:1 seed in
  let trials = batch ~tiny in
  let lo, hi = prior.Abc.k2_range in
  let slice k2 =
    min (trials - 1)
      (truncate (float_of_int trials *. log (k2 /. lo) /. log (hi /. lo)))
  in
  let stratified s =
    let root = Prng.create s in
    let slices =
      List.init trials (fun trial ->
          slice (draw_params (Prng.split_at root trial)).Cost.k2)
    in
    List.sort_uniq compare slices = List.init trials Fun.id
  in
  let rec next () =
    let s = candidates () in
    if stratified s then s else next ()
  in
  next

type ops = { obs : Abc.observation; batches : (int * int * string) list }

(* The measured phase: one batch per batch seed until time is up. *)
let untraced (r : Workload.run) =
  let tiny = r.Workload.tiny in
  let obs = observation ~tiny in
  let ga = ga ~tiny in
  let next_seed = batch_seeds ~tiny r.Workload.seed in
  let batches = ref [] and times = ref [] and speeds = ref [] in
  let count, wall =
    Workload.repeat_for ~seconds:r.Workload.seconds (fun op ->
        let seed = next_seed () in
        Outcome.attempt ();
        let before = Workload.host_speed () in
        match
          Stats.timed (fun () ->
              Abc.infer ~domains:1 ~prior ~trials:(batch ~tiny) ~epsilon ~ga obs
                ~seed)
        with
        | accepted, dt ->
          let speed = (before +. Workload.host_speed ()) /. 2.0 in
          check_batch ~op accepted;
          batches := (op, seed, render accepted) :: !batches;
          times := dt :: !times;
          speeds := speed :: !speeds
        | exception e -> Outcome.fail ~op "%s" (Printexc.to_string e))
  in
  let batches = List.rev !batches in
  let trials = List.length batches * batch ~tiny in
  let busy = List.fold_left ( +. ) 0.0 !times in
  let per_s = float_of_int (batch ~tiny) /. Stats.median !times in
  let at_reference =
    float_of_int (batch ~tiny) /. Stats.median (List.map2 ( *. ) !times !speeds)
  in
  Printf.printf
    "fit: %d trials in %d batches, %.2f s (observation n=%d); %.4f/s by mean \
     time, %.4f/s by median, %.4f/s by median at the reference host speed\n"
    trials count wall obs.Abc.n
    (float_of_int trials /. busy)
    per_s at_reference;
  let show xs = String.concat " " (List.rev_map (Printf.sprintf "%.3f") xs) in
  Printf.printf "times: %s\n" (show !times);
  Printf.printf "host speed: %s\n" (show !speeds);
  Outcome.pinned ~check:r.Workload.pinned Pins.fit
    (List.map (fun (op, _, a) -> (op, Outcome.digest a)) batches);
  ({ obs; batches }, at_reference, busy)

(* Trials per second at the host's reference speed: each batch's time is
   scaled by the host's speed around it, and the median taken, since a
   burst of load from outside the process moves a median less than a
   mean. *)
let run (r : Workload.run) =
  let _, trials_per_s, _ = untraced r in
  Outcome.emit
    [
      ("networks_per_s", trials_per_s);
      ("peak_rss_mb", Outcome.peak_rss_mb ());
    ]

(* Trials whose layers are probed one by one. *)
let probed = 3

let trace (r : Workload.run) =
  let tiny = r.Workload.tiny in
  let { obs; batches }, _, untraced_busy = untraced r in
  let p =
    {
      Design.spec = Context.default_spec ~n:obs.Abc.n;
      ga = ga ~tiny;
      permutations = None;
      domains = 1;
    }
  in
  let trials = batch ~tiny in
  let replayed = ref [] and walls = ref [] in
  List.iter
    (fun (op, seed, accepted) ->
      let root = Prng.create seed in
      let outcomes =
        Array.init trials (fun trial ->
            let id = (op * trials) + trial in
            let t0 = Trace.now () in
            let rng = Prng.split_at root trial in
            let params = draw_params rng in
            let d = Design.replay p ~op:id params rng in
            let sim =
              Trace.span ~op:id "abc.observe" (fun () ->
                  Abc.observe d.Design.result.Ga.best)
            in
            let distance = Abc.distance obs sim in
            walls := (id, Trace.now () -. t0) :: !walls;
            replayed := (id, d) :: !replayed;
            if distance <= epsilon then Some { Abc.params; distance } else None)
      in
      let again =
        Array.fold_left
          (fun acc o -> match o with Some s -> s :: acc | None -> acc)
          [] outcomes
        |> List.sort (fun a b -> Float.compare a.Abc.distance b.Abc.distance)
      in
      Outcome.check ~op
        (String.equal (render again) accepted)
        "traced replay differs from the accepted list Abc.infer returned")
    batches;
  let walls = List.rev !walls in
  let traced_wall = List.fold_left (fun s (_, w) -> s +. w) 0.0 walls in
  let probes =
    List.filteri (fun i _ -> i < probed) (List.rev !replayed)
    |> List.map (fun (id, d) ->
           Design.probe p ~op:(id / trials) d
             ~ga_s:(Trace.op_duration ~op:id "ga.run"))
  in
  let mean = Workload.mean_span in
  Workload.emit_layers
    ~off_path:(("build.network_ms" :: Workload.seeding_layers) @ Workload.serve_layers)
    ([
       ("context.generate_ms", 1e3 *. mean "context.generate");
       ("seed.share", Trace.total "seed.seed_set" /. traced_wall);
       ("ga.run_s", mean "ga.run");
       ("trace.overhead", (traced_wall /. untraced_busy) -. 1.0);
       ("trace.coverage", Workload.coverage walls);
     ]
    @ Workload.average probes)
