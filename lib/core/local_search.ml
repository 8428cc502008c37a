module Graph = Cold_graph.Graph
module Prng = Cold_prng.Prng
module Dist = Cold_prng.Dist
module Context = Cold_context.Context
module Incremental = Cold_net.Incremental

type settings = {
  iterations : int;
  initial_temperature : float;
  cooling : float;
  node_move_prob : float;
}

type result = {
  best : Graph.t;
  best_cost : float;
  accepted : int;
  evaluations : int;
}

let default_settings =
  {
    iterations = 4000;
    initial_temperature = 0.03;
    (* ~1000x decay over the run: cooling^iterations = 1e-3. *)
    cooling = exp (log 1e-3 /. 4000.0);
    node_move_prob = 0.2;
  }

let hill_climb_settings = { default_settings with initial_temperature = 0.0 }

(* Propose a neighbour of [g], built in the caller-owned [into] buffer:
   toggle one random pair, or turn a random hub into a leaf. Repairs
   connectivity. Writing into a reused buffer (Graph.copy_into) instead of
   Graph.copy saves an n²-byte allocation per iteration — the proposal
   loop's entire allocation profile at large n — and changes no byte of any
   candidate. Callers must copy a candidate they intend to retain. *)
let propose ?locality ctx ~into g rng ~node_move_prob =
  Graph.copy_into ~src:g ~dst:into;
  let candidate = into in
  if Dist.bernoulli rng ~p:node_move_prob then
    Operators.node_mutation ctx candidate rng
  else begin
    match locality with
    | Some k ->
      (* Locality mode: remove a uniform existing link or add a spatially
         local one, 50/50 — its own deterministic RNG trajectory. *)
      (if Dist.bernoulli rng ~p:0.5 then
         match Operators.random_existing_edge candidate rng with
         | Some (u, v) -> Graph.remove_edge candidate u v
         | None -> ()
       else
         match Operators.locality_absent_pair ctx candidate rng ~k with
         | Some (u, v) -> Graph.add_edge candidate u v
         | None -> ());
      ignore (Repair.repair ctx candidate)
    | None ->
      let n = Graph.node_count candidate in
      let rec pick () =
        let u = Prng.int rng n and v = Prng.int rng n in
        if u = v then pick () else (u, v)
      in
      let (u, v) = pick () in
      if Graph.mem_edge candidate u v then Graph.remove_edge candidate u v
      else Graph.add_edge candidate u v;
      ignore (Repair.repair ctx candidate)
  end;
  candidate

let run ?(incremental = true) ?initial ?locality settings params ctx rng =
  if settings.iterations < 0 then invalid_arg "Local_search.run: negative iterations";
  if settings.cooling <= 0.0 || settings.cooling > 1.0 then
    invalid_arg "Local_search.run: cooling must be in (0, 1]";
  let n = Context.n ctx in
  if n < 2 then invalid_arg "Local_search.run: need at least 2 PoPs";
  let start =
    match initial with
    | Some g ->
      if Graph.node_count g <> n then
        invalid_arg "Local_search.run: initial topology size mismatch";
      (* A disconnected start would cost infinity, and so would the start
         temperature: annealing would accept every proposal. Repair draws
         no randomness and leaves a connected start untouched. *)
      let start = Graph.copy g in
      ignore (Repair.repair ctx start);
      start
    | None ->
      Cold_graph.Mst.mst_graph ~n ~weight:(fun u v -> Context.distance ctx u v)
  in
  let evaluations = ref 0 in
  let accepted = ref 0 in
  if incremental then begin
    (* Propose-on-state: the single-trajectory annealer is the ideal client
       of the incremental engine — each candidate differs from the current
       state by one or two edge flips (plus whatever repair touched), so
       only the affected shortest-path trees are repaired. Accept commits
       the flips; reject rolls them back. Costs, and therefore the whole
       accept/reject trajectory, are bit-identical to the full-evaluation
       loop below. *)
    let st = Cost.state ctx start in
    let evaluate_st () =
      incr evaluations;
      Cost.evaluate_state params ctx st
    in
    (* One scratch graph hosts every proposal; retarget transfers its edge
       flips onto the persistent state, so the buffer is dead the moment the
       evaluation returns — except when the candidate is a new best, which
       takes the run's only per-improvement copy. *)
    let scratch = Graph.create n in
    let current_cost = ref (evaluate_st ()) in
    let best = ref start in
    let best_cost = ref !current_cost in
    let temperature = ref (settings.initial_temperature *. !current_cost) in
    for _ = 1 to settings.iterations do
      let candidate =
        propose ?locality ctx ~into:scratch (Incremental.graph st) rng
          ~node_move_prob:settings.node_move_prob
      in
      ignore (Incremental.retarget st candidate);
      let cost = evaluate_st () in
      let delta = cost -. !current_cost in
      let accept =
        delta <= 0.0
        || (!temperature > 0.0 && Prng.float rng < exp (-.delta /. !temperature))
      in
      if accept then begin
        Incremental.commit st;
        current_cost := cost;
        incr accepted;
        if cost < !best_cost then begin
          best := Graph.copy candidate;
          best_cost := cost
        end
      end
      else Incremental.rollback st;
      temperature := !temperature *. settings.cooling
    done;
    { best = !best; best_cost = !best_cost; accepted = !accepted;
      evaluations = !evaluations }
  end
  else begin
    let evaluate g =
      incr evaluations;
      Cost.evaluate params ctx g
    in
    (* Double buffer: [current] and [scratch] swap on accept, so the whole
       trajectory allocates two graphs total (plus one copy per new best)
       instead of one per iteration. *)
    let current = ref start in
    let scratch = ref (Graph.create n) in
    let current_cost = ref (evaluate !current) in
    (* [best] must own its graph: [start]'s buffer enters the double-buffer
       rotation on the first accept and would be overwritten underneath an
       aliased best. *)
    let best = ref (Graph.copy !current) in
    let best_cost = ref !current_cost in
    let temperature = ref (settings.initial_temperature *. !current_cost) in
    for _ = 1 to settings.iterations do
      let candidate =
        propose ?locality ctx ~into:!scratch !current rng
          ~node_move_prob:settings.node_move_prob
      in
      let cost = evaluate candidate in
      let delta = cost -. !current_cost in
      let accept =
        delta <= 0.0
        || (!temperature > 0.0 && Prng.float rng < exp (-.delta /. !temperature))
      in
      if accept then begin
        let freed = !current in
        current := candidate;
        scratch := freed;
        current_cost := cost;
        incr accepted;
        if cost < !best_cost then begin
          best := Graph.copy candidate;
          best_cost := cost
        end
      end;
      temperature := !temperature *. settings.cooling
    done;
    { best = !best; best_cost = !best_cost; accepted = !accepted;
      evaluations = !evaluations }
  end
