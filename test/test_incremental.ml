(* The incremental engine's contract is bit-identity: whatever sequence of
   edge flips, rollbacks, retargets and clones a state has been through, its
   loads and costs must be byte-for-byte what a fresh full evaluation of the
   same topology produces. These tests drive randomized op sequences (well
   over a thousand perturbations across seeds and metrics) against a mirror
   graph evaluated from scratch, comparing load matrices, trees and cost
   totals bitwise — no tolerances anywhere. *)

module Graph = Cold_graph.Graph
module Heap = Cold_graph.Heap
module Mst = Cold_graph.Mst
module Shortest_path = Cold_graph.Shortest_path
module Prng = Cold_prng.Prng
module Context = Cold_context.Context
module Routing = Cold_net.Routing
module Incremental = Cold_net.Incremental
module Cost = Cold.Cost
module Local_search = Cold.Local_search

let bits = Int64.bits_of_float

let feq_bits a b = Int64.equal (bits a) (bits b)

let ctx_of seed n = Context.generate (Context.default_spec ~n) (Prng.create seed)

(* Bitwise comparison of two loads: every matrix cell and every tree. *)
let check_loads_equal label n (got : Routing.loads) (want : Routing.loads) =
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let a = Routing.load got u v and b = Routing.load want u v in
      if not (feq_bits a b) then
        Alcotest.failf "%s: load (%d,%d): got %h, want %h" label u v a b
    done
  done;
  let ta = Routing.trees got and tb = Routing.trees want in
  Array.iteri
    (fun s (a : Shortest_path.tree) ->
      let b = tb.(s) in
      if not (Array.for_all2 feq_bits a.Shortest_path.dist b.Shortest_path.dist)
      then Alcotest.failf "%s: source %d dist differs" label s;
      if a.Shortest_path.pred <> b.Shortest_path.pred then
        Alcotest.failf "%s: source %d pred differs" label s;
      if a.Shortest_path.order <> b.Shortest_path.order then
        Alcotest.failf "%s: source %d order differs" label s)
    ta

(* --- randomized equivalence sweep --------------------------------------------- *)

let perturbations = ref 0

let random_pair rng n =
  let rec pick () =
    let u = Prng.int rng n and v = Prng.int rng n in
    if u = v then pick () else (min u v, max u v)
  in
  pick ()

(* Flip one random pair on the state and, when [mirror] is given, on the
   mirror graph too. *)
let flip ?mirror st rng n =
  let (u, v) = random_pair rng n in
  incr perturbations;
  if Graph.mem_edge (Incremental.graph st) u v then begin
    Incremental.remove_edge st u v;
    Option.iter (fun m -> Graph.remove_edge m u v) mirror
  end
  else begin
    Incremental.add_edge st u v;
    Option.iter (fun m -> Graph.add_edge m u v) mirror
  end

(* [?ctx] substitutes an adversarial context (e.g. colocated PoPs);
   [?length] substitutes an adversarial metric (e.g. unit lengths) — the
   cost cross-check is skipped then, since Cost always prices by the
   context's own distances. Returns the state's trees repaired in place and
   its trees recomputed after the first refresh (the bail-out path). *)
let sweep ?ctx ?length ~seed ~iterations n =
  let ctx = match ctx with Some c -> c | None -> ctx_of seed n in
  let check_cost = Option.is_none length in
  let length =
    match length with
    | Some l -> l
    | None -> fun u v -> Context.distance ctx u v
  in
  let tm = ctx.Context.tm in
  let params = Cost.params ~k2:2e-4 ~k3:0.3 () in
  let rng = Prng.create ((seed * 7919) + 1) in
  let g0 = Mst.mst_graph ~n ~weight:length in
  let st = Incremental.create g0 ~length ~tm in
  let mirror = ref (Graph.copy g0) in
  let check label =
    if not (Graph.equal (Incremental.graph st) !mirror) then
      Alcotest.failf "%s: state graph diverged from mirror" label;
    let fresh =
      match Routing.route !mirror ~length ~tm with
      | exception Routing.Disconnected -> None
      | l -> Some l
    in
    let inc =
      match Incremental.loads st with
      | exception Routing.Disconnected -> None
      | l -> Some l
    in
    match (fresh, inc) with
    | None, None -> ()
    | Some want, Some got ->
      check_loads_equal label n got want;
      if check_cost then begin
        let a = Cost.evaluate params ctx !mirror in
        let b = Cost.evaluate_state params ctx st in
        if not (feq_bits a b) then
          Alcotest.failf "%s: cost: evaluate %h vs evaluate_state %h" label a b
      end
    | Some _, None -> Alcotest.failf "%s: incremental says disconnected" label
    | None, Some _ -> Alcotest.failf "%s: fresh says disconnected" label
  in
  check "initial";
  let first_refresh = Incremental.recomputed_trees st in
  for step = 1 to iterations do
    let label what = Printf.sprintf "seed %d step %d %s" seed step what in
    (match Prng.int rng 12 with
    | 0 | 1 | 2 | 3 | 4 | 5 ->
      flip ~mirror:!mirror st rng n;
      Incremental.commit st
    | 6 | 7 ->
      flip ~mirror:!mirror st rng n;
      flip ~mirror:!mirror st rng n;
      Incremental.commit st
    | 8 | 9 ->
      (* Uncommitted proposal: evaluate it, reject it, and demand the state
         lands exactly back on the committed topology. *)
      let saved = Graph.copy !mirror in
      for _ = 1 to 1 + Prng.int rng 3 do
        flip ~mirror:!mirror st rng n
      done;
      check (label "proposed");
      Incremental.rollback st;
      mirror := saved
    | 10 ->
      (* Retarget: jump to a several-flips-away topology in one call. *)
      let target = Graph.copy !mirror in
      let trng = rng in
      for _ = 1 to 5 do
        let (u, v) = random_pair trng n in
        incr perturbations;
        if Graph.mem_edge target u v then Graph.remove_edge target u v
        else Graph.add_edge target u v
      done;
      let flips = Incremental.retarget st target in
      Alcotest.(check bool) (label "retarget flip count") true (flips <= 5);
      Incremental.commit st;
      mirror := target
    | _ ->
      (* Clone divergence: mutate the clone, leave the parent untouched. *)
      let c = Incremental.clone st in
      flip c rng n;
      flip c rng n;
      Incremental.commit c;
      let cg = Graph.copy (Incremental.graph c) in
      let fresh =
        match Routing.route cg ~length ~tm with
        | exception Routing.Disconnected -> None
        | l -> Some l
      in
      let inc =
        match Incremental.loads c with
        | exception Routing.Disconnected -> None
        | l -> Some l
      in
      (match (fresh, inc) with
      | None, None -> ()
      | Some want, Some got -> check_loads_equal (label "clone") n got want
      | _ -> Alcotest.failf "%s: clone feasibility disagrees" (label "clone")));
    check (label "committed")
  done;
  ( Incremental.repaired_trees st,
    Incremental.recomputed_trees st - first_refresh )

let test_sweep_single_path () =
  let repaired =
    List.fold_left
      (fun acc seed -> acc + fst (sweep ~seed ~iterations:170 13))
      0 [ 1; 2; 3; 4 ]
  in
  (* The engine must actually repair, not silently bail everywhere. *)
  Alcotest.(check bool)
    (Printf.sprintf "trees repaired in place (got %d)" repaired)
    true (repaired > 0)

(* --- adversarial tie-heavy topologies ----------------------------------------- *)

(* Colocated PoPs: coordinate duplicates make zero-length links, the exact
   case the repair certificate rejects — every repair of such a tree must
   bail to a full Dijkstra, and results must stay bit-identical through the
   bail path. Distances between distinct sites still tie heavily (integer
   grid). *)
let colocated_ctx n =
  let pts =
    Array.init n (fun i ->
        let k = i / 2 in
        Cold_geom.Point.make (float_of_int (k mod 3)) (float_of_int (k / 3)))
  in
  let pops = Array.init n (fun i -> 1.0 +. float_of_int (i mod 4)) in
  Context.of_points_and_populations pts pops

let test_sweep_colocated_pops () =
  let n = 12 in
  let bailed =
    List.fold_left
      (fun acc (seed, iterations) ->
        acc + snd (sweep ~ctx:(colocated_ctx n) ~seed ~iterations n))
      0 [ (31, 130); (32, 90) ]
  in
  (* The sweep is only a test of the bail-out path if it took it. *)
  Alcotest.(check bool)
    (Printf.sprintf "trees recomputed after the first refresh (got %d)" bailed)
    true (bailed > 0)

let test_sweep_unit_lengths () =
  (* Every link weight 1: path lengths collapse onto small integers, so
     equal-length alternative routes are everywhere and every repair leans
     on the canonical (priority, vertex-id) tie-break. *)
  let (r, _) = sweep ~length:(fun _ _ -> 1.0) ~seed:33 ~iterations:150 13 in
  Alcotest.(check bool) "unit-length sweep exercises repair" true (r > 0);
  ignore (sweep ~length:(fun _ _ -> 1.0) ~seed:34 ~iterations:90 13)

let test_sweep_quantized_lengths () =
  (* Two-valued metric: multigraph-like parallel shortest candidates between
     whole regions, plus exact float ties in every relaxation. *)
  let length u v = if (u + v) mod 2 = 0 then 2.0 else 1.0 in
  ignore (sweep ~length ~seed:35 ~iterations:150 13);
  ignore (sweep ~length ~seed:36 ~iterations:90 13)

let test_perturbation_budget () =
  (* The sweeps above must together exceed the required op count. *)
  Alcotest.(check bool)
    (Printf.sprintf "at least 1000 perturbations (got %d)" !perturbations)
    true
    (!perturbations >= 1000)

(* --- per-domain scratch ---------------------------------------------------------- *)

(* Every Dijkstra and routing pass runs in the calling domain's scratch;
   what they return must be copies. Trees and loads taken before other
   graphs were routed through the same scratch must still equal fresh
   ones, and the adjacency, CSR and dense-scan views must agree. *)
let test_scratch_bit_identical () =
  let n = 12 in
  let ctx = ctx_of 9 n in
  let length u v = Context.distance ctx u v in
  let tm = ctx.Context.tm in
  let rng = Prng.create 10 in
  let g = Mst.mst_graph ~n ~weight:length in
  for _ = 1 to 8 do
    let (u, v) = random_pair rng n in
    if not (Graph.mem_edge g u v) then Graph.add_edge g u v
  done;
  let other = Graph.complete n in
  let kept = Array.init n (fun s -> Shortest_path.dijkstra g ~length ~source:s) in
  let adj = Graph.adjacency_arrays g in
  let csr = Graph.Csr.of_graph g in
  for s = 0 to n - 1 do
    let plain = Shortest_path.dijkstra g ~length ~source:s in
    let with_adj = Shortest_path.dijkstra ~adj g ~length ~source:s in
    let with_csr = Shortest_path.dijkstra ~csr g ~length ~source:s in
    ignore (Shortest_path.dijkstra other ~length ~source:s);
    List.iter
      (fun (label, (t : Shortest_path.tree)) ->
        let k = kept.(s) in
        if not (Array.for_all2 feq_bits k.Shortest_path.dist t.Shortest_path.dist)
        then Alcotest.failf "dijkstra %s: dist differs at source %d" label s;
        if k.Shortest_path.pred <> t.Shortest_path.pred then
          Alcotest.failf "dijkstra %s: pred differs at source %d" label s;
        if k.Shortest_path.order <> t.Shortest_path.order then
          Alcotest.failf "dijkstra %s: order differs at source %d" label s)
      [ ("plain", plain); ("adj", with_adj); ("csr", with_csr) ]
  done;
  let params = Cost.params ~k2:2e-4 () in
  let cost = Cost.evaluate params ctx g in
  List.iter
    (fun multipath ->
      let first = Routing.route ~multipath g ~length ~tm in
      ignore (Routing.route ~multipath other ~length ~tm);
      ignore (Cost.evaluate params ctx other);
      check_loads_equal
        (Printf.sprintf "route multipath=%b" multipath)
        n first
        (Routing.route ~multipath g ~length ~tm))
    [ false; true ];
  Alcotest.(check bool) "Cost.evaluate repeats" true
    (feq_bits cost (Cost.evaluate params ctx g))

(* --- fused breakdown ---------------------------------------------------------- *)

let test_breakdown_fused_pass () =
  let n = 11 in
  let ctx = ctx_of 14 n in
  let length u v = Context.distance ctx u v in
  let params = Cost.params ~k2:3e-4 ~k3:0.7 () in
  let g = Mst.mst_graph ~n ~weight:length in
  Graph.add_edge g 0 (n - 1);
  Graph.add_edge g 1 (n - 2);
  let b = Cost.evaluate_breakdown params ctx g in
  (* Reference: the two separate passes the fused sweep replaced. *)
  let loads = Routing.route g ~length ~tm:ctx.Context.tm in
  let len = Graph.fold_edges g (fun acc u v -> acc +. length u v) 0.0 in
  let vl = Routing.total_volume_length loads ~length in
  Alcotest.(check bool) "length term" true (feq_bits b.Cost.length (1.0 *. len));
  Alcotest.(check bool) "bandwidth term" true
    (feq_bits b.Cost.bandwidth (3e-4 *. vl));
  Alcotest.(check bool) "total = evaluate" true
    (feq_bits b.Cost.total (Cost.evaluate params ctx g));
  Alcotest.(check bool) "total = sum of terms" true
    (feq_bits b.Cost.total
       (b.Cost.existence +. b.Cost.length +. b.Cost.bandwidth +. b.Cost.hub))

(* --- indexed edge lookup and diffs -------------------------------------------- *)

let test_nth_edge_matches_enumeration () =
  let rng = Prng.create 77 in
  for trial = 1 to 20 do
    let n = 3 + Prng.int rng 12 in
    let g = Graph.create n in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Prng.int rng 3 = 0 then Graph.add_edge g u v
      done
    done;
    let edges = Array.of_list (Graph.edges g) in
    Alcotest.(check int)
      (Printf.sprintf "trial %d: edge count" trial)
      (Array.length edges) (Graph.edge_count g);
    Array.iteri
      (fun k (u, v) ->
        Alcotest.(check (pair int int))
          (Printf.sprintf "trial %d: edge %d" trial k)
          (u, v) (Graph.nth_edge g k))
      edges;
    Alcotest.check_raises "rank out of range"
      (Invalid_argument "Graph.nth_edge: rank out of range") (fun () ->
        ignore (Graph.nth_edge g (Graph.edge_count g)))
  done

let test_edge_diff_roundtrip () =
  let rng = Prng.create 78 in
  for trial = 1 to 20 do
    let n = 3 + Prng.int rng 10 in
    let mk () =
      let g = Graph.create n in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Prng.int rng 2 = 0 then Graph.add_edge g u v
        done
      done;
      g
    in
    let g = mk () and h = mk () in
    let (removed, added) = Graph.edge_diff g h in
    let patched = Graph.copy g in
    List.iter (fun (u, v) -> Graph.remove_edge patched u v) removed;
    List.iter (fun (u, v) -> Graph.add_edge patched u v) added;
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: diff patches g into h" trial)
      true
      (Graph.equal patched h);
    Alcotest.(check (pair (list (pair int int)) (list (pair int int))))
      (Printf.sprintf "trial %d: diff of equal graphs is empty" trial)
      ([], []) (Graph.edge_diff h h)
  done

(* --- batched multi-flip journals ---------------------------------------------- *)

let test_batched_journal () =
  (* k flips accumulate in one journal, then a single commit or rollback.
     Loads are demanded only at the batch boundary, so repairs from
     different flips of the batch compose on one tree before any oracle
     check — and one rollback must unwind the whole batch. *)
  let n = 14 in
  let ctx = ctx_of 61 n in
  let length u v = Context.distance ctx u v in
  let tm = ctx.Context.tm in
  let rng = Prng.create 62 in
  let g0 = Mst.mst_graph ~n ~weight:length in
  let st = Incremental.create g0 ~length ~tm in
  let mirror = ref (Graph.copy g0) in
  ignore (Incremental.loads st);
  Incremental.commit st;
  let check label =
    let fresh =
      match Routing.route !mirror ~length ~tm with
      | exception Routing.Disconnected -> None
      | l -> Some l
    in
    let inc =
      match Incremental.loads st with
      | exception Routing.Disconnected -> None
      | l -> Some l
    in
    match (fresh, inc) with
    | None, None -> ()
    | Some want, Some got -> check_loads_equal label n got want
    | _ -> Alcotest.failf "%s: feasibility disagrees" label
  in
  List.iter
    (fun k ->
      List.iter
        (fun commit ->
          let saved = Graph.copy !mirror in
          for _ = 1 to k do
            flip ~mirror:!mirror st rng n
          done;
          check (Printf.sprintf "k=%d proposed" k);
          if commit then Incremental.commit st
          else begin
            Incremental.rollback st;
            mirror := saved
          end;
          check (Printf.sprintf "k=%d %s" k (if commit then "committed" else "rolled back")))
        [ true; false ])
    [ 1; 2; 4; 8 ];
  Alcotest.(check bool) "batched journals exercised repair" true
    (Incremental.repaired_trees st > 0)

(* --- indexed heap ------------------------------------------------------------- *)

let test_indexed_heap_matches_lazy () =
  (* The decrease-key heap must pop the exact accepted sequence of the lazy
     heap: each vertex once, at its minimal pushed priority, in the strict
     (priority, vertex-id) order both heaps document. Quarter-integer
     priorities force plenty of exact float ties. *)
  let rng = Prng.create 81 in
  for trial = 1 to 60 do
    let n = 1 + Prng.int rng 40 in
    let lazyh = Heap.create ~capacity:4 in
    let idx = Heap.Indexed.create ~n in
    let best = Array.make n infinity in
    for _ = 1 to 1 + Prng.int rng 120 do
      let v = Prng.int rng n in
      let p = float_of_int (Prng.int rng 16) /. 4.0 in
      Heap.push lazyh ~priority:p v;
      Heap.Indexed.decrease idx ~priority:p v;
      if p < best.(v) then best.(v) <- p
    done;
    let popped = Array.make n false in
    let rec accepted () =
      match Heap.pop_min lazyh with
      | None -> None
      | Some (p, v) ->
        if popped.(v) then accepted ()
        else begin
          popped.(v) <- true;
          Some (p, v)
        end
    in
    let rec drain () =
      match Heap.Indexed.pop_min idx with
      | None ->
        (match accepted () with
        | None -> ()
        | Some (p, v) ->
          Alcotest.failf "trial %d: lazy heap has extra accepted pop (%g, %d)"
            trial p v)
      | Some (p, v) ->
        if not (feq_bits p best.(v)) then
          Alcotest.failf "trial %d: vertex %d popped at %g, minimal was %g"
            trial v p best.(v);
        (match accepted () with
        | Some (p', v') when v = v' && feq_bits p p' -> ()
        | Some (p', v') ->
          Alcotest.failf "trial %d: indexed (%g, %d) vs lazy (%g, %d)" trial p
            v p' v'
        | None -> Alcotest.failf "trial %d: lazy heap exhausted early" trial);
        drain ()
    in
    drain ()
  done

(* --- optimizer equivalence ---------------------------------------------------- *)

let test_local_search_incremental_bitwise () =
  let ctx = ctx_of 21 12 in
  let params = Cost.params ~k2:2e-4 () in
  let settings = { Local_search.default_settings with Local_search.iterations = 600 } in
  let full = Local_search.run ~incremental:false settings params ctx (Prng.create 22) in
  let b = Local_search.run settings params ctx (Prng.create 22) in
  Alcotest.(check bool) "best graph identical" true
    (Graph.equal full.Local_search.best b.Local_search.best);
  Alcotest.(check bool) "best cost bit-identical" true
    (feq_bits full.Local_search.best_cost b.Local_search.best_cost);
  Alcotest.(check int) "same accepted count" full.Local_search.accepted
    b.Local_search.accepted;
  Alcotest.(check int) "same evaluation count" full.Local_search.evaluations
    b.Local_search.evaluations

let () =
  Alcotest.run "cold_incremental"
    [
      ( "sweep",
        [
          Alcotest.test_case "single-path equivalence" `Quick test_sweep_single_path;
          Alcotest.test_case "colocated PoPs (zero-length ties)" `Quick
            test_sweep_colocated_pops;
          Alcotest.test_case "unit lengths (tie-heavy)" `Quick
            test_sweep_unit_lengths;
          Alcotest.test_case "quantized lengths (parallel candidates)" `Quick
            test_sweep_quantized_lengths;
          Alcotest.test_case "batched multi-flip journals" `Quick
            test_batched_journal;
          Alcotest.test_case "perturbation budget" `Quick test_perturbation_budget;
        ] );
      ( "heap",
        [
          Alcotest.test_case "indexed matches lazy accepted pops" `Quick
            test_indexed_heap_matches_lazy;
        ] );
      ( "scratch",
        [ Alcotest.test_case "bit-identical outputs" `Quick test_scratch_bit_identical ] );
      ( "cost",
        [ Alcotest.test_case "fused breakdown" `Quick test_breakdown_fused_pass ] );
      ( "graph",
        [
          Alcotest.test_case "nth_edge matches enumeration" `Quick
            test_nth_edge_matches_enumeration;
          Alcotest.test_case "edge_diff roundtrip" `Quick test_edge_diff_roundtrip;
        ] );
      ( "optimizers",
        [
          Alcotest.test_case "local search incremental bitwise" `Quick
            test_local_search_incremental_bitwise;
        ] );
    ]
