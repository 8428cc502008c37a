module Graph = Cold_graph.Graph
module Heap = Cold_graph.Heap
module Shortest_path = Cold_graph.Shortest_path
module Gravity = Cold_traffic.Gravity

type op = Add of int * int | Remove of int * int

(* Raised inside a repair pass when completing it would violate the repair
   certificate (see Shortest_path.canonical) — i.e. when the fresh run's
   settle order could depend on push history rather than final distances.
   The caller falls back to marking the source dirty — the bail-out path —
   and the next refresh runs a full Dijkstra, so bit-identity holds either
   way. *)
exception Bail

(* Per-state scratch for the repair pass, lazily allocated: states that
   never repair (topologies that always bail) never pay for it. A state
   belongs to one domain at a time, so no sharing hazard. *)
type scratch = {
  rheap : Heap.Indexed.t; (* decrease-key frontier *)
  mark : bool array; (* remove-repair: cut-subtree membership *)
  settled : bool array; (* vertices settled by the current repair *)
  sub : int array; (* remove-repair: cut-subtree member list *)
  slist : int array; (* settled vertices in pop = ascending (dist, id) order *)
  norder : int array; (* staging buffer for the merged settle order *)
}

type t = {
  g : Graph.t; (* private copy; the current (possibly uncommitted) topology *)
  length : int -> int -> float;
  tm : Gravity.t;
  n : int;
  trees : Shortest_path.tree array; (* trees.(s) is current iff not dirty.(s) *)
  dirty : bool array;
  (* canon.(s): the clean tree satisfies the repair certificate
     (Shortest_path.canonical). In-place repair is gated on it, and the
     affected-source tests fall back to a stronger conservative criterion
     without it (settle order is only a function of final distances under
     the certificate). Meaningful only while not dirty.(s); refresh
     re-derives it from the fresh tree. *)
  canon : bool array;
  mutable dirty_count : int;
  (* n*n loads; meaningful iff matrix_valid. Allocated lazily on the first
     [loads] — populations of cloned states that are evaluated and discarded
     before ever asking for loads never pay the 8n² bytes. *)
  mutable matrix : float array;
  subtree : float array; (* accumulation scratch *)
  pair_dem : float array; (* n*n Gravity.pair_demand table; immutable *)
  mutable matrix_valid : bool;
  (* Adjacency snapshot, kept in sync with [g]: edge flips rewrite just the
     two endpoint rows (each row is a fresh array; rows are never mutated in
     place, so clones may share them). Meaningful iff adj_valid. *)
  mutable adj : int array array;
  mutable adj_valid : bool;
  mutable journal : op list; (* uncommitted ops, most recent first *)
  (* First-touch snapshots since the last commit:
     (source, tree, was_dirty, was_canon). Rollback restores exactly
     these, so its cost is proportional to what the rejected proposal
     actually touched. *)
  mutable undo : (int * Shortest_path.tree * bool * bool) list;
  touched : bool array;
  mutable recomputed : int;
  mutable repaired : int;
  mutable rs : scratch option;
}

let dummy_tree = { Shortest_path.dist = [||]; pred = [||]; order = [||] }

let create g ~length ~tm =
  let n = Graph.node_count g in
  if Gravity.size tm <> n then invalid_arg "Incremental.create: size mismatch";
  let pair_dem = Array.make (max (n * n) 1) 0.0 in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      pair_dem.((s * n) + d) <- Gravity.pair_demand tm s d
    done
  done;
  {
    g = Graph.copy g;
    length;
    tm;
    n;
    trees = Array.make n dummy_tree;
    dirty = Array.make n true;
    canon = Array.make n false;
    dirty_count = n;
    matrix = [||];
    subtree = Array.make (max n 1) 0.0;
    pair_dem;
    matrix_valid = false;
    adj = [||];
    adj_valid = false;
    journal = [];
    undo = [];
    touched = Array.make n false;
    recomputed = 0;
    repaired = 0;
    rs = None;
  }

let graph st = st.g

let recomputed_trees st = st.recomputed

let repaired_trees st = st.repaired

let touch st s =
  if not st.touched.(s) then begin
    st.touched.(s) <- true;
    st.undo <- (s, st.trees.(s), st.dirty.(s), st.canon.(s)) :: st.undo
  end

let mark_dirty st s =
  if not st.dirty.(s) then begin
    touch st s;
    st.dirty.(s) <- true;
    st.dirty_count <- st.dirty_count + 1
  end

(* The affected-source criteria. Both are conservative supersets of "the
   fresh Dijkstra tree would differ", which is what bit-identity needs.
   Dijkstra only ever relaxes from a settled vertex, whose distance is
   already final — so every relaxation candidate is ≥ the target's final
   distance, and under the repair certificate (canon.(s): every settled
   vertex's predecessor is strictly closer) the settle sequence is exactly
   ascending (dist, id): each vertex is pushed at its final priority before
   the first pop of its equal-distance group, so push timing is invisible
   and stale or tied-but-losing heap entries are skipped by lazy deletion
   without moving dist, pred or settle order. Consequently, for a
   certificate-carrying tree:

   - An added edge {u,v} of length l changes source s's tree only if it
     strictly improves an endpoint's final distance — dist_s(u) + l <
     dist_s(v) or symmetrically — or ties it exactly AND beats the current
     predecessor in the run's smaller-id tie-break (pred is the minimum id
     over tying achievers that settle first, so a tie with u ≥ pred_s(v)
     changes nothing). An exact tie between two unreachable endpoints
     (∞ = ∞ + l) falls out via pred = -1.

   WITHOUT the certificate (zero-length links: colocated PoPs) the settle
   order within an equal-distance group depends on push timing — a vertex
   reached only through a zero-length chain enters the heap mid-group. An
   added tying edge {u,v} with u ≥ pred_s(v) then still perturbs the run:
   when u settles while v's tentative distance is above final, the relax is
   a strict improvement that pushes v at final priority EARLIER than
   before, reordering the group (and with it downstream tie-broken preds)
   without moving any final distance. So a non-canonical tree falls back to
   the stronger criterion: affected on any strict improvement or exact tie
   (du + l ≤ dv, symmetrically), reachable endpoints only. That is complete:
   an edge with du + l > dv and dv + l > du strictly can only produce
   pushes at above-final priorities (rejected at pop without side effects)
   and tie-writes against above-final tentative distances (overwritten by
   the strict relax that later installs the final distance).

   - A removed edge {u,v} matters only if it was a tree edge of s
     (pred-linked) or tied a shortest distance exactly (the zero-length
     corner where equal-distance settling order could lean on it).
     Non-tree, non-tied edges influence no final distance and no
     settling push — a push at final priority through {u,v} needs
     dist_s(u) + l = dist_s(v) exactly (u relaxes only once settled, i.e.
     final), which IS the marked tie — so this test needs no certificate.
     If s cannot reach the edge at all (both endpoints at ∞ — they share a
     component, so one test suffices), its removal is invisible to s.

   Both tests read only clean trees; dirty sources are already scheduled
   for recomputation, so skipping them keeps the invariant: every clean
   tree equals a fresh Dijkstra on the current topology. *)

let affected_by_add st s u v l =
  let t = st.trees.(s) in
  let dist = t.Shortest_path.dist and pred = t.Shortest_path.pred in
  let du = dist.(u) and dv = dist.(v) in
  if st.canon.(s) then
    du +. l < dv || dv +. l < du
    || (Float.equal (du +. l) dv && u < pred.(v))
    || (Float.equal (dv +. l) du && v < pred.(u))
  else
    (du < infinity && du +. l <= dv) || (dv < infinity && dv +. l <= du)

let affected_by_remove st s u v l =
  let t = st.trees.(s) in
  let dist = t.Shortest_path.dist and pred = t.Shortest_path.pred in
  pred.(v) = u || pred.(u) = v
  || (dist.(u) < infinity
      && (Float.equal (dist.(u) +. l) dist.(v)
          || Float.equal (dist.(v) +. l) dist.(u)))

(* One adjacency row, rebuilt from the graph: ascending neighbour ids,
   exactly as Graph.adjacency_arrays lays them out (iter_neighbors is the
   same ascending row scan), so Dijkstra relaxation order is identical. *)
let adj_row st v =
  let a = Array.make (Graph.degree st.g v) 0 in
  let k = ref 0 in
  Graph.iter_neighbors st.g v (fun u ->
      a.(!k) <- u;
      incr k);
  a

(* Keep the adjacency snapshot current across a flip by rewriting just the
   two endpoint rows — O(n) instead of rebuilding all n rows per
   evaluation. Fresh row arrays every time: live clones may still hold the
   old ones. *)
let patch_adj st u v =
  if st.adj_valid then begin
    st.adj.(u) <- adj_row st u;
    st.adj.(v) <- adj_row st v
  end

let refresh_adj st =
  if not st.adj_valid then begin
    st.adj <- Graph.adjacency_arrays st.g;
    st.adj_valid <- true
  end

(* --- dynamic repair ---------------------------------------------------------

   Repair a clean tree in place of re-running Dijkstra from scratch. The
   whole pass leans on the repair certificate (Shortest_path.canonical):
   while every settled non-source vertex sits strictly farther than its
   predecessor, the fresh run's settle order is exactly the ascending
   (dist, id) sort of the reachable vertices — so the unchanged part of the
   old order is still sorted, the repaired part comes out of the frontier
   heap already sorted, and an ordered merge reconstructs the order the
   fresh run would produce, bit for bit. Whenever completing a repair would
   break the certificate (colocated PoPs, float-rounding-swallowed lengths),
   the pass raises Bail and the source falls back to full recomputation. *)

let scratch st =
  match st.rs with
  | Some rs -> rs
  | None ->
    let cap = max st.n 1 in
    let rs =
      {
        rheap = Heap.Indexed.create ~n:st.n;
        mark = Array.make cap false;
        settled = Array.make cap false;
        sub = Array.make cap 0;
        slist = Array.make cap 0;
        norder = Array.make cap 0;
      }
    in
    st.rs <- Some rs;
    rs

(* Bail-path cleanup: the repair built only private arrays, so the tree is
   untouched; just return the scratch to its all-clear resting state. *)
let reset_scratch st rs =
  Heap.Indexed.clear rs.rheap;
  Array.fill rs.mark 0 st.n false;
  Array.fill rs.settled 0 st.n false

(* One relaxation of the repair pass, mirroring Shortest_path.settle's
   relax bit for bit: [w] settled at distance [d] offers neighbour [x] the
   path [d +. length w x]. Strict improvements move the frontier
   (decrease-key). An exact tie lowers the predecessor id exactly when the
   fresh run would — i.e. when [w] settles before [x], which under the
   certificate means d < dist(x), or w < x at equal distance; but the equal
   case would install an equal-distance predecessor and break the
   certificate, so it bails instead. *)
let relax_dyn st ndist npred settled rheap d w x =
  if not settled.(x) then begin
    let nd = d +. st.length w x in
    if nd < ndist.(x) then begin
      ndist.(x) <- nd;
      npred.(x) <- w;
      Heap.Indexed.decrease rheap ~priority:nd x
    end
    else if Float.equal nd ndist.(x) && npred.(x) >= 0 && w < npred.(x) then begin
      if d < ndist.(x) then npred.(x) <- w else if w < x then raise Bail
    end
  end

(* Drain the repair frontier: settle in ascending (priority, id) order —
   exactly the fresh run's order restricted to the re-settled vertices —
   re-relaxing each settled vertex's whole adjacency row. The certificate
   is enforced at every settle. Returns the settle count (the filled prefix
   of rs.slist). *)
let drain_frontier st rs ndist npred =
  let settled = rs.settled and rheap = rs.rheap and slist = rs.slist in
  let adj = st.adj in
  let sc = ref 0 in
  let rec loop () =
    match Heap.Indexed.pop_min rheap with
    | None -> !sc
    | Some (d, w) ->
      let p = npred.(w) in
      if p < 0 || not (ndist.(p) < d) then raise Bail;
      settled.(w) <- true;
      slist.(!sc) <- w;
      incr sc;
      let row = adj.(w) in
      for k = 0 to Array.length row - 1 do
        relax_dyn st ndist npred settled rheap d w row.(k)
      done;
      loop ()
  in
  loop ()

(* New settle order = ordered merge of the surviving old entries (their
   distances did not move, so their subsequence is still sorted) with the
   repair's own settle list, both ascending (dist, id). [skip] masks old
   entries the repair superseded (re-settled, or cut off entirely). *)
let merge_order ndist ~old_order ~skip ~slist ~sc ~norder =
  let oc = Array.length old_order in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  let advance () =
    while !i < oc && skip.(old_order.(!i)) do
      incr i
    done
  in
  advance ();
  while !i < oc || !j < sc do
    if !j >= sc then begin
      norder.(!k) <- old_order.(!i);
      incr k;
      incr i;
      advance ()
    end
    else if !i >= oc then begin
      norder.(!k) <- slist.(!j);
      incr j;
      incr k
    end
    else begin
      let a = old_order.(!i) and b = slist.(!j) in
      if ndist.(a) < ndist.(b) || (Float.equal ndist.(a) ndist.(b) && a < b)
      then begin
        norder.(!k) <- a;
        incr k;
        incr i;
        advance ()
      end
      else begin
        norder.(!k) <- b;
        incr j;
        incr k
      end
    end
  done;
  Array.sub norder 0 !k

type repair_result =
  | Unchanged (* the flip provably leaves the tree bit-identical *)
  | Repaired of Shortest_path.tree
  | Failed (* certificate would break: fall back to full Dijkstra *)

(* Insert repair, strict case: the new edge gives [dst] the better distance
   [nd] through [src]. Seed the frontier at [dst] and re-relax outward:
   a vertex's distance can only drop through the new edge, so every vertex
   the fresh run discovers differently is reached by the frontier, and
   vertices the frontier never pops provably keep distance, predecessor and
   settle position (an unaffected neighbour cannot tie a strictly-improved
   distance: its old relaxation already bounded the old distance). The old
   arrays are never mutated — the tree is built in fresh copies — so a bail
   or a later rollback costs nothing. *)
let repair_add_strict st rs ~src ~dst ~nd t =
  let ndist = Array.copy t.Shortest_path.dist in
  let npred = Array.copy t.Shortest_path.pred in
  ndist.(dst) <- nd;
  npred.(dst) <- src;
  Heap.Indexed.decrease rs.rheap ~priority:nd dst;
  let sc = drain_frontier st rs ndist npred in
  let order =
    merge_order ndist ~old_order:t.Shortest_path.order ~skip:rs.settled
      ~slist:rs.slist ~sc ~norder:rs.norder
  in
  for j = 0 to sc - 1 do
    rs.settled.(rs.slist.(j)) <- false
  done;
  { Shortest_path.dist = ndist; pred = npred; order }

(* Repair source [s]'s tree for the insertion of edge {u,v} (already applied
   to graph and adjacency). Caller guarantees: clean, canonical, affected,
   snapshotted. *)
let try_repair_add st s u v l =
  let t = st.trees.(s) in
  let dist = t.Shortest_path.dist and pred = t.Shortest_path.pred in
  let du = dist.(u) and dv = dist.(v) in
  if du +. l < dv then begin
    let rs = scratch st in
    try Repaired (repair_add_strict st rs ~src:u ~dst:v ~nd:(du +. l) t)
    with Bail ->
      reset_scratch st rs;
      Failed
  end
  else if dv +. l < du then begin
    let rs = scratch st in
    try Repaired (repair_add_strict st rs ~src:v ~dst:u ~nd:(dv +. l) t)
    with Bail ->
      reset_scratch st rs;
      Failed
  end
  else if Float.equal (du +. l) dv && u < pred.(v) && du < dv then begin
    (* Tie-only: no distance moves, so the settle order is untouched and
       only [v]'s predecessor drops to the smaller id ([u] settles first
       since du < dv). Share dist and order with the old record, patch a
       pred copy. *)
    let npred = Array.copy pred in
    npred.(v) <- u;
    Repaired { Shortest_path.dist; pred = npred; order = t.Shortest_path.order }
  end
  else if Float.equal (dv +. l) du && v < pred.(u) && dv < du then begin
    let npred = Array.copy pred in
    npred.(u) <- v;
    Repaired { Shortest_path.dist; pred = npred; order = t.Shortest_path.order }
  end
  else
    (* Degenerate: equal-distance endpoints tie through the new edge — any
       repair would need an equal-distance predecessor. Full recompute. *)
    Failed

(* Delete repair of a tree edge: [child]'s subtree is exactly the set of
   vertices whose tree path used the removed edge. Cut it to infinity, seed
   each member from its surviving non-subtree neighbours (the relaxations
   the fresh run receives from vertices that settle unchanged — no vertex
   outside the subtree can move: its tree path survives, and a distance
   increase never creates a new achiever for an unchanged distance), then
   re-settle through the frontier. Members that stay at infinity were
   disconnected by the removal and drop out of the order. *)
let repair_remove_subtree st ~child t =
  let rs = scratch st in
  let dist = t.Shortest_path.dist
  and pred = t.Shortest_path.pred
  and old_order = t.Shortest_path.order in
  let mark = rs.mark and sub = rs.sub in
  (* One ascending pass over the old order marks the subtree: the
     certificate settles every predecessor strictly before its children. *)
  let scount = ref 0 in
  Array.iter
    (fun w ->
      if w = child || (pred.(w) >= 0 && mark.(pred.(w))) then begin
        mark.(w) <- true;
        sub.(!scount) <- w;
        incr scount
      end)
    old_order;
  let scount = !scount in
  let ndist = Array.copy dist and npred = Array.copy pred in
  for i = 0 to scount - 1 do
    let w = sub.(i) in
    ndist.(w) <- infinity;
    npred.(w) <- -1
  done;
  match
    try
      for i = 0 to scount - 1 do
        let w = sub.(i) in
        let row = st.adj.(w) in
        for k = 0 to Array.length row - 1 do
          let x = row.(k) in
          if not mark.(x) then begin
            let dx = ndist.(x) in
            if dx < infinity then begin
              let d = dx +. st.length x w in
              if d < ndist.(w) then begin
                ndist.(w) <- d;
                npred.(w) <- x
              end
              else if Float.equal d ndist.(w) && x < npred.(w) then begin
                (* Same settle-before guard as relax_dyn: an achiever at the
                   candidate's own distance would be an equal-distance
                   predecessor — certificate break. *)
                if dx < d then npred.(w) <- x else if x < w then raise Bail
              end
            end
          end
        done;
        if ndist.(w) < infinity then
          Heap.Indexed.decrease rs.rheap ~priority:ndist.(w) w
      done;
      Some (drain_frontier st rs ndist npred)
    with Bail -> None
  with
  | None ->
    reset_scratch st rs;
    Failed
  | Some sc ->
    let order =
      merge_order ndist ~old_order ~skip:mark ~slist:rs.slist ~sc
        ~norder:rs.norder
    in
    for j = 0 to sc - 1 do
      rs.settled.(rs.slist.(j)) <- false
    done;
    for i = 0 to scount - 1 do
      mark.(sub.(i)) <- false
    done;
    Repaired { Shortest_path.dist = ndist; pred = npred; order }

(* Repair source [s]'s tree for the removal of edge {u,v} (already applied).
   A non-tree removal is an exact no-op under the certificate: distances
   cannot move (the tree path survives), the settle order is a function of
   the distances, and a tied-but-losing achiever was already losing the
   smaller-id tie-break — so the old engine's conservative recomputation of
   tied sources becomes free here. *)
let try_repair_remove st s u v =
  let t = st.trees.(s) in
  let pred = t.Shortest_path.pred in
  if pred.(v) = u then repair_remove_subtree st ~child:v t
  else if pred.(u) = v then repair_remove_subtree st ~child:u t
  else Unchanged

(* Dispatch one flip's effect on source [s]: repair in place when the tree
   carries the certificate, otherwise (or on bail) mark dirty for the next
   refresh. Every path snapshots the source first, so rollback restores the
   pre-flip tree either way. *)
let apply_to_source st s repair_fn =
  if st.canon.(s) then begin
    touch st s;
    match repair_fn () with
    | Unchanged -> ()
    | Repaired tree ->
      st.trees.(s) <- tree;
      st.repaired <- st.repaired + 1
    | Failed -> mark_dirty st s
  end
  else mark_dirty st s

let add_edge st u v =
  if u = v then invalid_arg "Incremental.add_edge: self-loop";
  if not (Graph.mem_edge st.g u v) then begin
    let l = st.length u v in
    (* Mutate the topology first: the affected tests read only the (still
       pre-flip) trees, while the repair pass needs the post-flip
       adjacency. *)
    Graph.add_edge st.g u v;
    patch_adj st u v;
    st.journal <- Add (u, v) :: st.journal;
    st.matrix_valid <- false;
    refresh_adj st;
    for s = 0 to st.n - 1 do
      if (not st.dirty.(s)) && affected_by_add st s u v l then
        apply_to_source st s (fun () -> try_repair_add st s u v l)
    done
  end

let remove_edge st u v =
  if Graph.mem_edge st.g u v then begin
    let l = st.length u v in
    Graph.remove_edge st.g u v;
    patch_adj st u v;
    st.journal <- Remove (u, v) :: st.journal;
    st.matrix_valid <- false;
    refresh_adj st;
    for s = 0 to st.n - 1 do
      if (not st.dirty.(s)) && affected_by_remove st s u v l then
        apply_to_source st s (fun () -> try_repair_remove st s u v)
    done
  end

let retarget st target =
  let (removed, added) = Graph.edge_diff st.g target in
  List.iter (fun (u, v) -> remove_edge st u v) removed;
  List.iter (fun (u, v) -> add_edge st u v) added;
  List.length removed + List.length added

let refresh st =
  if st.dirty_count > 0 then begin
    (* The adjacency snapshot is built once and then patched per flip, so
       a view built from it is cheaper than the graph's own row scan; the
       trees are bit-identical either way (see Shortest_path.view). One
       view and one length table serve every dirty source. *)
    refresh_adj st;
    let sp = Shortest_path.scratch ~n:st.n in
    let csr = Shortest_path.view sp ~adj:st.adj st.g in
    let lengths = Shortest_path.edge_lengths sp csr ~length:st.length in
    for s = 0 to st.n - 1 do
      if st.dirty.(s) then begin
        touch st s;
        st.trees.(s) <-
          Shortest_path.copy_tree sp
            (Shortest_path.settle sp csr ~lengths ~source:s);
        st.canon.(s) <- Shortest_path.canonical st.trees.(s);
        st.dirty.(s) <- false;
        st.recomputed <- st.recomputed + 1
      end
    done;
    st.dirty_count <- 0
  end

let loads st =
  refresh st;
  if not st.matrix_valid then begin
    if Array.length st.matrix < st.n * st.n then
      st.matrix <- Array.make (st.n * st.n) 0.0
    else Array.fill st.matrix 0 (st.n * st.n) 0.0;
    for s = 0 to st.n - 1 do
      let tree = st.trees.(s) in
      (* A tree that settled all n vertices has every distance finite, so
         check_routable cannot raise — skipping it then is behaviourally
         identical and saves n demand lookups per source. *)
      if Array.length tree.Shortest_path.order < st.n then
        Routing.check_routable ~tm:st.tm ~dist:tree.Shortest_path.dist
          ~source:s;
      Routing.accumulate ~pair_demands:st.pair_dem ~multipath:false
        ~length:st.length ~tm:st.tm ~matrix:st.matrix ~subtree:st.subtree
        ~n:st.n tree ~source:s
    done;
    st.matrix_valid <- true
  end;
  Routing.of_parts ~n:st.n ~matrix:st.matrix ~trees:st.trees

let commit st =
  st.journal <- [];
  List.iter (fun (s, _, _, _) -> st.touched.(s) <- false) st.undo;
  st.undo <- []

let rollback st =
  (* journal is most-recent-first, so a head-first sweep undoes ops in
     reverse chronological order. *)
  List.iter
    (function
      | Add (u, v) -> Graph.remove_edge st.g u v
      | Remove (u, v) -> Graph.add_edge st.g u v)
    st.journal;
  (* Re-sync the adjacency rows the undone flips had patched (idempotent,
     so endpoints appearing in several ops are fine). *)
  List.iter
    (function
      | Add (u, v) | Remove (u, v) -> patch_adj st u v)
    st.journal;
  st.journal <- [];
  List.iter
    (fun (s, tree, was_dirty, was_canon) ->
      st.trees.(s) <- tree;
      st.dirty.(s) <- was_dirty;
      st.canon.(s) <- was_canon;
      st.touched.(s) <- false)
    st.undo;
  st.undo <- [];
  let count = ref 0 in
  for s = 0 to st.n - 1 do
    if st.dirty.(s) then incr count
  done;
  st.dirty_count <- !count;
  st.matrix_valid <- false

let clone st =
  {
    g = Graph.copy st.g;
    length = st.length;
    tm = st.tm;
    n = st.n;
    (* Tree records are immutable once built (refresh and repair replace,
       never mutate), so sharing them across clones is safe. *)
    trees = Array.copy st.trees;
    dirty = Array.copy st.dirty;
    canon = Array.copy st.canon;
    dirty_count = st.dirty_count;
    (* No matrix copy: [loads] always replays the accumulation in full from
       the (shared, immutable) trees, so a clone can start from an empty
       buffer and still produce bit-identical loads. This turns clone from
       O(n²) floats into O(n) + adjacency-pointer copies — the difference
       between 8 MB and a few KB per clone at n = 1000. *)
    matrix = [||];
    subtree = Array.make (max st.n 1) 0.0;
    pair_dem = st.pair_dem; (* immutable; shared *)
    matrix_valid = false;
    (* Copy the outer array only: rows are immutable (patch_adj replaces,
       never mutates), so sharing them across clones is safe, but each
       state must be free to re-point its own rows. *)
    adj = (if st.adj_valid then Array.copy st.adj else [||]);
    adj_valid = st.adj_valid;
    journal = [];
    undo = [];
    touched = Array.make st.n false;
    recomputed = 0;
    repaired = 0;
    rs = None; (* repair scratch is single-owner; the clone grows its own *)
  }
