module Graph = Cold_graph.Graph
module Shortest_path = Cold_graph.Shortest_path
module Gravity = Cold_traffic.Gravity

exception Disconnected

type loads = {
  n : int;
  matrix : float array;  (* n*n, both (u,v) and (v,u) mirror the value *)
  trees : Shortest_path.tree array;
}

let of_parts ~n ~matrix ~trees =
  if Array.length matrix <> n * n || Array.length trees <> n then
    invalid_arg "Routing.of_parts";
  { n; matrix; trees }

(* One domain's buffers for the tree-less step: the load matrix it
   writes, the subtree accumulator, one source's pair-demand row, and the
   folded view of the graph being priced (see [fold_leaves]). *)
type scratch = {
  sn : int;
  s_matrix : float array;
  s_subtree : float array;
  s_pair : float array;
  mutable folded : Graph.Csr.t;  (* core rows without leaves; leaf rows *)
  mutable f_lengths : float array;  (* per slot of [folded] *)
  rep : int array;  (* [v], or the hub of attached leaf [v] *)
  need : int array;  (* per vertex: the PoPs above the source it reaches *)
  leaf_start : int array;  (* hub [h]'s leaves: slots [leaf_start.(h)] .. *)
  leaf_id : int array;
  leaf_len : float array;  (* access length, from the hub's CSR row *)
  leaf_dist : float array;  (* this source's distance *)
  next_leaf : int array;  (* per hub: highest slot not yet added *)
}

let dls_scratch : scratch option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let scratch ~n =
  match Domain.DLS.get dls_scratch with
  | Some rs when rs.sn = n -> rs
  | _ ->
    let m = max n 1 in
    let rs =
      {
        sn = n;
        s_matrix = Array.make (n * n) 0.0;
        s_subtree = Array.make m 0.0;
        s_pair = Array.make m 0.0;
        folded =
          { Graph.Csr.offsets = Array.make (n + 1) 0; targets = Array.make (2 * m) 0 };
        f_lengths = Array.make (2 * m) 0.0;
        rep = Array.make m 0;
        need = Array.make m 0;
        leaf_start = Array.make (n + 1) 0;
        leaf_id = Array.make m 0;
        leaf_len = Array.make m 0.0;
        leaf_dist = Array.make m 0.0;
        next_leaf = Array.make m 0;
      }
    in
    Domain.DLS.set dls_scratch (Some rs);
    rs

let check_routable ~tm ~dist ~source =
  (* Every demand from [source] must be routable. The distance test comes
     first, so demands are only looked up for unreached destinations. *)
  let n = Gravity.size tm in
  for d = 0 to n - 1 do
    if Float.equal dist.(d) infinity && Gravity.demand tm source d > 0.0 then
      raise Disconnected
  done

(* What an ECMP split needs beyond the tree: the distances, a neighbour
   view and the length function. *)
type ecmp = {
  e_dist : float array;
  e_csr : Graph.Csr.t;
  e_length : int -> int -> float;
}

let[@inline] add_load matrix n u v w =
  matrix.((u * n) + v) <- matrix.((u * n) + v) +. w;
  matrix.((v * n) + u) <- matrix.((u * n) + v)

(* ECMP: every neighbour on a shortest path shares [v]'s subtree equally. *)
let split_ecmp e ~matrix ~subtree ~n ~pred ~source v =
  let dist = e.e_dist and length = e.e_length in
  let on_path u =
    dist.(u) +. length u v <= dist.(v) +. (1e-9 *. (1.0 +. dist.(v)))
    && dist.(u) < dist.(v)
  in
  let preds =
    Graph.Csr.fold_neighbors e.e_csr v
      (fun acc u -> if on_path u then u :: acc else acc)
      []
  in
  (* Degenerate geometries (zero-length links) can leave the strict
     distance test empty; fall back to the tree predecessor. *)
  let preds = if preds = [] then [ pred.(v) ] else preds in
  let share = subtree.(v) /. float_of_int (List.length preds) in
  List.iter
    (fun u ->
      add_load matrix n u v share;
      if u <> source then subtree.(u) <- subtree.(u) +. share)
    preds

(* The one accumulation. Reverse settling order: children are processed
   before parents, so each vertex's inflow is complete when it is pushed
   one hop towards [source]. Demands s→d and d→s are both accumulated here
   ([pair.(base + d)] is their sum), and every unordered pair is counted
   once, at its smaller endpoint's tree, through the [v > source] filter.
   The single-path case allocates nothing. *)
let accumulate_order ~ecmp ~matrix ~subtree ~n ~pair ~base ~pred ~order ~count
    ~source =
  Array.fill subtree 0 n 0.0;
  for i = count - 1 downto 0 do
    let v = order.(i) in
    if v <> source then begin
      if v > source then subtree.(v) <- subtree.(v) +. pair.(base + v);
      if subtree.(v) > 0.0 then
        match ecmp with
        | Some e -> split_ecmp e ~matrix ~subtree ~n ~pred ~source v
        | None ->
          let p = pred.(v) in
          add_load matrix n p v subtree.(v);
          if p <> source then subtree.(p) <- subtree.(p) +. subtree.(v)
    end
  done

let accumulate ?csr ?pair_demands ~multipath ~length ~tm ~matrix ~subtree
    ~n tree ~source =
  let (pair, base) =
    match pair_demands with
    | Some pd -> (pd, source * n)
    | None ->
      let row = Array.make (max n 1) 0.0 in
      Gravity.pair_demand_above tm source row;
      (row, 0)
  in
  let dist = tree.Shortest_path.dist and order = tree.Shortest_path.order in
  let ecmp =
    match (multipath, csr) with
    | (false, _) -> None
    | (true, Some csr) -> Some { e_dist = dist; e_csr = csr; e_length = length }
    | (true, None) -> invalid_arg "Routing.accumulate: multipath needs ~csr"
  in
  accumulate_order ~ecmp ~matrix ~subtree ~n ~pair ~base
    ~pred:tree.Shortest_path.pred ~order ~count:(Array.length order) ~source

(* --- the tree-less step: leaves folded, owned pairs only ------------------

   An attached leaf is a PoP of degree 1 whose one neighbour, its hub, has
   degree >= 2, so the ends of an isolated edge are not each other's hubs:
   both stay in the settle and each stands for itself in [need]. In the
   full settle a leaf is pushed only when its hub settles, at dist hub +.
   its access length, and relaxes nothing when it pops: its one arc leads
   back to the settled hub. So the folded view, where core rows drop their
   leaves and a leaf row keeps its arc (a leaf can still be a source),
   settles every other PoP in the same sequence with the same distances
   and predecessors, and each leaf of a settled hub follows from its hub.

   [fold_leaves] sets [rep], which maps a PoP to the settled vertex that
   reaches it, and [need], the number of PoPs each vertex reaches that
   way (itself and its leaves). When some PoP is an attached leaf it
   builds the view from [csr] and its per-slot [lengths], groups each
   hub's leaves sorted by (access length, id) and returns [true];
   otherwise the folded view is [csr] itself and nothing is copied. *)
let build_folded rs (csr : Graph.Csr.t) ~lengths =
  let n = rs.sn in
  let offsets = csr.offsets and targets = csr.targets in
  let rep = rs.rep and leaf_start = rs.leaf_start in
  let leaf_id = rs.leaf_id and leaf_len = rs.leaf_len in
  let m2 = offsets.(n) in
  if Array.length rs.folded.targets < m2 then begin
    let cap = max m2 (2 * Array.length rs.folded.targets) in
    rs.folded <- { rs.folded with targets = Array.make cap 0 };
    rs.f_lengths <- Array.make cap 0.0
  end;
  let f_offsets = rs.folded.offsets and f_targets = rs.folded.targets in
  let f_lengths = rs.f_lengths in
  let k = ref 0 and j = ref 0 in
  for u = 0 to n - 1 do
    f_offsets.(u) <- !k;
    leaf_start.(u) <- !j;
    if rep.(u) <> u then begin
      f_targets.(!k) <- targets.(offsets.(u));
      f_lengths.(!k) <- lengths.(offsets.(u));
      incr k
    end
    else
      for i = offsets.(u) to offsets.(u + 1) - 1 do
        let v = targets.(i) in
        if rep.(v) = v then begin
          f_targets.(!k) <- v;
          f_lengths.(!k) <- lengths.(i);
          incr k
        end
        else begin
          (* A leaf of [u]. Ids arrive ascending, so inserting on the
             length alone keeps equal lengths in id order. *)
          let len = lengths.(i) in
          let q = ref !j in
          while !q > leaf_start.(u) && leaf_len.(!q - 1) > len do
            leaf_id.(!q) <- leaf_id.(!q - 1);
            leaf_len.(!q) <- leaf_len.(!q - 1);
            decr q
          done;
          leaf_id.(!q) <- v;
          leaf_len.(!q) <- len;
          incr j
        end
      done;
    rs.need.(u) <- (if rep.(u) = u then 1 + !j - leaf_start.(u) else 0)
  done;
  f_offsets.(n) <- !k;
  leaf_start.(n) <- !j

let fold_leaves rs (csr : Graph.Csr.t) ~lengths =
  let n = rs.sn in
  let offsets = csr.offsets and targets = csr.targets in
  let leaves = ref 0 in
  for v = 0 to n - 1 do
    rs.rep.(v) <- v;
    if offsets.(v + 1) - offsets.(v) = 1 then begin
      let h = targets.(offsets.(v)) in
      if offsets.(h + 1) - offsets.(h) >= 2 then begin
        rs.rep.(v) <- h;
        incr leaves
      end
    end
  done;
  if !leaves > 0 then build_folded rs csr ~lengths
  else begin
    Array.fill rs.leaf_start 0 (n + 1) 0;
    Array.fill rs.need 0 n 1
  end;
  !leaves > 0

(* Each settled hub's leaves get this source's distances, dist hub +.
   length, and are brought into ascending (distance, id) order. A group
   starts sorted by (length, id), equal lengths stay in id order, and
   rounding is monotone, so a pair is out of order only where a sum rounds
   two different lengths onto one float, for this source or for an
   earlier one that re-sorted the group; the insertion moves only those. *)
let place_leaves rs ~dist ~order ~count =
  let leaf_start = rs.leaf_start and leaf_id = rs.leaf_id in
  let leaf_len = rs.leaf_len and leaf_dist = rs.leaf_dist in
  for i = 0 to count - 1 do
    let h = order.(i) in
    let first = leaf_start.(h) and last = leaf_start.(h + 1) - 1 in
    if last >= first then begin
      let d = dist.(h) in
      for j = first to last do
        leaf_dist.(j) <- d +. leaf_len.(j)
      done;
      for j = first + 1 to last do
        let dj = leaf_dist.(j) and id = leaf_id.(j) and len = leaf_len.(j) in
        let q = ref j in
        while
          !q > first
          && (leaf_dist.(!q - 1) > dj
             || (Float.equal leaf_dist.(!q - 1) dj && leaf_id.(!q - 1) > id))
        do
          leaf_id.(!q) <- leaf_id.(!q - 1);
          leaf_len.(!q) <- leaf_len.(!q - 1);
          leaf_dist.(!q) <- leaf_dist.(!q - 1);
          decr q
        done;
        if !q < j then begin
          leaf_id.(!q) <- id;
          leaf_len.(!q) <- len;
          leaf_dist.(!q) <- dj
        end
      done
    end;
    rs.next_leaf.(h) <- last
  done

(* Add hub [h]'s not-yet-added leaves whose (distance, id) lies above
   vertex [x]'s, or all of them when [x] < 0, highest first: a leaf's
   subtree is its own pair demand, owned only when it lies above
   [source]. *)
let add_leaves rs ~dist ~source h x =
  let leaf_id = rs.leaf_id and leaf_dist = rs.leaf_dist in
  let first = rs.leaf_start.(h) and j = ref rs.next_leaf.(h) in
  while
    !j >= first
    && (x < 0
       || leaf_dist.(!j) > dist.(x)
       || (Float.equal leaf_dist.(!j) dist.(x) && leaf_id.(!j) > x))
  do
    let l = leaf_id.(!j) in
    if l > source && rs.s_pair.(l) > 0.0 then begin
      add_load rs.s_matrix rs.sn h l rs.s_pair.(l);
      if h <> source then rs.s_subtree.(h) <- rs.s_subtree.(h) +. rs.s_pair.(l)
    end;
    decr j
  done;
  rs.next_leaf.(h) <- !j

(* [accumulate_order]'s single-path step over the folded settle. A
   vertex's children, leaves included, settle in ascending (distance, id)
   order: each holds its heap entry at its final priority once the vertex
   has settled. Each load entry takes one add per source, so what must be
   kept is the order of the adds into each subtree: before a core vertex
   adds into its parent, the parent's leaves that settle after it are
   added, and the parent's own turn adds the rest. *)
let accumulate_folded rs ~dist ~pred ~order ~count ~source =
  let subtree = rs.s_subtree and pair = rs.s_pair in
  for i = 0 to count - 1 do
    subtree.(order.(i)) <- 0.0
  done;
  place_leaves rs ~dist ~order ~count;
  for i = count - 1 downto 0 do
    let v = order.(i) in
    add_leaves rs ~dist ~source v (-1);
    if v <> source then begin
      if v > source then subtree.(v) <- subtree.(v) +. pair.(v);
      if subtree.(v) > 0.0 then begin
        let p = pred.(v) in
        add_leaves rs ~dist ~source p v;
        add_load rs.s_matrix rs.sn p v subtree.(v);
        if p <> source then subtree.(p) <- subtree.(p) +. subtree.(v)
      end
    end
  done

(* Pair {s, t} is routed only in the tree of min(s, t), so source [s]
   stops settling once every PoP above it is reached (through [need]) and
   source n - 1 routes nothing. Reachability is symmetric, so checking
   each pair at its smaller endpoint against its pair demand, which is
   positive exactly when either direction is, gives {!check_routable}'s
   verdict over all sources. *)
let route_loads sp csr ~lengths ~tm =
  let n = Graph.Csr.node_count csr in
  if Gravity.size tm <> n then invalid_arg "Routing.route_loads: size mismatch";
  let rs = scratch ~n in
  let t = Shortest_path.settled_tree sp in
  let dist = t.Shortest_path.dist in
  let folded = fold_leaves rs csr ~lengths in
  let view = if folded then rs.folded else csr in
  let view_lengths = if folded then rs.f_lengths else lengths in
  Array.fill rs.s_matrix 0 (n * n) 0.0;
  for s = 0 to n - 2 do
    rs.need.(rs.rep.(s)) <- rs.need.(rs.rep.(s)) - 1;
    let count =
      Shortest_path.settle_until sp view ~lengths:view_lengths ~source:s
        ~need:rs.need ~target:(n - 1 - s)
    in
    Gravity.pair_demand_above tm s rs.s_pair;
    for v = s + 1 to n - 1 do
      if Float.equal dist.(rs.rep.(v)) infinity && rs.s_pair.(v) > 0.0 then
        raise Disconnected
    done;
    accumulate_folded rs ~dist ~pred:t.Shortest_path.pred
      ~order:t.Shortest_path.order ~count ~source:s
  done;
  rs.s_matrix

(* The tree path: every source settles the full view and its tree is
   copied out. Sources run in order 0..n-1; only a partial settle can
   strand a demand. *)
let route ?(multipath = false) g ~length ~tm =
  let n = Graph.node_count g in
  if Gravity.size tm <> n then invalid_arg "Routing.route: size mismatch";
  let sp = Shortest_path.scratch ~n in
  let rs = scratch ~n in
  let csr = Shortest_path.view sp g in
  let lengths = Shortest_path.edge_lengths sp csr ~length in
  let t = Shortest_path.settled_tree sp in
  let ecmp =
    if multipath then
      Some { e_dist = t.Shortest_path.dist; e_csr = csr; e_length = length }
    else None
  in
  let matrix = Array.make (n * n) 0.0 in
  let empty = { Shortest_path.dist = [||]; pred = [||]; order = [||] } in
  let trees = Array.make n empty in
  for s = 0 to n - 1 do
    let count = Shortest_path.settle sp csr ~lengths ~source:s in
    if count < n then check_routable ~tm ~dist:t.Shortest_path.dist ~source:s;
    Gravity.pair_demand_above tm s rs.s_pair;
    accumulate_order ~ecmp ~matrix ~subtree:rs.s_subtree ~n ~pair:rs.s_pair
      ~base:0 ~pred:t.Shortest_path.pred ~order:t.Shortest_path.order ~count
      ~source:s;
    trees.(s) <- Shortest_path.copy_tree sp count
  done;
  { n; matrix; trees }

let load ld u v =
  if u < 0 || v < 0 || u >= ld.n || v >= ld.n then invalid_arg "Routing.load";
  ld.matrix.((u * ld.n) + v)

let matrix ld = ld.matrix

let fold ld f init =
  let acc = ref init in
  for u = 0 to ld.n - 1 do
    for v = u + 1 to ld.n - 1 do
      let w = ld.matrix.((u * ld.n) + v) in
      if w > 0.0 then acc := f !acc u v w
    done
  done;
  !acc

let total_volume_length ld ~length =
  fold ld (fun acc u v w -> acc +. (w *. length u v)) 0.0

let max_load ld = Array.fold_left Float.max 0.0 ld.matrix

let trees ld = ld.trees
