type tree = { dist : float array; pred : int array; order : int array }

(* One domain's buffers for the per-source step. [out] is tree-shaped but
   its [order] is full length: only the prefix a settle reports is valid.
   [view] and [lengths] hold the CSR snapshot and its per-slot link lengths
   for callers that hand in a graph and a length function. *)
type scratch = {
  n : int;
  out : tree;
  settled : bool array;
  heap : Heap.t;
  mutable view : Graph.Csr.t;
  mutable lengths : float array;
}

let make_scratch n =
  {
    n;
    out =
      {
        dist = Array.make n infinity;
        pred = Array.make n (-1);
        order = Array.make n (-1);
      };
    settled = Array.make n false;
    heap = Heap.create ~capacity:(2 * max n 1);
    view = { Graph.Csr.offsets = Array.make (n + 1) 0; targets = [| 0 |] };
    lengths = Array.make (2 * max n 1) 0.0;
  }

(* One lazily-created scratch per domain, rebuilt when the vertex count
   changes: tasks of a Par pool land on arbitrary domains, and each domain
   reuses its own buffers run after run. *)
let dls_scratch : scratch option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let scratch ~n =
  if n < 0 then invalid_arg "Shortest_path.scratch";
  match Domain.DLS.get dls_scratch with
  | Some sc when sc.n = n -> sc
  | _ ->
    let sc = make_scratch n in
    Domain.DLS.set dls_scratch (Some sc);
    sc

(* Adjacency rows into CSR, reusing the scratch buffer when it fits. *)
let csr_of_rows (reuse : Graph.Csr.t) rows =
  let n = Array.length rows in
  let m2 = Array.fold_left (fun acc row -> acc + Array.length row) 0 rows in
  let targets =
    if Array.length reuse.targets >= m2 then reuse.targets
    else Array.make (max m2 1) 0
  in
  let offsets = reuse.offsets in
  let k = ref 0 in
  for v = 0 to n - 1 do
    offsets.(v) <- !k;
    let row = rows.(v) in
    Array.blit row 0 targets !k (Array.length row);
    k := !k + Array.length row
  done;
  offsets.(n) <- !k;
  { Graph.Csr.offsets; targets }

let view sc ?adj g =
  if Graph.node_count g <> sc.n then invalid_arg "Shortest_path.view";
  let c =
    match adj with
    | Some rows -> csr_of_rows sc.view rows
    | None -> Graph.Csr.of_graph ~reuse:sc.view g
  in
  sc.view <- c;
  c

(* The buffer grows geometrically, so a run over graphs of rising density
   reallocates only logarithmically often. *)
let length_buffer sc (csr : Graph.Csr.t) =
  let m2 = csr.offsets.(sc.n) in
  if Array.length sc.lengths < m2 then
    sc.lengths <- Array.make (max m2 (2 * Array.length sc.lengths)) 0.0;
  sc.lengths

let edge_lengths sc (csr : Graph.Csr.t) ~length =
  let lengths = length_buffer sc csr in
  for u = 0 to sc.n - 1 do
    for k = csr.offsets.(u) to csr.offsets.(u + 1) - 1 do
      lengths.(k) <- length u csr.targets.(k)
    done
  done;
  lengths

let edge_lengths_of_matrix sc (csr : Graph.Csr.t) matrix =
  let n = sc.n in
  if Array.length matrix <> n * n then
    invalid_arg "Shortest_path.edge_lengths_of_matrix";
  let lengths = length_buffer sc csr in
  for u = 0 to n - 1 do
    for k = csr.offsets.(u) to csr.offsets.(u + 1) - 1 do
      lengths.(k) <- matrix.((u * n) + csr.targets.(k))
    done
  done;
  lengths

(* Lazy-deletion Dijkstra in the heap's strict (priority, vertex) order.
   Vertex [u]'s entries carry the strictly falling values its distance took
   when pushed, and the smallest pops first, so [u]'s first pop is at its
   final [dist.(u)] and any later one is stale: "not yet settled" is the
   whole acceptance test, and [Heap.pop] need not return the priority.
   Neighbours are relaxed in CSR order, which is ascending, and an equal
   distance hands the vertex to the smaller predecessor. Nothing here
   allocates. *)
let settle sc (csr : Graph.Csr.t) ~lengths ~source =
  let n = sc.n in
  if source < 0 || source >= n then invalid_arg "Shortest_path.settle";
  let dist = sc.out.dist and pred = sc.out.pred and order = sc.out.order in
  let settled = sc.settled and heap = sc.heap in
  let offsets = csr.offsets and targets = csr.targets in
  Array.fill dist 0 n infinity;
  Array.fill pred 0 n (-1);
  Array.fill settled 0 n false;
  Heap.clear heap;
  dist.(source) <- 0.0;
  Heap.push_key heap ~keys:dist source;
  let count = ref 0 in
  while not (Heap.is_empty heap) do
    let u = Heap.pop heap in
    if not settled.(u) then begin
      settled.(u) <- true;
      order.(!count) <- u;
      incr count;
      let d = dist.(u) in
      for k = offsets.(u) to offsets.(u + 1) - 1 do
        let v = Array.unsafe_get targets k in
        if not settled.(v) then begin
          let nd = d +. lengths.(k) in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            pred.(v) <- u;
            Heap.push_key heap ~keys:dist v
          end
          else if Float.equal nd dist.(v) && pred.(v) >= 0 && u < pred.(v) then
            pred.(v) <- u
        end
      done
    end
  done;
  !count

let settled_tree sc = sc.out

let copy_tree sc count =
  {
    dist = Array.copy sc.out.dist;
    pred = Array.copy sc.out.pred;
    order = Array.sub sc.out.order 0 count;
  }

let dijkstra ?adj ?csr g ~length ~source =
  let n = Graph.node_count g in
  if source < 0 || source >= n then invalid_arg "Shortest_path.dijkstra";
  let sc = scratch ~n in
  let csr = match csr with Some c -> c | None -> view sc ?adj g in
  let lengths = edge_lengths sc csr ~length in
  copy_tree sc (settle sc csr ~lengths ~source)

(* The repair certificate: every settled non-source vertex sits strictly
   farther than its predecessor. When it holds, each vertex is pushed at its
   final priority before the first pop of its equal-distance group (the
   predecessor settles strictly earlier and relaxes it), so the lazy heap's
   strict (priority, vertex-id) order makes the settle sequence exactly
   ascending (dist, id) — the property Cold_net.Incremental's order merge
   depends on. Zero-length links (colocated PoPs) or additions rounded away
   by float precision violate it; such trees must be rebuilt from scratch
   rather than repaired. *)
let canonical t =
  let ok = ref true in
  Array.iter
    (fun v ->
      let p = t.pred.(v) in
      if p >= 0 && not (t.dist.(p) < t.dist.(v)) then ok := false)
    t.order;
  !ok

let path t v =
  if v < 0 || v >= Array.length t.dist then invalid_arg "Shortest_path.path";
  if Float.equal t.dist.(v) infinity then None
  else begin
    let rec walk v acc = if t.pred.(v) < 0 then v :: acc else walk t.pred.(v) (v :: acc) in
    Some (walk v [])
  end

let apsp_hops g =
  let csr = Graph.Csr.of_graph g in
  Array.init (Graph.node_count g) (fun s -> Traversal.bfs_hops ~csr g s)

let apsp_lengths g ~length =
  let n = Graph.node_count g in
  let sc = scratch ~n in
  let csr = view sc g in
  let lengths = edge_lengths sc csr ~length in
  Array.init n (fun s ->
      ignore (settle sc csr ~lengths ~source:s);
      Array.copy sc.out.dist)
