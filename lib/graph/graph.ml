type t = {
  n : int;
  adj : Bytes.t; (* n*n bytes; adj[u*n+v] = '\001' iff edge present *)
  deg : int array;
  fwd : int array; (* fwd.(u) = #edges {u,v} with v > u: the rank index for nth_edge *)
  mutable m : int;
}

let check_vertex g v name =
  if v < 0 || v >= g.n then invalid_arg ("Graph." ^ name ^ ": vertex out of range")

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  {
    n;
    adj = Bytes.make (n * n) '\000';
    deg = Array.make n 0;
    fwd = Array.make n 0;
    m = 0;
  }

let node_count g = g.n

let edge_count g = g.m

let copy g =
  {
    n = g.n;
    adj = Bytes.copy g.adj;
    deg = Array.copy g.deg;
    fwd = Array.copy g.fwd;
    m = g.m;
  }

let copy_into ~src ~dst =
  if src.n <> dst.n then invalid_arg "Graph.copy_into: size mismatch";
  Bytes.blit src.adj 0 dst.adj 0 (src.n * src.n);
  Array.blit src.deg 0 dst.deg 0 src.n;
  Array.blit src.fwd 0 dst.fwd 0 src.n;
  dst.m <- src.m

let mem_edge g u v =
  check_vertex g u "mem_edge";
  check_vertex g v "mem_edge";
  u <> v && Bytes.unsafe_get g.adj ((u * g.n) + v) = '\001'

let add_edge g u v =
  check_vertex g u "add_edge";
  check_vertex g v "add_edge";
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if Bytes.unsafe_get g.adj ((u * g.n) + v) = '\000' then begin
    Bytes.unsafe_set g.adj ((u * g.n) + v) '\001';
    Bytes.unsafe_set g.adj ((v * g.n) + u) '\001';
    g.deg.(u) <- g.deg.(u) + 1;
    g.deg.(v) <- g.deg.(v) + 1;
    g.fwd.(min u v) <- g.fwd.(min u v) + 1;
    g.m <- g.m + 1
  end

let remove_edge g u v =
  check_vertex g u "remove_edge";
  check_vertex g v "remove_edge";
  if u <> v && Bytes.unsafe_get g.adj ((u * g.n) + v) = '\001' then begin
    Bytes.unsafe_set g.adj ((u * g.n) + v) '\000';
    Bytes.unsafe_set g.adj ((v * g.n) + u) '\000';
    g.deg.(u) <- g.deg.(u) - 1;
    g.deg.(v) <- g.deg.(v) - 1;
    g.fwd.(min u v) <- g.fwd.(min u v) - 1;
    g.m <- g.m - 1
  end

let complete n =
  let g = create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      add_edge g u v
    done
  done;
  g

let degree g v =
  check_vertex g v "degree";
  g.deg.(v)

let is_leaf g v = degree g v <= 1

let core_nodes g =
  let rec collect v acc =
    if v < 0 then acc
    else collect (v - 1) (if g.deg.(v) > 1 then v :: acc else acc)
  in
  collect (g.n - 1) []

let core_count g =
  let c = ref 0 in
  for v = 0 to g.n - 1 do
    if g.deg.(v) > 1 then incr c
  done;
  !c

let iter_neighbors g v f =
  check_vertex g v "iter_neighbors";
  let row = v * g.n in
  for u = 0 to g.n - 1 do
    if Bytes.unsafe_get g.adj (row + u) = '\001' then f u
  done

let fold_neighbors g v f init =
  check_vertex g v "fold_neighbors";
  let acc = ref init in
  iter_neighbors g v (fun u -> acc := f !acc u);
  !acc

let neighbors g v = List.rev (fold_neighbors g v (fun acc u -> u :: acc) [])

let iter_edges g f =
  for u = 0 to g.n - 1 do
    let row = u * g.n in
    for v = u + 1 to g.n - 1 do
      if Bytes.unsafe_get g.adj (row + v) = '\001' then f u v
    done
  done

let fold_edges g f init =
  let acc = ref init in
  iter_edges g (fun u v -> acc := f !acc u v);
  !acc

let edges g = List.rev (fold_edges g (fun acc u v -> (u, v) :: acc) [])

let nth_edge g k =
  if k < 0 || k >= g.m then invalid_arg "Graph.nth_edge: rank out of range";
  (* Walk the forward-degree index to the owning row, then scan that row's
     forward half for the residual rank. O(n) instead of the O(n^2) full
     edge scan, with no allocation. *)
  let u = ref 0 in
  let r = ref k in
  while !r >= g.fwd.(!u) do
    r := !r - g.fwd.(!u);
    incr u
  done;
  let row = !u * g.n in
  let v = ref !u in
  let remaining = ref (!r + 1) in
  while !remaining > 0 do
    incr v;
    if Bytes.unsafe_get g.adj (row + !v) = '\001' then decr remaining
  done;
  (!u, !v)

let nth_absent_pair g k =
  let absent = (g.n * (g.n - 1) / 2) - g.m in
  if k < 0 || k >= absent then
    invalid_arg "Graph.nth_absent_pair: rank out of range";
  (* Mirror of [nth_edge] over the complement: row u owns
     (n - 1 - u) - fwd.(u) absent forward slots. Walk the index to the
     owning row, then scan that row's forward half counting gaps. *)
  let u = ref 0 in
  let r = ref k in
  let row_absent u = g.n - 1 - u - g.fwd.(u) in
  while !r >= row_absent !u do
    r := !r - row_absent !u;
    incr u
  done;
  let row = !u * g.n in
  let v = ref !u in
  let remaining = ref (!r + 1) in
  while !remaining > 0 do
    incr v;
    if Bytes.unsafe_get g.adj (row + !v) = '\000' then decr remaining
  done;
  (!u, !v)

let edge_diff g h =
  if g.n <> h.n then invalid_arg "Graph.edge_diff: size mismatch";
  let removed = ref [] and added = ref [] in
  for u = g.n - 1 downto 0 do
    let row = u * g.n in
    for v = g.n - 1 downto u + 1 do
      let a = Bytes.unsafe_get g.adj (row + v) in
      let b = Bytes.unsafe_get h.adj (row + v) in
      if a <> b then
        if a = '\001' then removed := (u, v) :: !removed
        else added := (u, v) :: !added
    done
  done;
  (!removed, !added)

let recombine parents ~pick =
  if Array.length parents = 0 then invalid_arg "Graph.recombine: no parents";
  let n = parents.(0).n in
  Array.iter
    (fun p -> if p.n <> n then invalid_arg "Graph.recombine: size mismatch")
    parents;
  let child = create n in
  let last = Array.length parents - 1 in
  let rank = ref 0 in
  for u = 0 to n - 1 do
    let row = u * n in
    for v = u + 1 to n - 1 do
      let b = Bytes.unsafe_get parents.(0).adj (row + v) in
      let agree = ref true in
      for p = 1 to last do
        if Bytes.unsafe_get parents.(p).adj (row + v) <> b then agree := false
      done;
      let b = if !agree then b else Bytes.unsafe_get parents.(pick !rank).adj (row + v) in
      if b = '\001' then add_edge child u v;
      incr rank
    done
  done;
  child

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) es;
  g

let degree_sequence g = Array.copy g.deg

let equal g h = g.n = h.n && g.m = h.m && Bytes.equal g.adj h.adj

let fingerprint g =
  (* FNV-1a over the adjacency bytes, seeded with n so that empty graphs of
     different sizes differ. The adjacency matrix is symmetric with a zero
     diagonal, so it is already a canonical encoding of the edge set. The
     accumulator is a local ref in a plain loop, which the compiler keeps
     unboxed. *)
  let fnv_prime = 0x100000001B3L in
  let h = ref (Int64.mul (Int64.logxor 0xCBF29CE484222325L (Int64.of_int g.n)) fnv_prime) in
  for i = 0 to Bytes.length g.adj - 1 do
    let b = Int64.of_int (Char.code (Bytes.unsafe_get g.adj i)) in
    h := Int64.mul (Int64.logxor !h b) fnv_prime
  done;
  !h

let adjacency_arrays g =
  Array.init g.n (fun v ->
      let a = Array.make g.deg.(v) 0 in
      let k = ref 0 in
      let row = v * g.n in
      for u = 0 to g.n - 1 do
        if Bytes.unsafe_get g.adj (row + u) = '\001' then begin
          a.(!k) <- u;
          incr k
        end
      done;
      a)

let remove_all_edges_of g v =
  check_vertex g v "remove_all_edges_of";
  iter_neighbors g v (fun u -> remove_edge g u v)

module Csr = struct
  type graph = t

  type t = { offsets : int array; targets : int array }

  let of_graph ?reuse (g : graph) =
    let n = g.n in
    let m2 = 2 * g.m in
    let offsets, targets =
      match reuse with
      | Some c when Array.length c.offsets = n + 1 && Array.length c.targets >= m2
        ->
        (c.offsets, c.targets)
      | _ -> (Array.make (n + 1) 0, Array.make (max m2 1) 0)
    in
    let k = ref 0 in
    for v = 0 to n - 1 do
      offsets.(v) <- !k;
      let row = v * n in
      for u = 0 to n - 1 do
        if Bytes.unsafe_get g.adj (row + u) = '\001' then begin
          Array.unsafe_set targets !k u;
          incr k
        end
      done
    done;
    offsets.(n) <- !k;
    { offsets; targets }

  let node_count c = Array.length c.offsets - 1

  let degree c v =
    if v < 0 || v >= node_count c then invalid_arg "Graph.Csr.degree";
    c.offsets.(v + 1) - c.offsets.(v)

  let iter_neighbors c v f =
    if v < 0 || v >= node_count c then invalid_arg "Graph.Csr.iter_neighbors";
    for k = c.offsets.(v) to c.offsets.(v + 1) - 1 do
      f (Array.unsafe_get c.targets k)
    done

  let fold_neighbors c v f init =
    let acc = ref init in
    iter_neighbors c v (fun u -> acc := f !acc u);
    !acc
end

let pp fmt g =
  Format.fprintf fmt "n=%d m=%d edges=[" g.n g.m;
  let first = ref true in
  iter_edges g (fun u v ->
      if !first then first := false else Format.fprintf fmt "; ";
      Format.fprintf fmt "(%d,%d)" u v);
  Format.fprintf fmt "]"
