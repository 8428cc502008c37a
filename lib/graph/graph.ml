type t = {
  n : int;
  adj : Bytes.t;
      (* n rows of [width n] bytes; v is in u's row iff bit (v land 7) of
         byte u * width n + v lsr 3 is set. The padding bits (v >= n) and the
         diagonal are always clear, so equal graphs have equal bytes. *)
  deg : int array;
  fwd : int array; (* fwd.(u) = #edges {u,v} with v > u: the rank index for nth_edge *)
  mutable m : int;
}

let width n = (n + 7) lsr 3

let[@inline] bit adj row v =
  Char.code (Bytes.unsafe_get adj (row + (v lsr 3))) land (1 lsl (v land 7)) <> 0

let[@inline] set_bit adj row v =
  let i = row + (v lsr 3) in
  Bytes.unsafe_set adj i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get adj i) lor (1 lsl (v land 7))))

let[@inline] clear_bit adj row v =
  let i = row + (v lsr 3) in
  Bytes.unsafe_set adj i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get adj i) land lnot (1 lsl (v land 7))))

let check_vertex g v name =
  if v < 0 || v >= g.n then invalid_arg ("Graph." ^ name ^ ": vertex out of range")

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  {
    n;
    adj = Bytes.make (n * width n) '\000';
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
  Bytes.blit src.adj 0 dst.adj 0 (Bytes.length src.adj);
  Array.blit src.deg 0 dst.deg 0 src.n;
  Array.blit src.fwd 0 dst.fwd 0 src.n;
  dst.m <- src.m

let mem_edge g u v =
  check_vertex g u "mem_edge";
  check_vertex g v "mem_edge";
  bit g.adj (u * width g.n) v

let add_edge g u v =
  check_vertex g u "add_edge";
  check_vertex g v "add_edge";
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  let w = width g.n in
  if not (bit g.adj (u * w) v) then begin
    set_bit g.adj (u * w) v;
    set_bit g.adj (v * w) u;
    g.deg.(u) <- g.deg.(u) + 1;
    g.deg.(v) <- g.deg.(v) + 1;
    g.fwd.(min u v) <- g.fwd.(min u v) + 1;
    g.m <- g.m + 1
  end

let remove_edge g u v =
  check_vertex g u "remove_edge";
  check_vertex g v "remove_edge";
  let w = width g.n in
  if bit g.adj (u * w) v then begin
    clear_bit g.adj (u * w) v;
    clear_bit g.adj (v * w) u;
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
  let row = v * width g.n in
  for b = 0 to width g.n - 1 do
    (* Skip empty bytes; in the others re-read the byte for every bit, so
       that [f] sees the row as it stands, as a scan of single pairs would. *)
    if Bytes.unsafe_get g.adj (row + b) <> '\000' then
      for u = b lsl 3 to (b lsl 3) + 7 do
        if bit g.adj row u then f u
      done
  done

let fold_neighbors g v f init =
  check_vertex g v "fold_neighbors";
  let acc = ref init in
  iter_neighbors g v (fun u -> acc := f !acc u);
  !acc

let neighbors g v = List.rev (fold_neighbors g v (fun acc u -> u :: acc) [])

let iter_edges g f =
  let w = width g.n in
  for u = 0 to g.n - 1 do
    let row = u * w in
    for v = u + 1 to g.n - 1 do
      if bit g.adj row v then f u v
    done
  done

let fold_edges g f init =
  let acc = ref init in
  iter_edges g (fun u v -> acc := f !acc u v);
  !acc

let edges g = List.rev (fold_edges g (fun acc u v -> (u, v) :: acc) [])

(* The vertex v > u at which the [r]-th (0-based) pair {u, v} with
   [mem_edge g u v = present] sits; the caller's index walk guarantees that
   row u has one. *)
let nth_in_row g u r ~present =
  let row = u * width g.n in
  let v = ref u in
  let remaining = ref (r + 1) in
  while !remaining > 0 do
    incr v;
    if bit g.adj row !v = present then decr remaining
  done;
  !v

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
  (!u, nth_in_row g !u !r ~present:true)

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
  (!u, nth_in_row g !u !r ~present:false)

let edge_diff g h =
  if g.n <> h.n then invalid_arg "Graph.edge_diff: size mismatch";
  let w = width g.n in
  let removed = ref [] and added = ref [] in
  for u = g.n - 1 downto 0 do
    let row = u * w in
    for v = g.n - 1 downto u + 1 do
      let a = bit g.adj row v in
      if a <> bit h.adj row v then
        if a then removed := (u, v) :: !removed else added := (u, v) :: !added
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
  let w = width n in
  let last = Array.length parents - 1 in
  for u = 0 to n - 1 do
    let row = u * w in
    (* Pair {u, v}, v > u, has rank [base + v]. *)
    let base = (u * ((2 * n) - u - 1) / 2) - u - 1 in
    let first = (u + 1) lsr 3 in
    for b = first to w - 1 do
      (* A byte of eight pairs at once: [all] holds the links every parent
         has, [any] those some parent has. Row u decides only the pairs
         above the diagonal, and the padding bits are clear in every
         parent. *)
      let all = ref (Char.code (Bytes.unsafe_get parents.(0).adj (row + b))) in
      let any = ref !all in
      for p = 1 to last do
        let x = Char.code (Bytes.unsafe_get parents.(p).adj (row + b)) in
        all := !all land x;
        any := !any lor x
      done;
      let upper = if b = first then (0xff lsl ((u + 1) land 7)) land 0xff else 0xff in
      let links = ref (!all land upper) in
      let split = (!all lxor !any) land upper in
      if split <> 0 then
        for j = 0 to 7 do
          if split land (1 lsl j) <> 0 then begin
            let v = (b lsl 3) + j in
            if bit parents.(pick (base + v)).adj row v then links := !links lor (1 lsl j)
          end
        done;
      if !links <> 0 then
        for j = 0 to 7 do
          if !links land (1 lsl j) <> 0 then add_edge child u ((b lsl 3) + j)
        done
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
  (* FNV-1a over the adjacency matrix written out as n² bytes (byte u*n+v
     is 1 iff {u,v} is a link), seeded with n so that empty graphs of
     different sizes differ; memo slots depend on these exact values. The
     matrix is symmetric with a zero diagonal, so it is already a canonical
     encoding of the edge set. A zero byte's step is a multiplication by
     the prime, so a row byte with no links among its k columns is one
     multiplication by prime^k. The accumulators are local refs in plain
     loops, which the compiler keeps unboxed. *)
  let fnv_prime = 0x100000001B3L in
  let w = width g.n in
  let tail = g.n - ((w - 1) lsl 3) in
  let p8 = ref 1L and p_tail = ref 1L in
  for k = 1 to 8 do
    p8 := Int64.mul !p8 fnv_prime;
    if k = tail then p_tail := !p8
  done;
  let h = ref (Int64.mul (Int64.logxor 0xCBF29CE484222325L (Int64.of_int g.n)) fnv_prime) in
  for u = 0 to g.n - 1 do
    let row = u * w in
    for b = 0 to w - 1 do
      let x = Char.code (Bytes.unsafe_get g.adj (row + b)) in
      if x <> 0 then
        for j = 0 to (if b = w - 1 then tail else 8) - 1 do
          h := Int64.mul (Int64.logxor !h (Int64.of_int ((x lsr j) land 1))) fnv_prime
        done
      else if b = w - 1 then h := Int64.mul !h !p_tail
      else h := Int64.mul !h !p8
    done
  done;
  !h

let adjacency_arrays g =
  let w = width g.n in
  Array.init g.n (fun v ->
      let a = Array.make g.deg.(v) 0 in
      let k = ref 0 in
      let row = v * w in
      for u = 0 to g.n - 1 do
        if bit g.adj row u then begin
          a.(!k) <- u;
          incr k
        end
      done;
      a)

let remove_all_edges_of g v =
  check_vertex g v "remove_all_edges_of";
  iter_neighbors g v (fun u -> remove_edge g u v)

module Key = struct
  type graph = t

  (* A graph's rows alone. n·⌈n/8⌉ grows strictly with n, so the length
     fixes the vertex count, and equal rows mean equal graphs. *)
  type t = Bytes.t

  let of_graph (g : graph) = Bytes.copy g.adj

  let matches k (g : graph) = Bytes.equal k g.adj
end

module Csr = struct
  type graph = t

  type t = { offsets : int array; targets : int array }

  let of_graph ?reuse (g : graph) =
    let n = g.n in
    let w = width n in
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
      let row = v * w in
      for b = 0 to w - 1 do
        let x = Char.code (Bytes.unsafe_get g.adj (row + b)) in
        if x <> 0 then
          for j = 0 to 7 do
            if x land (1 lsl j) <> 0 then begin
              Array.unsafe_set targets !k ((b lsl 3) + j);
              incr k
            end
          done
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
