type t = {
  mutable prio : float array;
  mutable vert : int array;
  mutable len : int;
}

let create ~capacity =
  let capacity = max capacity 1 in
  { prio = Array.make capacity 0.0; vert = Array.make capacity 0; len = 0 }

let is_empty h = h.len = 0

let clear h = h.len <- 0

let size h = h.len

let grow h =
  let cap = Array.length h.prio in
  let prio = Array.make (2 * cap) 0.0 and vert = Array.make (2 * cap) 0 in
  Array.blit h.prio 0 prio 0 h.len;
  Array.blit h.vert 0 vert 0 h.len;
  h.prio <- prio;
  h.vert <- vert

(* Both sifts move a hole instead of swapping: the moving entry stays in
   locals, each level copies one entry into the hole, and the entry is
   written once where the hole stops. Entries are ordered by (priority,
   vertex): [<] first, and the vertex id only on a [Float.equal] tie. Every
   unchecked read is of a slot that held a live entry when the operation
   began, so it lies below the length then, which never exceeds the
   capacity. *)

(* [insert h v] adds [v] at the priority its caller stored in slot
   [h.len]: both pushes store the float themselves and hand only ints
   across, since a float argument to a function that is not inlined is
   boxed. The caller has made room, so slot [h.len] exists. *)
let insert h v =
  let prio = h.prio and vert = h.vert in
  let p = prio.(h.len) in
  let i = ref h.len and moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get prio parent in
    if p < pp || (Float.equal p pp && v < Array.unsafe_get vert parent) then begin
      prio.(!i) <- pp;
      vert.(!i) <- Array.unsafe_get vert parent;
      i := parent
    end
    else moving := false
  done;
  prio.(!i) <- p;
  vert.(!i) <- v;
  h.len <- h.len + 1

let push h ~priority v =
  if h.len = Array.length h.prio then grow h;
  h.prio.(h.len) <- priority;
  insert h v

let push_key h ~keys v =
  if h.len = Array.length h.prio then grow h;
  h.prio.(h.len) <- keys.(v);
  insert h v

(* The last entry leaves its slot and sinks from the root's hole past
   every smaller child. *)
let pop h =
  if h.len = 0 then invalid_arg "Heap.pop: empty heap";
  let prio = h.prio and vert = h.vert in
  let top = Array.unsafe_get vert 0 in
  let len = h.len - 1 in
  h.len <- len;
  if len > 0 then begin
    let p = Array.unsafe_get prio len and v = Array.unsafe_get vert len in
    let i = ref 0 and moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= len then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < len then begin
            let pl = Array.unsafe_get prio l and pr = Array.unsafe_get prio r in
            if pr < pl
               || (Float.equal pr pl
                   && Array.unsafe_get vert r < Array.unsafe_get vert l)
            then r
            else l
          end
          else l
        in
        let pc = Array.unsafe_get prio c and vc = Array.unsafe_get vert c in
        if pc < p || (Float.equal pc p && vc < v) then begin
          prio.(!i) <- pc;
          vert.(!i) <- vc;
          i := c
        end
        else moving := false
      end
    done;
    prio.(!i) <- p;
    vert.(!i) <- v
  end;
  top

let pop_min h =
  if h.len = 0 then None
  else begin
    let p = h.prio.(0) in
    Some (p, pop h)
  end

(* --- indexed variant ---------------------------------------------------------

   Same strict (priority, vertex-id) order as the lazy-deletion heap above,
   but with a vertex -> slot index so a better priority moves the existing
   entry instead of shadowing it. At most one live entry per vertex, so a
   consumer's accepted-pop sequence is exactly the lazy heap's: both yield
   each vertex once, at its minimal pushed priority, in ascending
   (priority, vertex) order. The repair pass in Cold_net.Incremental leans
   on that equivalence for bit-identity with Shortest_path.dijkstra. *)

module Indexed = struct
  type t = {
    prio : float array; (* slot -> priority *)
    vert : int array; (* slot -> vertex *)
    pos : int array; (* vertex -> slot, -1 when absent *)
    mutable len : int;
  }

  let create ~n =
    if n < 0 then invalid_arg "Heap.Indexed.create";
    {
      prio = Array.make (max n 1) 0.0;
      vert = Array.make (max n 1) 0;
      pos = Array.make (max n 1) (-1);
      len = 0;
    }

  let is_empty h = h.len = 0

  let size h = h.len

  let clear h =
    for i = 0 to h.len - 1 do
      h.pos.(h.vert.(i)) <- -1
    done;
    h.len <- 0

  let less h i j =
    h.prio.(i) < h.prio.(j)
    || (Float.equal h.prio.(i) h.prio.(j) && h.vert.(i) < h.vert.(j))

  let swap h i j =
    let p = h.prio.(i) and v = h.vert.(i) in
    h.prio.(i) <- h.prio.(j);
    h.vert.(i) <- h.vert.(j);
    h.prio.(j) <- p;
    h.vert.(j) <- v;
    h.pos.(h.vert.(i)) <- i;
    h.pos.(h.vert.(j)) <- j

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less h i parent then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = if l < h.len && less h l i then l else i in
    let smallest = if r < h.len && less h r smallest then r else smallest in
    if smallest <> i then begin
      swap h i smallest;
      sift_down h smallest
    end

  let decrease h ~priority v =
    let slot = h.pos.(v) in
    if slot < 0 then begin
      h.prio.(h.len) <- priority;
      h.vert.(h.len) <- v;
      h.pos.(v) <- h.len;
      h.len <- h.len + 1;
      sift_up h (h.len - 1)
    end
    else if priority < h.prio.(slot) then begin
      h.prio.(slot) <- priority;
      sift_up h slot
    end

  let pop_min h =
    if h.len = 0 then None
    else begin
      let p = h.prio.(0) and v = h.vert.(0) in
      h.pos.(v) <- -1;
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.prio.(0) <- h.prio.(h.len);
        h.vert.(0) <- h.vert.(h.len);
        h.pos.(h.vert.(0)) <- 0;
        sift_down h 0
      end;
      Some (p, v)
    end
end
