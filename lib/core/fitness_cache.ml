module Graph = Cold_graph.Graph

(* A [Pending j] entry is a miss of the batch [find_all] is answering; its
   value will be the j-th result of that batch's [compute]. *)
type 'a state = Ready of 'a | Pending of int

(* A key is the graph's rows alone: n·⌈n/8⌉ bytes, 200 at n = 40. *)
type 'a entry = { key : Graph.Key.t; mutable state : 'a state }

type 'a t = {
  slots : 'a entry option array;  (* direct-mapped: slot = fingerprint mod capacity *)
  mutable hits : int;
  mutable misses : int;
  mutable entries : int;  (* occupied slots; insert over Some does not grow it *)
}

let create ~slots =
  if slots < 0 then invalid_arg "Fitness_cache.create: slots must be >= 0";
  { slots = Array.make slots None; hits = 0; misses = 0; entries = 0 }

(* [g]'s slot, or [-1] when memoization is off. *)
let slot_of cache g =
  let capacity = Array.length cache.slots in
  if capacity = 0 then -1
  else
    (* Mask the sign away before reducing mod capacity. *)
    Int64.to_int
      (Int64.rem (Int64.logand (Graph.fingerprint g) Int64.max_int) (Int64.of_int capacity))

(* Store [g]'s rows in [slot], evicting its occupant. *)
let store cache slot g state =
  if Option.is_none cache.slots.(slot) then cache.entries <- cache.entries + 1;
  let e = { key = Graph.Key.of_graph g; state } in
  cache.slots.(slot) <- Some e;
  e

let find_all cache graphs compute =
  (* Every graph is looked up in index order, and a miss reserves its slot
     at once, so the table changes exactly as a lookup-then-insert of each
     graph in turn would change it. A later duplicate of a reserved key is a
     hit, answered by that miss's value. *)
  let entries = cache.entries in
  let missed = ref [] and reserved = ref [] and count = ref 0 in
  let answers =
    Array.map
      (fun g ->
        let slot = slot_of cache g in
        match if slot < 0 then None else cache.slots.(slot) with
        | Some e when Graph.Key.matches e.key g ->
          cache.hits <- cache.hits + 1;
          e.state
        | _ ->
          cache.misses <- cache.misses + 1;
          let j = !count in
          incr count;
          missed := g :: !missed;
          if slot >= 0 then begin
            let previous = cache.slots.(slot) in
            reserved := (slot, previous, store cache slot g (Pending j)) :: !reserved
          end;
          Pending j)
      graphs
  in
  let missed = Array.of_list (List.rev !missed) in
  let values =
    match compute missed with
    | values -> values
    | exception ex ->
      (* Undo the reservations, newest first, so that the table is as the
         batch found it and no pending entry outlives the batch. *)
      List.iter (fun (slot, previous, _) -> cache.slots.(slot) <- previous) !reserved;
      cache.entries <- entries;
      raise ex
  in
  List.iter
    (fun (_, _, e) ->
      match e.state with Pending j -> e.state <- Ready values.(j) | Ready _ -> ())
    !reserved;
  Array.map (function Ready v -> v | Pending j -> values.(j)) answers

let find_or_compute cache g compute =
  (find_all cache [| g |] (Array.map (fun _ -> compute ()))).(0)

let hits cache = cache.hits

let misses cache = cache.misses

let entries cache = cache.entries

let fill cache =
  let capacity = Array.length cache.slots in
  if capacity = 0 then 0. else float_of_int cache.entries /. float_of_int capacity
