(* Spans around calls into the library's public layer functions.

   A span is recorded from the benchmark's side of the call: name, start,
   end, the enclosing span and the operation (one design, one ABC trial,
   one request) it belongs to. Spans stay in memory — a clock read and a
   cons each — and are written out once the run ends. *)

let now = Unix.gettimeofday

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** Id of the enclosing span; [-1] at top level. *)
  start : float;
  stop : float;
}

let recorded : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []

let span ~op name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let close () = open_spans := List.tl !open_spans in
  let start = now () in
  match f () with
  | v ->
    let stop = now () in
    close ();
    recorded := { id; name; op; parent; start; stop } :: !recorded;
    v
  | exception e ->
    close ();
    raise e

let duration s = s.stop -. s.start

let spans () = List.rev !recorded

let named name = List.filter (fun s -> String.equal s.name name) (spans ())

(* Span durations of [name], in recording order. *)
let durations name = List.map duration (named name)

let total name = List.fold_left ( +. ) 0.0 (durations name)

let op_duration ~op name =
  match List.find_opt (fun s -> s.op = op && String.equal s.name name) !recorded with
  | Some s -> duration s
  | None -> 0.0

let top_level_in op =
  List.filter (fun s -> s.op = op && s.parent = -1) (spans ())

let write path =
  let origin = match spans () with s :: _ -> s.start | [] -> 0.0 in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_us\":%.1f,\"dur_us\":%.1f}\n"
        (if i = 0 then "" else ",")
        s.id s.name s.op s.parent
        (1e6 *. (s.start -. origin))
        (1e6 *. duration s))
    (spans ());
  output_string oc "]\n";
  close_out oc
