module Graph = Cold_graph.Graph
module Limits = Cold_util.Limits

(* Internal control flow only; every public entry point catches this and
   returns a typed [result]. *)
exception Err of Parse_error.t

let err line message = raise (Err (Parse_error.make ~line message))

type token = { kind : kind; line : int }
and kind = Lbracket | Rbracket | Word of string

let tokenize text =
  let tokens = ref [] in
  let n = String.length text in
  let i = ref 0 in
  let line = ref 1 in
  let push kind = tokens := { kind; line = !line } :: !tokens in
  while !i < n do
    let c = text.[!i] in
    if c = '[' then begin
      push Lbracket;
      incr i
    end
    else if c = ']' then begin
      push Rbracket;
      incr i
    end
    else if c = '"' then begin
      (* Quoted string: consumed as one token, quotes stripped. *)
      let start_line = !line in
      let j = ref (!i + 1) in
      while !j < n && text.[!j] <> '"' do
        if text.[!j] = '\n' then incr line;
        incr j
      done;
      if !j >= n then err start_line "unterminated string";
      tokens :=
        { kind = Word (String.sub text (!i + 1) (!j - !i - 1)); line = start_line }
        :: !tokens;
      i := !j + 1
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '\n' then begin
      incr line;
      incr i
    end
    else begin
      let j = ref !i in
      while
        !j < n
        &&
        let d = text.[!j] in
        d <> ' ' && d <> '\t' && d <> '\n' && d <> '\r' && d <> '[' && d <> ']'
      do
        incr j
      done;
      push (Word (String.sub text !i (!j - !i)));
      i := !j
    end
  done;
  List.rev !tokens

(* A GML value is either a scalar word or a bracketed list of (key, value)
   pairs; values remember the source line of their key for error reports. *)
type value = Scalar of string | Block of (string * located) list
and located = { value : value; vline : int }

(* Parses pairs until Rbracket (closed = true) or end of input
   (closed = false); returns (pairs, rest, closed). *)
let rec parse_block tokens =
  match tokens with
  | [] -> ([], [], false)
  | { kind = Rbracket; _ } :: rest -> ([], rest, true)
  | { kind = Word key; line } :: { kind = Lbracket; _ } :: rest ->
    let (inner, rest, closed) = parse_block rest in
    if not closed then err line ("unterminated block: " ^ key);
    let (siblings, rest, closed) = parse_block rest in
    ((key, { value = Block inner; vline = line }) :: siblings, rest, closed)
  | { kind = Word key; line } :: { kind = Word v; _ } :: rest ->
    let (siblings, rest, closed) = parse_block rest in
    ((key, { value = Scalar v; vline = line }) :: siblings, rest, closed)
  | { kind = Word key; line } :: ([] | { kind = Rbracket; _ } :: _) ->
    err line ("key without value: " ^ key)
  | { kind = Lbracket; line } :: _ -> err line "unexpected '['"

let find_all key pairs =
  List.filter_map (fun (k, v) -> if k = key then Some v else None) pairs

let find_scalar key pairs =
  match find_all key pairs with
  | { value = Scalar s; _ } :: _ -> Some s
  | _ -> None

let parse_internal text =
  let tokens = tokenize text in
  let (top, rest, closed) = parse_block tokens in
  if closed || rest <> [] then begin
    let line = match rest with t :: _ -> t.line | [] -> 0 in
    err line "unbalanced brackets"
  end;
  let (graph_pairs, graph_line) =
    match find_all "graph" top with
    | { value = Block pairs; vline } :: _ -> (pairs, vline)
    | _ -> err 0 "no graph block"
  in
  let node_ids =
    List.filter_map
      (function
        | { value = Block pairs; vline } -> (
          match find_scalar "id" pairs with
          | Some s -> (
            match int_of_string_opt s with
            | Some id -> Some id
            | None -> err vline "non-integer node id")
          | None -> err vline "node without id")
        | { value = Scalar _; vline } -> err vline "malformed node")
      (find_all "node" graph_pairs)
  in
  let sorted = List.sort_uniq Int.compare node_ids in
  (* The graph is a quadratic bit matrix: refuse a size before allocating it. *)
  let n = List.length sorted in
  if n > Limits.max_n then
    err graph_line
      (Printf.sprintf "graph has %d nodes, more than the limit of %d" n Limits.max_n);
  let index = Hashtbl.create n in
  List.iteri (fun i id -> Hashtbl.replace index id i) sorted;
  let g = Graph.create n in
  List.iter
    (function
      | { value = Block pairs; vline } -> (
        let endpoint key =
          match find_scalar key pairs with
          | Some s -> (
            match int_of_string_opt s with
            | Some id -> (
              match Hashtbl.find_opt index id with
              | Some i -> i
              | None -> err vline "edge endpoint is not a declared node")
            | None -> err vline "non-integer edge endpoint")
          | None -> err vline "edge without source/target"
        in
        let u = endpoint "source" and v = endpoint "target" in
        (* Zoo files contain self-loops and parallel edges; drop/collapse. *)
        if u <> v then Graph.add_edge g u v)
      | { value = Scalar _; vline } -> err vline "malformed edge")
    (find_all "edge" graph_pairs);
  g

let parse text =
  match parse_internal text with
  | g -> Ok g
  | exception Err e -> Error e

let read_file ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

let roundtrip_check g =
  match parse (Gml.of_graph g) with
  | Ok h -> Graph.equal g h
  | Error _ -> false
