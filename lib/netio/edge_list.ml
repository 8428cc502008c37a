module Graph = Cold_graph.Graph
module Limits = Cold_util.Limits

let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%d %d\n" (Graph.node_count g) (Graph.edge_count g));
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

(* Internal control flow only; [of_string] catches this and returns [Error]. *)
exception Err of Parse_error.t

let err line fmt =
  Printf.ksprintf (fun m -> raise (Err (Parse_error.make ~line m))) fmt

let of_string s =
  let meaningful =
    String.split_on_char '\n' s
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  match
    match meaningful with
    | [] -> err 0 "empty input"
    | (header_line, header) :: rest ->
      let parse_two line text =
        match String.split_on_char ' ' text |> List.filter (( <> ) "") with
        | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some x, Some y -> (x, y)
          | _ -> err line "not integers")
        | _ -> err line "expected two fields"
      in
      let (n, m) = parse_two header_line header in
      if n < 0 || m < 0 then err header_line "negative header";
      (* The graph is a quadratic bit matrix: refuse a size before allocating it. *)
      if n > Limits.max_n then
        err header_line "header claims %d nodes, more than the limit of %d" n
          Limits.max_n;
      let g = Graph.create n in
      List.iter
        (fun (line, text) ->
          let (u, v) = parse_two line text in
          if u < 0 || v < 0 || u >= n || v >= n then err line "vertex out of range";
          if u = v then err line "self-loop";
          Graph.add_edge g u v)
        rest;
      if Graph.edge_count g <> m then
        err header_line "header claims %d edges, found %d" m (Graph.edge_count g);
      g
  with
  | g -> Ok g
  | exception Err e -> Error e

let write_file ~path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let read_file ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let size = in_channel_length ic in
      of_string (really_input_string ic size))
