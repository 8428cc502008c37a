exception Syntax_error of string

(* Suppression comments: [(* lint: allow rule-a rule-b optional prose *)].
   Each yields (rule, first_line, last_line) covering the comment's span plus
   the following line. *)
let suppressions (file : Ast.file) =
  List.concat_map
    (fun (text, (loc : Location.t)) ->
      let words =
        String.split_on_char ' ' text
        |> List.concat_map (String.split_on_char '\n')
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun w -> w <> "")
      in
      let rec after_allow = function
        | "lint:" :: "allow" :: rest -> Some rest
        | _ :: rest -> after_allow rest
        | [] -> None
      in
      match after_allow words with
      | None -> []
      | Some rest ->
        let rec rules_of = function
          | w :: rest when Rules.known w -> w :: rules_of rest
          | _ -> []
        in
        List.map
          (fun rule -> (rule, Ast.line loc, loc.loc_end.pos_lnum + 1))
          (rules_of rest))
    file.Ast.comments

let covered spans ~rule ~line =
  List.exists
    (fun (r, first, last) -> r = rule && line >= first && line <= last)
    spans

let rule_set only =
  match only with
  | None -> Rules.all
  | Some names ->
    List.filter (fun (r : Rules.t) -> List.mem r.Rules.name names) Rules.all

let lint_file ?only ?mli_exists (file : Ast.file) =
  let path = file.Ast.path in
  let ctx = { Rules.path; mli_exists } in
  let raw =
    List.concat_map
      (fun (r : Rules.t) ->
        if r.Rules.applies path then r.Rules.check ctx file else [])
      (rule_set only)
  in
  let sups = suppressions file in
  raw
  |> List.filter (fun (f : Finding.t) ->
         not (covered sups ~rule:f.Finding.rule ~line:f.Finding.line))
  |> List.sort Finding.compare

let check_source ?only ?mli_exists ~path source =
  match Ast.parse ~path source with
  | Ok file -> lint_file ?only ?mli_exists file
  | Error msg -> raise (Syntax_error msg)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every source is parsed before any rule runs: one the compiler rejects
   fails the whole run, so nothing is skipped or half-linted. *)
let rec parse_all = function
  | [] -> Ok []
  | (path, src) :: rest -> (
    match Ast.parse ~path src with
    | Error _ as e -> e
    | Ok file -> Result.map (List.cons file) (parse_all rest))

let is_ocaml path =
  Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"

(* [only] may mix per-file and deep names; each pass sees its own slice.
   [Some []] on a slice means "none of mine were requested" — the pass runs
   zero rules rather than all of them. *)
let split_only only =
  match only with
  | None -> (None, None)
  | Some names ->
    ( Some (List.filter (fun n -> Rules.find n <> None) names),
      Some (List.filter (fun n -> List.mem n Taint.rule_names) names) )

let unknown_rules only =
  match only with
  | None -> []
  | Some names -> List.filter (fun n -> not (Rules.known n)) names

let run ?only ?(deep = true) ~mli_exists_of sources =
  match unknown_rules only with
  | n :: _ -> Error (Printf.sprintf "unknown rule: %s" n)
  | [] ->
    let file_only, deep_only = split_only only in
    Result.map
      (fun files ->
        let file_findings =
          List.concat_map
            (fun (file : Ast.file) ->
              let path = file.Ast.path in
              let mli_exists =
                if Filename.check_suffix path ".ml" then
                  Some (mli_exists_of path)
                else None
              in
              lint_file ?only:file_only ?mli_exists file)
            files
        in
        let deep_findings =
          if (not deep) || deep_only = Some [] then []
          else begin
            let sups = Hashtbl.create 16 in
            List.iter
              (fun (file : Ast.file) ->
                Hashtbl.replace sups file.Ast.path (suppressions file))
              files;
            let suppressed ~rule ~file ~line =
              match Hashtbl.find_opt sups file with
              | None -> false
              | Some spans -> covered spans ~rule ~line
            in
            Taint.analyze ?only:deep_only ~suppressed
              (List.filter (fun (f : Ast.file) -> is_ocaml f.Ast.path) files)
          end
        in
        List.sort Finding.compare (file_findings @ deep_findings))
      (parse_all sources)

let check_sources ?only ?deep sources =
  let set = List.map fst sources in
  run ?only ?deep ~mli_exists_of:(fun p -> List.mem (p ^ "i") set) sources

let check_paths ?only ?deep paths =
  (* Validate rule names before touching the filesystem so a typoed --rules
     reports itself even when the paths are also wrong. *)
  match unknown_rules only with
  | n :: _ -> Error (Printf.sprintf "unknown rule: %s" n)
  | [] -> (
  match Walker.collect paths with
  | Error _ as e -> e
  | Ok files ->
    let sources = List.map (fun f -> (f, read_file f)) files in
    run ?only ?deep
      ~mli_exists_of:(fun p ->
        List.mem (p ^ "i") files || Sys.file_exists (p ^ "i"))
      sources)

let call_graph paths =
  match Walker.collect paths with
  | Error _ as e -> e
  | Ok files ->
    let sources =
      List.filter_map
        (fun f -> if is_ocaml f then Some (f, read_file f) else None)
        files
    in
    Result.map
      (fun parsed ->
        let summaries = List.map Ast.summarize parsed in
        let tab = Symtab.build summaries in
        Callgraph.dump (Callgraph.build tab summaries))
      (parse_all sources)
