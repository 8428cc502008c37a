open Parsetree

type tree = Impl of structure | Intf of signature | Dune of string

type file = {
  path : string;
  tree : tree;
  comments : (string * Location.t) list;
}

let line (loc : Location.t) = loc.loc_start.pos_lnum

let parse ~path src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  (* The lexer's own warnings (a stray "(*)", say) would go to stderr; the
     linter speaks only through findings. *)
  ignore (Warnings.parse_options false "-a");
  match
    if Filename.basename path = "dune" then Dune src
    else if Filename.check_suffix path ".mli" then Intf (Parse.interface lexbuf)
    else Impl (Parse.implementation lexbuf)
  with
  | Dune _ as tree -> Ok { path; tree; comments = [] }
  | tree -> Ok { path; tree; comments = Lexer.comments () }
  | exception exn ->
    let loc, message =
      match Location.error_of_exn exn with
      | Some (`Ok report) ->
        (report.main.loc, Format.asprintf "%t" report.main.txt)
      | _ -> (Location.curr lexbuf, Printexc.to_string exn)
    in
    Error (Printf.sprintf "%s:%d: %s" path (line loc) message)

let iter (it : Ast_iterator.iterator) file =
  match file.tree with
  | Impl s -> it.structure it s
  | Intf s -> it.signature it s
  | Dune _ -> ()

let rec components = function
  | Longident.Lident s -> [ s ]
  | Ldot (p, s) -> components p @ [ s ]
  | Lapply (f, x) -> components f @ components x

let ident = function
  | Longident.Lident s -> ([], s)
  | Ldot (p, s) -> (components p, s)
  | Lapply _ as lid -> (components lid, "")

type ref_site = { rpath : string list; rname : string; rline : int }

type def = {
  dname : string;
  dpath : string list;
  dline : int;
  drefs : ref_site list;
  dmutates : ref_site list;
  dcallbacks : ref_site list;
  dmediates : bool;
  dlocks : bool;
  dunlocks : bool;
  daccumulates : bool;
  dmutable_global : bool;
}

type t = {
  file : string;
  modname : string;
  opens : string list list;
  maliases : (string * string list) list;
  defs : def list;
  vals : string list;
}

let modname_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let output_idents =
  [ "output_string"; "output_char"; "output_value"; "print_string";
    "print_endline"; "print_int"; "print_float"; "print_char";
    "print_newline"; "prerr_string"; "prerr_endline" ]

let accumulates e =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_construct ({ txt = Lident "::"; _ }, _) -> found := true
    | Pexp_ident { txt; _ } -> (
      match ident txt with
      | [], f -> if f = ":=" || List.mem f output_idents then found := true
      | path, _ ->
        if List.exists (fun m -> List.mem m [ "Buffer"; "Printf"; "Format" ]) path
        then found := true)
    | _ -> ());
    super.expr self e
  in
  let it = { super with expr } in
  it.expr it e;
  !found

let table_writers = [ "add"; "replace"; "remove"; "reset"; "clear" ]

let site { Location.txt; loc } =
  let rpath, rname = ident txt in
  { rpath; rname; rline = line loc }

let rec binder p =
  match p.ppat_desc with
  | Ppat_var v -> v.txt
  | Ppat_constraint (p, _) -> binder p
  | _ -> "_"

let rec mutable_rhs e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> mutable_rhs e
  | Pexp_apply ({ pexp_desc = Pexp_ident f; _ }, _) -> (
    match ident f.txt with
    | [], "ref" | [ "Hashtbl" ], "create" -> true
    | _ -> false)
  | _ -> false

(* One walk over a module-level binding's right-hand side gathers what it
   references, mutates and hands to Hashtbl traversals. Local opens join
   the file's [opens], as unqualified references may resolve through them. *)
let summarize_def ~opens dpath vb =
  let refs = ref [] and mutates = ref [] and callbacks = ref [] in
  let target e =
    match e.pexp_desc with
    | Pexp_ident lid -> mutates := site lid :: !mutates
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_ident lid -> refs := site lid :: !refs
    | Pexp_setfield (base, _, _) -> target base
    | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident m; _ }; _ }, _) ->
      opens := components m.txt :: !opens
    | Pexp_apply ({ pexp_desc = Pexp_ident f; _ }, args) -> (
      let positional =
        List.filter_map
          (function Asttypes.Nolabel, a -> Some a | _ -> None)
          args
      in
      match (ident f.txt, positional) with
      | ([], (":=" | "incr" | "decr")), a :: _ -> target a
      | ([ "Hashtbl" ], "filter_map_inplace"), _ :: tbl :: _ -> target tbl
      | ([ "Hashtbl" ], w), tbl :: _ when List.mem w table_writers -> target tbl
      | ([ "Hashtbl" ], ("iter" | "iteri" | "fold")),
        { pexp_desc = Pexp_ident g; _ } :: _ ->
        callbacks := { (site g) with rline = line f.loc } :: !callbacks
      | _ -> ())
    | _ -> ());
    super.expr self e
  in
  let it = { super with expr } in
  it.expr it vb.pvb_expr;
  let drefs = List.rev !refs in
  let uses p = List.exists p drefs in
  let mutex names =
    uses (fun r -> r.rpath = [ "Mutex" ] && List.mem r.rname names)
  in
  {
    dname = binder vb.pvb_pat;
    dpath;
    dline = line vb.pvb_loc;
    drefs;
    dmutates = List.rev !mutates;
    dcallbacks = List.rev !callbacks;
    dmediates =
      mutex [ "lock"; "unlock"; "protect" ]
      || uses (fun r -> List.mem "DLS" r.rpath || List.mem "Atomic" r.rpath);
    dlocks = mutex [ "lock" ];
    dunlocks = mutex [ "unlock"; "protect" ];
    daccumulates = accumulates vb.pvb_expr;
    dmutable_global = mutable_rhs vb.pvb_expr;
  }

let summarize file =
  let opens = ref [] and maliases = ref [] and defs = ref [] in
  let rec items path = List.iter (item path)
  and item path si =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter (fun vb -> defs := summarize_def ~opens path vb :: !defs) vbs
    | Pstr_module mb -> binding path mb
    | Pstr_recmodule mbs -> List.iter (binding path) mbs
    | Pstr_open { popen_expr = { pmod_desc = Pmod_ident m; _ }; _ }
    | Pstr_include { pincl_mod = { pmod_desc = Pmod_ident m; _ }; _ } ->
      opens := components m.txt :: !opens
    | _ -> ()
  and binding path mb =
    match mb.pmb_name.txt with
    | Some m -> module_expr path m mb.pmb_expr
    | None -> ()
  and module_expr path m me =
    match me.pmod_desc with
    | Pmod_ident target -> maliases := (m, components target.txt) :: !maliases
    | Pmod_structure s -> items (path @ [ m ]) s
    | Pmod_functor (_, body) | Pmod_constraint (body, _) ->
      module_expr path m body
    | _ -> ()
  in
  let vals =
    match file.tree with
    | Impl s ->
      items [] s;
      []
    | Intf s ->
      List.filter_map
        (fun si ->
          match si.psig_desc with
          | Psig_value vd -> Some vd.pval_name.txt
          | _ -> None)
        s
    | Dune _ -> []
  in
  {
    file = file.path;
    modname = modname_of_file file.path;
    opens = List.rev !opens;
    maliases = List.rev !maliases;
    defs = List.rev !defs;
    vals;
  }
