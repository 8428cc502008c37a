open Parsetree

type context = { path : string; mli_exists : bool option }

type t = {
  name : string;
  summary : string;
  rationale : string;
  applies : string -> bool;
  check : context -> Ast.file -> Finding.t list;
}

(* --- path scopes ------------------------------------------------------------ *)

let components path =
  String.split_on_char '/' path
  |> List.concat_map (String.split_on_char '\\')
  |> List.filter (fun c -> c <> "" && c <> ".")

let dir_components path =
  match List.rev (components path) with [] -> [] | _ :: dirs -> List.rev dirs

let in_dir d path = List.mem d (dir_components path)

let basename path =
  match List.rev (components path) with [] -> "" | b :: _ -> b

let is_ml path = Filename.check_suffix path ".ml"

let everywhere (_ : string) = true
let lib_only path = in_dir "lib" path
let lib_and_bin path = in_dir "lib" path || in_dir "bin" path

(* lib/serve is the daemon layer: the one place in lib/ where sockets and
   service-time clocks are legitimate (payloads stay deterministic — the
   clock only feeds the stats counters). *)
let serve_scope path = in_dir "lib" path && in_dir "serve" path
let outside_timed path = not (in_dir "bench" path) && not (serve_scope path)

let is_dune path = basename path = "dune"

(* --- syntax helpers --------------------------------------------------------- *)

(* [Some (m, f)] for an identifier expression naming [f] in module [m], the
   innermost qualifier ([""] when unqualified): [Stdlib.Sys.time] is
   [("Sys", "time")]. *)
let callee e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match Ast.ident txt with
    | [], f -> Some ("", f)
    | path, f -> Some (List.hd (List.rev path), f))
  | _ -> None

(* Collects what [scan] emits as findings of [rule]. *)
let findings ~rule ctx scan =
  let acc = ref [] in
  scan (fun loc message ->
      acc :=
        Finding.make ~rule ~file:ctx.path ~line:(Ast.line loc) message :: !acc);
  !acc

(* Calls [f] on every expression of the file, enclosing ones first. *)
let iter_exprs f file =
  let super = Ast_iterator.default_iterator in
  Ast.iter
    { super with expr = (fun self e -> f e; super.expr self e) }
    file

(* Calls [f path loc] on every module path the file names: the qualifier of
   a value, constructor, field or type constructor, and module expressions,
   module types and opens. *)
let iter_module_paths f file =
  let qualified { Location.txt; loc } =
    match Ast.ident txt with [], _ -> () | path, _ -> f path loc
  in
  let whole { Location.txt; loc } =
    let path, last = Ast.ident txt in
    f (path @ [ last ]) loc
  in
  let super = Ast_iterator.default_iterator in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_ident l | Pexp_construct (l, _) | Pexp_field (_, l)
    | Pexp_setfield (_, l, _) ->
      qualified l
    | Pexp_record (fields, _) -> List.iter (fun (l, _) -> qualified l) fields
    | _ -> ());
    super.expr self e
  and pat self p =
    (match p.ppat_desc with
    | Ppat_construct (l, _) -> qualified l
    | Ppat_record (fields, _) -> List.iter (fun (l, _) -> qualified l) fields
    | _ -> ());
    super.pat self p
  and typ self t =
    (match t.ptyp_desc with Ptyp_constr (l, _) -> qualified l | _ -> ());
    super.typ self t
  and module_expr self m =
    (match m.pmod_desc with Pmod_ident l -> whole l | _ -> ());
    super.module_expr self m
  and module_type self m =
    (match m.pmty_desc with Pmty_ident l | Pmty_alias l -> whole l | _ -> ());
    super.module_type self m
  and open_description self o =
    whole o.popen_expr;
    super.open_description self o
  in
  Ast.iter
    { super with expr; pat; typ; module_expr; module_type; open_description }
    file

(* --- float inference -------------------------------------------------------- *)

(* A float is what the syntax makes evident: a float literal, a [: float]
   annotation, a float constant, a call of a float-returning function, or
   a same-file binding to one of those. The generalized min/max and
   float-eq rules consult this, so [min x y] on a let-bound float is caught
   without a type checker. *)

module SS = Set.Make (String)

let float_constants =
  SS.of_list
    [ "infinity"; "neg_infinity"; "nan"; "max_float"; "min_float";
      "epsilon_float" ]

(* Stdlib functions and operators that always return float. *)
let float_builtins =
  SS.of_list
    [ "sqrt"; "exp"; "log"; "log10"; "expm1"; "log1p"; "cos"; "sin"; "tan";
      "acos"; "asin"; "atan"; "atan2"; "cosh"; "sinh"; "tanh"; "ceil";
      "floor"; "abs_float"; "mod_float"; "float_of_int"; "float_of_string";
      "float"; "ldexp"; "copysign"; "+."; "-."; "*."; "/."; "**"; "~-." ]

(* Float-module members that are or return float (not [equal]/[compare]/
   [to_int]). *)
let float_module_fns =
  SS.of_list
    [ "of_int"; "of_string"; "abs"; "neg"; "add"; "sub"; "mul"; "div"; "rem";
      "fma"; "succ"; "pred"; "sqrt"; "cbrt"; "exp"; "exp2"; "log"; "log10";
      "log2"; "expm1"; "log1p"; "pow"; "cos"; "sin"; "tan"; "acos"; "asin";
      "atan"; "atan2"; "hypot"; "cosh"; "sinh"; "tanh"; "trunc"; "round";
      "ceil"; "floor"; "copy_sign"; "min"; "max"; "min_num"; "max_num";
      "nan"; "infinity"; "neg_infinity"; "pi"; "epsilon"; "max_float";
      "min_float" ]

let is_float_type t =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt = Lident "float"; _ }, []) -> true
  | _ -> false

let rec is_float floats e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint (e, t) -> is_float_type t || is_float floats e
  | Pexp_apply (f, _) -> (
    match callee f with
    | Some ("", g) -> SS.mem g float_builtins
    | Some ("Float", g) -> SS.mem g float_module_fns
    | _ -> false)
  | _ -> (
    match callee e with
    | Some ("", x) -> SS.mem x float_constants || SS.mem x floats
    | Some ("Float", x) -> SS.mem x float_module_fns
    | _ -> false)

(* The names the file binds to a float, in source order: a later non-float
   binding of a name evicts it, and a [(x : float)] pattern adds it. *)
let float_names file =
  let floats = ref SS.empty in
  let super = Ast_iterator.default_iterator in
  let value_binding self vb =
    (match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt = x; _ } ->
      let annotated =
        match vb.pvb_constraint with
        | Some (Pvc_constraint { typ; _ }) -> is_float_type typ
        | _ -> false
      in
      floats :=
        if annotated || is_float !floats vb.pvb_expr then SS.add x !floats
        else SS.remove x !floats
    | _ -> ());
    super.value_binding self vb
  and pat self p =
    (match p.ppat_desc with
    | Ppat_constraint ({ ppat_desc = Ppat_var { txt = x; _ }; _ }, t)
      when is_float_type t ->
      floats := SS.add x !floats
    | _ -> ());
    super.pat self p
  in
  Ast.iter { super with value_binding; pat } file;
  !floats

(* --- no-stdlib-random ------------------------------------------------------- *)

let check_stdlib_random ctx file =
  findings ~rule:"no-stdlib-random" ctx (fun emit ->
      iter_module_paths
        (fun path loc ->
          if List.mem "Random" path then
            emit loc
              "Stdlib.Random is seeded globally and not splittable; draw from \
               Cold_prng.Prng so runs stay reproducible")
        file)

(* --- no-wall-clock ---------------------------------------------------------- *)

let wall_clock_calls =
  [ ("Sys", "time"); ("Unix", "gettimeofday"); ("Unix", "time");
    ("Unix", "localtime"); ("Unix", "gmtime") ]

let check_wall_clock ctx file =
  findings ~rule:"no-wall-clock" ctx (fun emit ->
      iter_exprs
        (fun e ->
          match callee e with
          | Some ((m, f) as call) when List.mem call wall_clock_calls ->
            emit e.pexp_loc
              (Printf.sprintf
                 "%s.%s reads the wall clock; outputs must depend only on the \
                  seed (timing belongs in bench/)"
                 m f)
          | _ -> ())
        file)

(* --- no-polymorphic-compare ------------------------------------------------- *)

let check_poly_compare ctx file =
  findings ~rule:"no-polymorphic-compare" ctx (fun emit ->
      iter_exprs
        (fun e ->
          match callee e with
          | Some (("" | "Stdlib" | "Poly"), "compare") ->
            emit e.pexp_loc
              "polymorphic compare silently depends on memory representation; \
               use a typed comparator (Int.compare, Float.compare, a record \
               comparator)"
          | _ -> ())
        file)

(* --- no-polymorphic-minmax --------------------------------------------------- *)

(* A bare [min]/[max]/[compare] fires when a float-looking operand follows
   it in an application: its own arguments, or — when it is itself passed
   along, as in [Array.fold_left max 0.0 xs] — the arguments after it. *)
let check_poly_minmax ctx file =
  let floats = float_names file in
  let bare e =
    match callee e with
    | Some ("", (("min" | "max" | "compare") as name)) -> Some name
    | _ -> None
  in
  findings ~rule:"no-polymorphic-minmax" ctx (fun emit ->
      let flag f name operands =
        if List.exists (fun (_, a) -> is_float floats a) operands then
          emit f.pexp_loc
            (Printf.sprintf
               "polymorphic '%s' on float-looking operands compares boxed \
                representations; use Float.%s (explicit NaN/-0. semantics, no \
                polymorphic dispatch)"
               name name)
      in
      let rec passed = function
        | (_, a) :: rest ->
          Option.iter (fun name -> flag a name rest) (bare a);
          passed rest
        | [] -> ()
      in
      iter_exprs
        (fun e ->
          match e.pexp_desc with
          | Pexp_apply (f, args) ->
            Option.iter (fun name -> flag f name args) (bare f);
            passed args
          | _ -> ())
        file)

(* --- no-failwith-in-lib ----------------------------------------------------- *)

let check_failwith ctx file =
  findings ~rule:"no-failwith-in-lib" ctx (fun emit ->
      iter_exprs
        (fun e ->
          match callee e with
          | Some ("", "failwith") ->
            emit e.pexp_loc
              "library errors must be typed: return a result or raise an \
               exception declared in the .mli (failwith hides the contract)"
          | _ -> ())
        file)

(* --- mli-required ----------------------------------------------------------- *)

let check_mli ctx (_ : Ast.file) =
  match ctx.mli_exists with
  | Some false ->
    [ Finding.make ~rule:"mli-required" ~file:ctx.path ~line:1
        "library modules need a .mli: an explicit interface is the contract \
         the lint rules (and reviewers) check errors and determinism against" ]
  | _ -> []

(* --- no-naked-float-eq ------------------------------------------------------ *)

let check_float_eq ctx file =
  let floats = float_names file in
  let literal e =
    match e.pexp_desc with Pexp_constant (Pconst_float _) -> true | _ -> false
  in
  findings ~rule:"no-naked-float-eq" ctx (fun emit ->
      iter_exprs
        (fun e ->
          match e.pexp_desc with
          | Pexp_apply (f, args) -> (
            match callee f with
            | Some ("", (("=" | "<>" | "==" | "!=") as op)) -> (
              let operands = List.map snd args in
              let what =
                if List.exists literal operands then Some "a float literal"
                else
                  match List.find_opt (is_float floats) operands with
                  | Some { pexp_desc = Pexp_ident { txt = Lident x; _ }; _ } ->
                    Some (Printf.sprintf "'%s' (inferred float)" x)
                  | Some _ -> Some "an inferred float"
                  | None -> None
              in
              match what with
              | Some what ->
                emit f.pexp_loc
                  (Printf.sprintf
                     "'%s' on %s: exact float equality is \
                      representation-dependent; use Float.equal for \
                      intentional exact tests or compare against an epsilon"
                     op what)
              | None -> ())
            | _ -> ())
          | _ -> ())
        file)

(* --- hashtbl-iteration-order ------------------------------------------------- *)

(* [Hashtbl.iter]/[fold] present bindings in unspecified hash order. A fold
   always feeds an accumulator, so it is a candidate unless it sits inside
   an argument of a canonicalizing sort ([List.sort … (Hashtbl.fold …)],
   also through [|>] and [@@]) or of one of the blessed [Cold_util.Tbl]
   wrappers. An iter is a candidate only when its callback visibly
   accumulates (list cons, ref assignment) or writes to an output channel —
   per-binding in-place mutation ([f.field <- …]) is order-insensitive and
   stays quiet. *)

let sort_markers =
  [ "sort"; "sort_uniq"; "stable_sort"; "fast_sort"; "sorted_bindings";
    "sorted_keys"; "iter_sorted"; "fold_sorted" ]

let sorts e =
  let head = match e.pexp_desc with Pexp_apply (f, _) -> f | _ -> e in
  match callee head with
  | Some (_, f) -> List.mem f sort_markers
  | None -> false

(* Is [e] an application of a sort, or a pipe into one? *)
let sorting e =
  match e.pexp_desc with
  | Pexp_apply (f, args) -> (
    sorts f
    ||
    match (callee f, args) with
    | Some ("", "|>"), [ _; (_, g) ] | Some ("", "@@"), [ (_, g); _ ] -> sorts g
    | _ -> false)
  | _ -> false

let check_hashtbl_order ctx file =
  findings ~rule:"hashtbl-iteration-order" ctx (fun emit ->
      let flag loc what fix =
        emit loc
          (Printf.sprintf
             "%s visits bindings in unspecified hash order, so the result \
              depends on insertion history; %s"
             what fix)
      in
      let sorted = ref 0 in
      let super = Ast_iterator.default_iterator in
      let expr self e =
        (match (e.pexp_desc, callee e) with
        | ( _,
            Some
              ( "Hashtbl",
                (("fold" | "to_seq" | "to_seq_keys" | "to_seq_values") as f) ) )
          when !sorted = 0 ->
          flag e.pexp_loc
            (Printf.sprintf "Hashtbl.%s feeding an accumulator" f)
            "sort first (Cold_util.Tbl.fold_sorted / sorted_bindings) or sort \
             the result before it is consumed"
        | Pexp_apply (g, (Nolabel, callback) :: _), _ -> (
          match callee g with
          | Some ("Hashtbl", (("iter" | "iteri") as f))
            when Ast.accumulates callback ->
            flag g.pexp_loc
              (Printf.sprintf
                 "Hashtbl.%s with an accumulating or output-writing body" f)
              "iterate in canonical key order (Cold_util.Tbl.iter_sorted)"
          | _ -> ())
        | _ -> ());
        if sorting e then begin
          incr sorted;
          super.expr self e;
          decr sorted
        end
        else super.expr self e
      in
      Ast.iter { super with expr } file)

(* --- unix-dependency-fence --------------------------------------------------- *)

(* The fence has two faces: a [Unix] module path in OCaml sources (including
   [open Unix]), and a [unix] library dependency in dune stanzas — the
   walker hands dune files to the rules too. In a dune file only a bare
   [unix] atom counts: a dotted one like [notty.unix] names a sublibrary of
   something else, and [;] comments and strings are skipped. *)

let unix_atom_lines text =
  let n = String.length text in
  let lines = ref [] in
  let rec atom_end j =
    if j < n && not (String.contains " \t\r\n();\"" text.[j]) then
      atom_end (j + 1)
    else j
  in
  let rec code i line =
    if i < n then
      match text.[i] with
      | '\n' -> code (i + 1) (line + 1)
      | ' ' | '\t' | '\r' | '(' | ')' -> code (i + 1) line
      | ';' -> (
        match String.index_from_opt text i '\n' with
        | Some j -> code j line
        | None -> ())
      | '"' -> string (i + 1) line
      | _ ->
        let j = atom_end i in
        if String.sub text i (j - i) = "unix" then lines := line :: !lines;
        code j line
  and string i line =
    if i < n then
      match text.[i] with
      | '"' -> code (i + 1) line
      | '\\' when i + 1 < n && text.[i + 1] <> '\n' -> string (i + 2) line
      | '\n' -> string (i + 1) (line + 1)
      | _ -> string (i + 1) line
  in
  code 0 1;
  List.rev !lines

let check_unix_fence ctx (file : Ast.file) =
  let rule = "unix-dependency-fence" in
  match file.tree with
  | Ast.Dune text ->
    List.map
      (fun line ->
        Finding.make ~rule ~file:ctx.path ~line
          "unix dependency in a lib/ dune stanza: core libraries must stay \
           free of sockets and clocks so synthesis is a pure function of the \
           seed; daemon code belongs in lib/serve")
      (unix_atom_lines text)
  | Ast.Impl _ | Ast.Intf _ ->
    findings ~rule ctx (fun emit ->
        iter_module_paths
          (fun path loc ->
            if List.mem "Unix" path then
              emit loc
                "Unix.* reference outside lib/serve: core libraries must not \
                 touch sockets, clocks or processes; put daemon code in \
                 lib/serve and keep the computation pure")
          file)

(* --- todo-tracker ----------------------------------------------------------- *)

let todo_markers = [ "TODO"; "FIXME"; "XXX" ]

let find_bare_marker text =
  (* A marker counts as tracked when immediately followed by '(' — e.g.
     TODO(owner) or FIXME(#42). *)
  let n = String.length text in
  let is_word_char c =
    (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
    || c = '_'
  in
  let rec try_marker = function
    | [] -> None
    | m :: rest ->
      let ml = String.length m in
      let rec scan i =
        if i + ml > n then try_marker rest
        else if
          String.sub text i ml = m
          && (i = 0 || not (is_word_char text.[i - 1]))
          && (i + ml >= n || text.[i + ml] <> '(')
          && (i + ml >= n || not (is_word_char text.[i + ml]))
        then Some m
        else scan (i + 1)
      in
      scan 0
  in
  try_marker todo_markers

let check_todo ctx (file : Ast.file) =
  findings ~rule:"todo-tracker" ctx (fun emit ->
      List.iter
        (fun (text, loc) ->
          match find_bare_marker text with
          | Some m ->
            emit loc
              (Printf.sprintf
                 "untracked %s: attach an owner or issue, e.g. %s(name), so \
                  stale markers cannot silently accumulate"
                 m m)
          | None -> ())
        file.comments)

(* --- magic-cost-constant ---------------------------------------------------- *)

(* A numeric literal given to a cost parameter: a labelled argument
   [~k2:1e-4], an optional argument's default [?(k2 = 1e-4)], or a record
   field [k2 = 1e-4]. *)
let check_magic_cost ctx file =
  let literal e =
    match e.pexp_desc with
    | Pexp_constant (Pconst_integer _ | Pconst_float _) -> true
    | _ -> false
  in
  findings ~rule:"magic-cost-constant" ctx (fun emit ->
      let flag k value =
        if List.mem k [ "k0"; "k1"; "k2"; "k3" ] && literal value then
          emit value.pexp_loc
            (Printf.sprintf
               "magic literal for cost parameter %s: name it or take it from \
                Presets so the paper's parameter points stay in one place"
               k)
      in
      iter_exprs
        (fun e ->
          match e.pexp_desc with
          | Pexp_apply (_, args) ->
            List.iter
              (function
                | (Asttypes.Labelled k | Optional k), value -> flag k value
                | Nolabel, _ -> ())
              args
          | Pexp_record (fields, _) ->
            List.iter
              (fun (l, value) -> flag (snd (Ast.ident l.Location.txt)) value)
              fields
          | Pexp_fun ((Labelled k | Optional k), Some default, _, _) ->
            flag k default
          | _ -> ())
        file)

(* --- catalogue -------------------------------------------------------------- *)

let all =
  [
    {
      name = "no-stdlib-random";
      summary = "all randomness must flow through Cold_prng.Prng";
      rationale =
        "Stdlib.Random has hidden global state; a stray call desynchronizes \
         seeded ensembles without failing any test.";
      applies = everywhere;
      check = check_stdlib_random;
    };
    {
      name = "no-wall-clock";
      summary = "no Sys.time / Unix.gettimeofday outside bench/ and lib/serve";
      rationale =
        "Wall-clock reads make output depend on when a run happened, \
         breaking bit-reproducibility of synthesized topologies. lib/serve \
         is exempt alongside bench/: the daemon times requests for its \
         stats counters, but response payloads remain clock-free (the \
         replay tests pin this).";
      applies = outside_timed;
      check = check_wall_clock;
    };
    {
      name = "no-polymorphic-compare";
      summary = "use typed comparators instead of bare compare";
      rationale =
        "Polymorphic compare on records, tuples-of-floats or lazy values is \
         representation-dependent; canonical orderings (edge lists, GA \
         populations) must be typed to stay stable across refactors.";
      applies = lib_and_bin;
      check = check_poly_compare;
    };
    {
      name = "no-polymorphic-minmax";
      summary = "use Float.min/Float.max/Float.compare on float operands";
      rationale =
        "Polymorphic min/max/compare on floats dispatch on the boxed \
         representation and pin down no NaN or -0. semantics; the Float \
         module's versions are explicit and branch-free. Detection covers \
         operands that are float literals or constants, float arithmetic \
         or float-returning calls (sqrt, float_of_int, Float.*), and \
         same-file bindings to one of those or annotated : float.";
      applies = lib_and_bin;
      check = check_poly_minmax;
    };
    {
      name = "hashtbl-iteration-order";
      summary =
        "no Hashtbl.iter/fold feeding accumulators or output without a sort";
      rationale =
        "Hashtbl iteration order is a function of key hashes and insertion \
         history, not of the table's contents; folding it into a list, \
         accumulator or output channel silently makes results depend on \
         how the table was built. Iterate in canonical key order via \
         Cold_util.Tbl (the blessed wrapper) or sort the result.";
      applies =
        (fun p ->
          (* lib/util/tbl.ml hosts the one sanctioned raw fold the blessed
             wrappers are built from. *)
          lib_and_bin p && not (basename p = "tbl.ml" && in_dir "util" p));
      check = check_hashtbl_order;
    };
    {
      name = "no-failwith-in-lib";
      summary = "library errors must be typed results or declared exceptions";
      rationale =
        "failwith \"...\" turns every caller mistake into an untyped crash; \
         parsers and validators must expose errors callers can match on.";
      applies = lib_only;
      check = check_failwith;
    };
    {
      name = "mli-required";
      summary = "every lib/**/*.ml needs a sibling .mli";
      rationale =
        "Without an interface, internal helpers leak and the determinism \
         audit cannot tell the contract from the implementation.";
      applies = (fun p -> lib_only p && is_ml p);
      check = check_mli;
    };
    {
      name = "no-naked-float-eq";
      summary = "no =, <>, == or != against float literals";
      rationale =
        "Exact float comparison against literals hides rounding assumptions \
         that differ across optimization levels and platforms.";
      applies = lib_and_bin;
      check = check_float_eq;
    };
    {
      name = "unix-dependency-fence";
      summary = "no Unix.* code or unix dune dependency in lib/ outside lib/serve";
      rationale =
        "The synthesis core must be a pure function of context and seed: a \
         socket, clock or process call smuggled into lib/ makes results \
         environment-dependent and unreplayable. All daemon concerns — \
         sockets, select loops, service timing — are fenced into lib/serve \
         (whose payloads the replay tests still pin bit-for-bit). The rule \
         checks both OCaml sources (any Unix.* reference) and dune stanzas \
         (a unix library dependency).";
      applies =
        (fun p ->
          lib_only p && (not (serve_scope p))
          && (is_ml p || Filename.check_suffix p ".mli" || is_dune p));
      check = check_unix_fence;
    };
    {
      name = "todo-tracker";
      summary = "TODO/FIXME/XXX must carry an owner or issue reference";
      rationale =
        "Bare markers rot; tracked ones — TODO(name) — keep the backlog \
         auditable as the system scales.";
      applies = everywhere;
      check = check_todo;
    };
    {
      name = "magic-cost-constant";
      summary = "k0–k3 literals belong in presets.ml (or a named constant)";
      rationale =
        "The paper's cost-parameter points define every figure; scattering \
         literal k-values makes ensembles incomparable across modules.";
      applies = (fun p -> lib_only p && basename p <> "presets.ml");
      check = check_magic_cost;
    };
  ]

let find name = List.find_opt (fun r -> r.name = name) all

(* --- interprocedural (deep) rules --------------------------------------------- *)

(* Checked in lib/lint/taint.ml, which needs the whole-program call graph;
   catalogued here so --list-rules, --explain and suppression comments see
   one uniform rule namespace. Taint.rule_names must stay in sync (a unit
   test pins this). *)

type info = { iname : string; isummary : string; irationale : string }

let deep =
  [
    {
      iname = "nondet-taint";
      isummary =
        "no nondeterminism reachable from lib exports or Cold_par tasks";
      irationale =
        "A wall-clock read, Stdlib.Random draw, unordered Hashtbl traversal \
         or polymorphic compare buried three calls deep still makes the \
         caller's output depend on timing, hashing or insertion history. \
         The interprocedural pass propagates taint over the whole-program \
         call graph and reports every exported lib value or Cold_par \
         scheduling site that can transitively reach such a source, with \
         the full sink-to-source call chain. Cut the path, or suppress at \
         the source (silences every chain from it) or at the sink \
         (silences just that entry point).";
    };
    {
      iname = "par-unsync-mutation";
      isummary =
        "no unmediated toplevel mutable state written from pool tasks";
      irationale =
        "Work handed to Cold_par runs on several domains at once; a ref, \
         Hashtbl or mutable record field at module level written from task \
         code without Mutex/Atomic/Domain.DLS mediation is a data race — \
         results vary with domain interleaving even under a fixed seed. \
         Mediate the write or move the state into the task.";
    };
    {
      iname = "mutex-unbalanced";
      isummary = "Mutex.lock must reach Mutex.unlock or Mutex.protect";
      irationale =
        "A lock whose matching unlock is unreachable from the locking \
         definition deadlocks the pool on the first raising path. Prefer \
         Mutex.protect, which releases on exceptions.";
    };
  ]

let known name =
  find name <> None || List.exists (fun i -> i.iname = name) deep

let info name =
  match find name with
  | Some r -> Some { iname = r.name; isummary = r.summary; irationale = r.rationale }
  | None -> List.find_opt (fun i -> i.iname = name) deep
