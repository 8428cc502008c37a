(** Runs the rule set over sources and filters suppressions.

    A finding is suppressed by a comment [(* lint: allow <rule> ... *)]
    placed on the same line as the violation or on the line directly above
    it (for multi-line comments: any line the comment touches, plus one).
    Several rule names may be listed in one comment; prose after the rule
    names is ignored. Deep (interprocedural) rule names are valid in
    suppression comments too: at a taint {e source} line they silence every
    chain rooted there, at a {e sink} line just that entry point.

    Every source is read through the compiler's parser ({!Ast.parse});
    comments come from its lexer. Per-file rules see one file at a time;
    the deep rules ({!Taint}) need the whole file set at once, so they run
    only through {!check_sources} / {!check_paths}. *)

exception Syntax_error of string
(** ["path:line: message"]: the compiler's parser rejected the source. *)

val check_source :
  ?only:string list ->
  ?mli_exists:bool ->
  path:string ->
  string ->
  Finding.t list
(** [check_source ~path src] lints one in-memory source with the per-file
    rules. [path] selects which rules apply (per-directory scoping), whether
    [src] is parsed as an interface ([.mli]) or kept as a [dune] file, and
    is echoed in findings. [only] restricts to the named rules.
    [mli_exists] feeds the [mli-required] rule; when omitted the rule cannot
    fire. Findings are in canonical {!Finding.compare} order. Raises
    {!Syntax_error} if [src] does not parse. *)

val check_sources :
  ?only:string list ->
  ?deep:bool ->
  (string * string) list ->
  (Finding.t list, string) result
(** [check_sources sources] lints a set of in-memory [(path, content)]
    files: per-file rules, then — unless [~deep:false] — the
    interprocedural pass over the whole set. [mli-required] and export
    roots resolve against the set itself (a path's sibling [.mli] counts
    as existing iff it is in the set). [Error msg] on an unknown rule name
    in [only], or naming the first source the parser rejects. *)

val check_paths :
  ?only:string list ->
  ?deep:bool ->
  string list ->
  (Finding.t list, string) result
(** [check_paths paths] walks directories (via {!Walker.collect}), lints
    every [.ml]/[.mli] found, and merges findings in canonical order. The
    deep pass is on by default; [~deep:false] runs the per-file rules
    only. [Error msg] on a nonexistent path, an unknown rule name in
    [only], or a source the parser rejects. *)

val call_graph : string list -> (string, string) result
(** [call_graph paths] walks [paths] and renders the resolved whole-program
    call graph ({!Callgraph.dump}): one block per definition, sorted by
    qualified name, each listing its resolved callees. [Error msg] as for
    {!check_paths}. *)
