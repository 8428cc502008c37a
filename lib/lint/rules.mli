(** The COLD lint rule set.

    Each rule is a check over one source file, read through the compiler's
    parser ({!Ast.parse}), paired with a default path scope (per-directory configuration): reproducibility rules
    run everywhere, strictness rules run on library code only, and [bench/]
    is exempt from wall-clock checks. See [doc/LINTS.md] for the catalogue
    and the reproducibility rationale behind every rule. *)

type context = {
  path : string;  (** path as handed to the engine, used in findings *)
  mli_exists : bool option;
      (** [Some false] iff the file is a [.ml] whose sibling [.mli] is known
          to be missing; [None] when linting an in-memory string *)
}

type t = {
  name : string;  (** kebab-case rule id, used in suppression comments *)
  summary : string;  (** one-line description for [--list-rules] *)
  rationale : string;  (** why the rule matters for COLD *)
  applies : string -> bool;  (** default scope, from the file path *)
  check : context -> Ast.file -> Finding.t list;
}

val all : t list
(** Every per-file rule, in catalogue order. *)

val find : string -> t option
(** Look up a per-file rule by [name]. *)

type info = {
  iname : string;
  isummary : string;
  irationale : string;
}
(** Catalogue entry shared by per-file and interprocedural rules, for
    [--list-rules] and [--explain]. *)

val deep : info list
(** The interprocedural rules (checked by {!Taint}), catalogue order.
    Names must match [Taint.rule_names]; a unit test pins the two. *)

val known : string -> bool
(** [known name] is true for any rule — per-file or deep. Suppression
    comments and [--rules] validate against this. *)

val info : string -> info option
(** Catalogue info for any rule, per-file or deep. *)
