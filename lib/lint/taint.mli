(** Interprocedural determinism-taint and parallel-safety analysis.

    Built on {!Ast}/{!Symtab}/{!Callgraph}, this pass sees what the
    per-file rules cannot: impurity that crosses function or module
    boundaries. Three rule families:

    - [nondet-taint]: a fixpoint marks every definition that transitively
      reaches a nondeterminism source — a wall-clock read, [Stdlib.Random],
      unordered [Hashtbl] traversal (including through a named helper
      callback), or polymorphic [compare] (including through aliases like
      [let cmp = compare]). A finding is reported when a tainted definition
      is {e exported from lib/} or {e schedules Cold_par tasks}, with the
      full sink-to-source call chain attached.
    - [par-unsync-mutation]: a definition reachable from a Cold_par task
      closure mutates module-level mutable state ([ref]/[Hashtbl] at
      toplevel) without [Mutex]/[Atomic]/[Domain.DLS] mediation.
    - [mutex-unbalanced]: [Mutex.lock] with no [Mutex.unlock] or
      [Mutex.protect] reachable from the locking definition.

    Sources double-count per-file rule semantics: a source suppressed under
    its own rule (or under [nondet-taint]) at the source line produces no
    chains; a suppression at the sink line silences just that sink. *)

val nondet_rule : string
val par_mutation_rule : string
val mutex_rule : string

val rule_names : string list
(** The three deep rule names, catalogue order. *)

val analyze :
  ?only:string list ->
  suppressed:(rule:string -> file:string -> line:int -> bool) ->
  Ast.file list ->
  Finding.t list
(** [analyze ~suppressed files] runs the deep rules over the whole file
    set (parsed files, [.mli] included — interfaces define the
    export roots). [only], when given, restricts to the named deep rules.
    Findings are unsorted; the engine merges and orders them. *)
