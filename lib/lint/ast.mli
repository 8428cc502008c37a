(** Parsed sources and per-file definition summaries.

    {!parse} reads a file through the compiler's own parser
    ([Parse.implementation] or [Parse.interface]) and keeps its comments,
    which the rules need for suppressions and [todo-tracker]. {!summarize}
    walks the syntax tree for the interprocedural pass: module-level [let]
    bindings (with their enclosing submodule path), [open]/[include]
    directives, [module M = Path] aliases, and — per definition — every
    value reference, mutation site, and synchronization marker in the body. *)

type tree =
  | Impl of Parsetree.structure  (** a [.ml] file *)
  | Intf of Parsetree.signature  (** a [.mli] file *)
  | Dune of string  (** a [dune] file, kept as text for the stanza rule *)

type file = {
  path : string;
  tree : tree;
  comments : (string * Location.t) list;
      (** every comment, text between the delimiters, in source order *)
}

val parse : path:string -> string -> (file, string) result
(** [parse ~path src] parses [src] as an interface when [path] ends in
    [.mli], keeps it as text when [path] names a [dune] file, and parses it
    as an implementation otherwise. [Error "path:line: message"] when the
    compiler's parser rejects it. *)

val iter : Ast_iterator.iterator -> file -> unit
(** Runs the iterator over the file's syntax tree (a dune file has none). *)

val line : Location.t -> int
(** The 1-based line a location starts on. *)

val ident : Longident.t -> string list * string
(** [ident M.N.f] is [(["M"; "N"], "f")]. *)

type ref_site = {
  rpath : string list;
      (** module qualifiers, outermost first: [Cold_net.Routing.route] has
          [rpath = ["Cold_net"; "Routing"]]; unqualified uses have [[]] *)
  rname : string;  (** the referenced value name *)
  rline : int;  (** 1-based line of the reference *)
}

type def = {
  dname : string;
      (** simple binding name; ["_"] for pattern/unit bindings, the operator
          text for [let ( + ) …] *)
  dpath : string list;  (** enclosing submodule path within the file *)
  dline : int;  (** line the [let]/[and] keyword starts on *)
  drefs : ref_site list;  (** value references in the body, source order *)
  dmutates : ref_site list;
      (** mutation targets: [x := …], [r.f <- …], [incr]/[decr],
          [Hashtbl.add/replace/remove/reset/clear] tables *)
  dcallbacks : ref_site list;
      (** named (non-lambda) callbacks handed to [Hashtbl.iter]/[iteri]/
          [fold] — the helper-wrapped iteration the per-file rules cannot
          see *)
  dmediates : bool;
      (** body uses [Mutex.lock]/[Mutex.protect], [Domain.DLS] or [Atomic]:
          treated as a synchronization boundary by the parallel-safety rules *)
  dlocks : bool;  (** body references [Mutex.lock] *)
  dunlocks : bool;  (** body references [Mutex.unlock] or [Mutex.protect] *)
  daccumulates : bool;  (** the body {!accumulates} *)
  dmutable_global : bool;
      (** a parameterless module-level binding whose right-hand side is
          visibly mutable state: [ref …] or [Hashtbl.create …] *)
}

type t = {
  file : string;
  modname : string;  (** capitalized basename: [lib/net/routing.ml] → [Routing] *)
  opens : string list list;  (** [open]/[include] paths, source order *)
  maliases : (string * string list) list;  (** [module M = Other.Path] *)
  defs : def list;  (** module-level definitions, source order *)
  vals : string list;  (** top-level [val] names, for [.mli] files *)
}

val accumulates : Parsetree.expression -> bool
(** [accumulates e] is true when [e] conses ([::]), assigns a ref ([:=]),
    or writes to an output channel / [Buffer] / [Printf] / [Format] —
    work whose result depends on the order it runs in. *)

val modname_of_file : string -> string
(** [modname_of_file "lib/net/routing.ml"] is ["Routing"]. *)

val summarize : file -> t
(** [summarize file] builds the summary of a parsed file. *)
