(** Minimal GML reader for topology interchange.

    Parses the subset of GML that the Internet Topology Zoo (and our
    {!Gml} writer) actually uses: a [graph] block with [node] blocks carrying
    integer [id]s and [edge] blocks carrying [source]/[target]. All other
    attributes (labels, graphics, capacities, …) are skipped structurally, so
    real Zoo files load. Node ids need not be dense — they are compacted to
    [0 .. n-1] preserving id order. *)

val parse : string -> (Cold_graph.Graph.t, Parse_error.t) result
(** [parse text] builds the topology. Duplicate edges collapse; self-loops
    are dropped (Zoo files contain both). Malformed input (unbalanced
    brackets, edge endpoints without node declarations, missing fields)
    yields [Error] carrying the offending source line. More than
    {!Cold_util.Limits.max_n} distinct nodes is an [Error] on the [graph]
    line, raised before the graph is allocated. *)

val read_file : path:string -> (Cold_graph.Graph.t, Parse_error.t) result
(** [read_file ~path] parses a file. I/O failures still raise [Sys_error];
    only parse problems are reported as [Error]. *)

val roundtrip_check : Cold_graph.Graph.t -> bool
(** [roundtrip_check g] is [true] iff writing [g] with {!Gml.of_graph} and
    re-parsing yields an identical graph — a self-test hook. *)
