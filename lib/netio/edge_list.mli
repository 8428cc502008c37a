(** Plain edge-list serialization: a header line [n m] followed by one
    [u v] pair per line. Round-trips exactly; the simplest interchange for
    feeding topologies to simulators or re-importing reference graphs. *)

val to_string : Cold_graph.Graph.t -> string

val of_string : string -> (Cold_graph.Graph.t, Parse_error.t) result
(** [of_string s] parses; malformed input (bad header, vertex out of range,
    self-loop, wrong edge count) yields [Error] carrying the offending
    1-based line. A header claiming more than {!Cold_util.Limits.max_n}
    nodes is an [Error] on the header line, raised before the graph is
    allocated. Blank lines and [#] comment lines are ignored. *)

val write_file : path:string -> Cold_graph.Graph.t -> unit

val read_file : path:string -> (Cold_graph.Graph.t, Parse_error.t) result
(** [read_file ~path] parses a file. I/O failures still raise [Sys_error];
    only parse problems are reported as [Error]. *)
