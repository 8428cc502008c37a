(** Upper bounds on the sizes a request may ask for.

    One set of limits for every entry point: the [cold_serve] wire protocol
    ({!Cold_serve.Protocol}), the [cold_gen] command line and the topology
    readers ({!Cold_netio.Edge_list}, {!Cold_netio.Gml_parser}). A graph on
    n PoPs is a bit matrix of n·⌈n/8⌉ bytes, so a size read from untrusted
    input is checked against these before anything is allocated from it. *)

val max_n : int
(** Most PoPs in one topology: 2000. *)

val max_count : int
(** Most designs in one ensemble, and most ABC trials in one fit (each
    trial synthesizes one network): 10,000. *)

val max_steps : int
(** Most steps in one failure trace or growth run: 100,000. It bounds a
    run's length, not a graph's size: a growth run that adds PoPs at each
    step checks its final size against {!max_n} itself. *)

val max_population : int
(** Largest GA population: 10,000. *)

val max_generations : int
(** Most GA generations: 100,000. *)
