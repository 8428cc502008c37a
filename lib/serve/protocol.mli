(** Wire codec for the [cold_serve] request/response protocol.

    The protocol is line-delimited ASCII: one request per ['\n']-terminated
    line, one response frame per request. The codec is {e pure} — no
    sockets, no clocks — so every parse and every frame rendering is a
    deterministic function of its input, and the robustness suite can
    exercise it without a daemon. See doc/SERVE.md for the full grammar.

    Requests:
    {v
    <verb> <id> [key=value]...
    v}
    where [verb] is one of [synth], [ensemble], [survive], [stats], [ping],
    [drain]; [id] is a client-chosen correlation token echoed verbatim in
    the response. Unknown keys, out-of-range values and malformed numbers
    are rejected with a typed error — parsing never raises.

    Responses:
    {v
    ok <id> <len>\n<len payload bytes>
    err <id> <code> <message>\n
    v}
    The payload length is exact, so frames can be read without lookahead;
    payloads themselves always end in a newline. A cached answer re-renders
    the identical frame: bit-for-bit equality of replayed responses is the
    service's core contract. *)

type format = Edges | Gml | Summary
(** Result serializations: the {!Cold_netio.Edge_list} text format, the
    Zoo-compatible {!Cold_netio.Gml} rendering, or a flat JSON summary of
    topology metrics and cost breakdown. *)

type design = {
  n : int;  (** PoP count of the drawn context (2..2000). *)
  seed : int;  (** Context + GA stream seed. *)
  params : Cold.Cost.params;  (** k0–k3; defaults = paper baseline. *)
  generations : int;  (** GA generations; default 20. *)
  population : int;  (** GA population; default 16. *)
  permutations : int;  (** Heuristic seeding restarts; default 2. *)
  survivable : bool;  (** 2-edge-connected constraint; default false. *)
}
(** One fully-normalized synthesis problem: context spec, cost point and
    GA budget. Two requests with the same [design] denote the same
    deterministic computation. *)

type job =
  | Synth of { design : design; format : format }
  | Ensemble of { design : design; count : int }
  | Survive of {
      design : design;
      steps : int;
      fseed : int;  (** Failure-trace seed (independent of the design seed). *)
      rates : Cold_sim.Failure.rates;
    }
      (** Cacheable computations — the verbs that reach the scheduler. *)

type request =
  | Job of job
  | Stats  (** Server counters as JSON; never cached. *)
  | Ping
  | Drain  (** Finish queued work, then shut down. *)

type envelope = {
  id : string;
  body : request;
  deadline_ms : int option;
      (** Queueing budget: a job still waiting after this many
          milliseconds is answered [err … deadline] instead of evaluated. *)
}

val parse : string -> (envelope, string * string) result
(** [parse line] decodes one request line. [Error (id, message)] carries
    the correlation token when the line got far enough to contain one and
    ["-"] otherwise, so the server can always address its error frame. *)

val canonical_job : job -> string
(** The canonical request key: verb plus every parameter (defaults filled
    in) in a fixed order, floats rendered exactly ([%h]). Two lines that
    parse to the same computation canonicalize identically — this string
    is the request cache's identity, and its hash the cache key. *)

val verb_of_job : job -> string

val format_name : format -> string

val frame_ok : id:string -> string -> string
(** [frame_ok ~id payload] is ["ok <id> <len>\n" ^ payload]. *)

val frame_err : id:string -> code:string -> string -> string
(** [frame_err ~id ~code msg] is ["err <id> <code> <msg>\n"]. Codes in use:
    [parse], [params], [shed], [deadline], [draining], [oversized],
    [internal]. *)

val json_float : float -> string
(** Shortest decimal rendering that round-trips the double exactly
    ([%.17g] fallback) — deterministic, valid JSON. Used by every JSON
    payload so replayed bytes cannot drift. *)
