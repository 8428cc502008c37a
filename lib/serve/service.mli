(** The deterministic heart of [cold_serve]: request evaluation, the
    replay cache and the server-side counters — everything the daemon does
    except sockets.

    {b Determinism contract.} {!respond} is a pure function of its
    {!Protocol.job}: the answer is computed by the same seeded pipeline a
    CLI run would use ({!Cold.Synthesis}, {!Cold.Ensemble},
    {!Cold_sim.Failure}), every float in a JSON payload is rendered with
    {!Protocol.json_float}, and no timestamp, hostname or counter ever
    reaches a payload. A cache hit therefore returns the {e same bytes}
    the original computation produced, and a restarted daemon re-derives
    them identically — request-level replay is bit-exact, at any pool
    size.

    {b The request cache} is keyed by the canonical job
    ({!Protocol.canonical_job}) alone. A job's context is drawn from its
    [n] and [seed], both in that string, and the design is a
    deterministic function of the context, so the string names the whole
    computation: a hit hashes it (FNV-1a, the family of
    {!Cold_graph.Graph.fingerprint}) and checks one slot, and generates
    nothing. Slots are direct-mapped like {!Cold.Fitness_cache}; every
    hit is confirmed against the stored canonical string, so a key
    collision can never replay the wrong response. All cache and counter
    state is mutex-guarded — safe from every domain of the evaluation
    pool. *)

type t

val create :
  ?domains:int -> ?cache_slots:int -> ?now:(unit -> float) -> unit -> t
(** [create ()] builds a service. [domains] (default 1, [0] autodetects)
    sizes the {!Cold_par.Par} pool {!handle_batch} fans requests over.
    [cache_slots] (default 256; [0] disables) sizes the replay cache.
    [now] supplies the clock used {e only} for service-time statistics —
    never for payloads — so tests can inject a fake clock and the library
    itself stays wall-clock-free. *)

val parallelism : t -> int

val respond : t -> Protocol.job -> (string, string) result
(** [respond t job] answers one job from the cache or by computing it
    ([Ok payload]), updating hit/miss counters and service-time records.
    Computation runs outside the cache lock, so independent misses
    evaluate concurrently; two racing identical jobs both compute the
    same bytes and the second store is a no-op in effect. [Error msg]
    reports an unexpected evaluation failure (the caller frames it as
    [err … internal]); errors are never cached. *)

val handle_batch : t -> Protocol.job array -> (string, string) result array
(** [handle_batch t jobs] is [Array.map (respond t) jobs] fanned over the
    service's domain pool — slot [i] always holds job [i]'s answer, so
    scheduling order cannot leak into responses. *)

val note_request : t -> unit
(** Count one received request line (any verb, parseable or not). *)

val note_shed : t -> unit
(** Count one admission-queue overflow rejection. *)

val note_error : t -> unit
(** Count one error reply (parse, params, deadline, internal, …). *)

val cache_entries : t -> int
(** Occupied replay-cache slots. *)

val dump_cache : t -> string
(** Serialize every occupied replay-cache slot (ascending slot order) into
    a deterministic, restart-stable format: the header
    [coldserve-cache 2 <digest> <count>], then one record per entry, a
    line [<canon length> <payload length>] followed by the canonical
    request key, the verbatim payload bytes and a newline. [<digest>] is
    the reference digest: 16 hex digits of FNV-1a over the canonical keys
    and payloads of three tiny fixed jobs, one per verb, which stands for
    the answers of the build that wrote the file. It is computed at most
    once per service, on the first dump or restore. Same cache contents,
    same bytes. *)

type restore_error =
  | Malformed of string  (** Not a well-formed dump; names what broke. *)
  | Foreign_build
      (** Written by another build: a format-1 header, another format
          version, or a reference digest this build does not reproduce.
          Nothing is restored. *)

val restore_cache : t -> string -> (int, restore_error) result
(** [restore_cache t dump] checks the header's reference digest against
    this build's before it reads any record, then re-inserts every record
    of a {!dump_cache} string into the cache, re-deriving each slot from
    the record's canonical key (so the capacity may differ from the
    dumping run's), and returns [Ok n] with the number of entries
    inserted — [0] when the cache is disabled. Hits against restored
    entries return the dumped payload bytes verbatim, preserving the
    bit-exact replay contract across restarts. [Error Foreign_build]
    restores nothing. [Error (Malformed what)] leaves in the cache
    whatever was inserted before the malformation was hit. Never raises. *)

val stats_json : t -> queue_depth:int -> string
(** The [stats] payload: requests/jobs/hits/misses/sheds/errors counters,
    cache occupancy and fill fraction, p50/p99 service time (ms) over the
    last 4096 jobs (a fixed ring, so the record never grows), current
    queue depth and pool size, as one flat JSON object. Not cached, not
    part of the determinism contract. *)

val shutdown : t -> unit
(** Stop the domain pool. Idempotent. *)
