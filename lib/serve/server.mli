(** The [cold_serve] daemon: a TCP accept loop, a bounded admission queue
    and a scheduler domain feeding the {!Service} evaluation pool.

    {b Architecture.} The accept loop ([run]'s own domain) multiplexes the
    listening socket and every client connection with [Unix.select],
    assembles request lines, and answers the cheap verbs ([ping], [stats],
    [drain]) plus every error inline. Compute jobs ([synth], [ensemble],
    [survive]) are admitted to a bounded FIFO; a dedicated scheduler
    domain drains it in batches, fans each batch over the service's
    {!Cold_par.Par} pool, and writes the responses. Responses to one
    connection are serialized by a per-connection lock, so frames never
    interleave.

    {b Backpressure.} Admission is the only queue: when it holds
    [queue_capacity] jobs, further jobs are answered immediately and
    deterministically with [err <id> shed …] — the client knows within one
    round trip, nothing blocks, and the daemon's memory is bounded. A job
    that waited longer than its [deadline_ms] budget is answered
    [err <id> deadline …] at dequeue time instead of being evaluated.

    {b Drain.} A [drain] request — or SIGTERM once {!install_sigterm} is
    on — stops admission: the listener closes, queued jobs finish and are
    answered, new jobs get [err … draining], and {!run} returns after the
    scheduler exits. Nothing in flight is dropped.

    No exception escapes the accept loop: parse failures, validation
    failures, evaluation failures and peer disconnects are all turned
    into error frames or connection teardown. *)

type config = {
  port : int;  (** 0–65535; [0] picks an ephemeral port; see {!port}. *)
  domains : int;  (** Evaluation streams; [0] autodetects, default 1. *)
  queue_capacity : int;
      (** Admission bound, ≥ 0; default 64, [0] sheds every job. *)
  batch : int;  (** Max jobs per scheduler batch, ≥ 1; default 8. *)
  cache_slots : int;  (** Replay-cache slots; default 256, [0] disables. *)
  max_line : int;  (** Request-line byte budget, ≥ 1; default 4096. *)
  cache_file : string option;
      (** Replay-cache persistence (default [None]): {!create} reloads the
          file if it exists, is well-formed and carries this build's
          reference digest ({!Service.restore_cache}; a file written by
          another build restores nothing), and {!run} dumps the cache to
          it — write-then-rename, so the previous dump is never truncated
          — after draining. Best-effort on both ends: a missing, corrupt,
          foreign or unwritable file never stops the daemon; the cache is
          a warm-start hint, every entry is re-derivable. Replayed hits
          return the dumped bytes verbatim, so restart replay stays
          bit-exact. The reference digest is computed only when a file is
          read or written, never without a [cache_file]. *)
}

val default_config : config

type t

val create : config -> (t, string) result
(** Bind and listen on [127.0.0.1:port]. [Error msg] naming the field if a
    config value is out of range (negative [domains], [queue_capacity] or
    [cache_slots], [batch] or [max_line] below 1, [port] outside 0–65535),
    checked before any socket is created; [Error msg] if the socket cannot
    be bound (port in use, permissions). *)

val port : t -> int
(** The bound port — the ephemeral one the kernel chose when
    [config.port = 0]. *)

val request_drain : t -> unit
(** Flip the drain flag from any domain or signal handler; the accept
    loop notices on its next tick. Idempotent. *)

val install_sigterm : t -> unit
(** Route SIGTERM (and SIGINT) to {!request_drain}. Call from
    [bin/cold_serve] only — tests drive drain over the wire instead. *)

val run : t -> unit
(** Serve until drained, then release every socket and the evaluation
    pool. Blocks the calling domain; spawn it on its own domain to run a
    client in the same process. *)
