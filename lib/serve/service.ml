module Prng = Cold_prng.Prng
module Context = Cold_context.Context
module Network = Cold_net.Network
module Par = Cold_par.Par
module P = Protocol

(* --- replay cache ------------------------------------------------------------

   A context is drawn from the job's [n] and [seed], and the design is a
   deterministic function of that context, so the canonical job names the
   whole computation. The key is FNV-1a over the canonical string (the
   hash family of Graph.fingerprint), and every hit is confirmed against
   the stored string, so a key collision can never replay the wrong
   payload. *)

let fnv_offset = 0xCBF29CE484222325L

let fnv1a h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) 0x100000001B3L
  done;
  !h

type entry = { canon : string; payload : string }

type cache = {
  cmutex : Mutex.t;
  slots : entry option array;
  mutable entries : int;
  mutable hits : int;
  mutable misses : int;
}

let cache_create slots =
  {
    cmutex = Mutex.create ();
    slots = Array.make slots None;
    entries = 0;
    hits = 0;
    misses = 0;
  }

(* The slot [canon] lives in; [None] when the cache is disabled. *)
let slot_of cache canon =
  let capacity = Array.length cache.slots in
  if capacity = 0 then None
  else
    let key = Int64.logand (fnv1a fnv_offset canon) Int64.max_int in
    Some (Int64.to_int (Int64.rem key (Int64.of_int capacity)))

let cache_find cache canon =
  let slot = slot_of cache canon in
  Mutex.protect cache.cmutex (fun () ->
      match Option.bind slot (Array.get cache.slots) with
      | Some e when String.equal e.canon canon ->
        cache.hits <- cache.hits + 1;
        Some e.payload
      | _ ->
        cache.misses <- cache.misses + 1;
        None)

let cache_store cache canon payload =
  Option.iter
    (fun slot ->
      Mutex.protect cache.cmutex (fun () ->
          if cache.slots.(slot) = None then cache.entries <- cache.entries + 1;
          cache.slots.(slot) <- Some { canon; payload }))
    (slot_of cache canon)

(* --- service state ------------------------------------------------------------ *)

(* [stats] reports service-time percentiles over the last [window] jobs,
   held in a ring, so a long-running daemon neither grows the record nor
   sorts its whole history. *)
let window = 4096

type t = {
  pool : Par.t;
  cache : cache;
  now : unit -> float;
  mutex : Mutex.t;  (* counters, service-time ring, reference digest *)
  mutable requests : int;
  mutable jobs : int;
  mutable sheds : int;
  mutable errors : int;
  times : float array;  (* seconds; job k's time sits at k mod window *)
  mutable ntimes : int;  (* jobs timed so far *)
  mutable reference : string option;  (* see [reference_digest] *)
}

let create ?(domains = 1) ?(cache_slots = 256) ?(now = fun () -> 0.) () =
  if cache_slots < 0 then
    invalid_arg "Service.create: cache_slots must be >= 0";
  {
    pool = Par.create ~domains;
    cache = cache_create cache_slots;
    now;
    mutex = Mutex.create ();
    requests = 0;
    jobs = 0;
    sheds = 0;
    errors = 0;
    times = Array.make window 0.;
    ntimes = 0;
    reference = None;
  }

let parallelism t = Par.parallelism t.pool

let locked t f = Mutex.protect t.mutex f

let note_request t = locked t (fun () -> t.requests <- t.requests + 1)
let note_shed t = locked t (fun () -> t.sheds <- t.sheds + 1)
let note_error t = locked t (fun () -> t.errors <- t.errors + 1)

let record_time t dt =
  locked t (fun () ->
      t.times.(t.ntimes mod window) <- dt;
      t.ntimes <- t.ntimes + 1)

(* --- evaluation --------------------------------------------------------------- *)

let synthesis_config (d : P.design) =
  {
    (Cold.Synthesis.default_config ~params:d.P.params ()) with
    Cold.Synthesis.ga =
      Cold.Ga.settings_for ~population:d.P.population
        ~generations:d.P.generations;
    heuristic_permutations = d.P.permutations;
    survivable = d.P.survivable;
    domains = 1;  (* request-level parallelism only: see Server *)
  }

(* Mirror Synthesis.synthesize exactly: one rng drives context generation
   and then the design, so served answers are bit-identical to CLI runs of
   the same (spec, seed). *)
let context_and_rng (d : P.design) =
  let rng = Prng.create d.P.seed in
  let ctx = Context.generate (Context.default_spec ~n:d.P.n) rng in
  (ctx, rng)

let buf_field buf ~first name value =
  if not first then Buffer.add_char buf ',';
  Buffer.add_string buf (Printf.sprintf "%S:%s" name value)

let json_of_fields fields =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (name, value) -> buf_field buf ~first:(i = 0) name value)
    fields;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let jint = string_of_int
let jfloat = P.json_float

let synth_summary (d : P.design) (net : Network.t) =
  let g = net.Network.graph in
  let s = Cold_metrics.Summary.compute g in
  let b = Cold.Cost.evaluate_breakdown d.P.params net.Network.context g in
  json_of_fields
    [
      ("verb", "\"synth\"");
      ("n", jint d.P.n);
      ("seed", jint d.P.seed);
      ("edges", jint s.Cold_metrics.Summary.edges);
      ("total_link_length", jfloat (Network.total_link_length net));
      ("cost_existence", jfloat b.Cold.Cost.existence);
      ("cost_length", jfloat b.Cold.Cost.length);
      ("cost_bandwidth", jfloat b.Cold.Cost.bandwidth);
      ("cost_hub", jfloat b.Cold.Cost.hub);
      ("cost_total", jfloat b.Cold.Cost.total);
      ("average_degree", jfloat s.Cold_metrics.Summary.average_degree);
      ("max_degree", jint s.Cold_metrics.Summary.max_degree);
      ("hubs", jint s.Cold_metrics.Summary.hubs);
      ("leaves", jint s.Cold_metrics.Summary.leaves);
      ("diameter", jint s.Cold_metrics.Summary.diameter);
      ("average_shortest_path", jfloat s.Cold_metrics.Summary.average_shortest_path);
      ("cvnd", jfloat s.Cold_metrics.Summary.cvnd);
    ]

let compute_synth (d : P.design) format =
  let cfg = synthesis_config d in
  let ctx, rng = context_and_rng d in
  let net = Cold.Synthesis.design cfg ctx rng in
  match format with
  | P.Edges -> Cold_netio.Edge_list.to_string net.Network.graph
  | P.Gml -> Cold_netio.Gml.of_network net
  | P.Summary -> synth_summary d net

let compute_ensemble (d : P.design) count =
  let cfg = synthesis_config d in
  let spec = Context.default_spec ~n:d.P.n in
  let ens = Cold.Ensemble.generate cfg spec ~count ~seed:d.P.seed in
  let mean f =
    let sum =
      Array.fold_left
        (fun acc s -> acc +. f s)
        0. ens.Cold.Ensemble.summaries
    in
    sum /. float_of_int count
  in
  json_of_fields
    [
      ("verb", "\"ensemble\"");
      ("n", jint d.P.n);
      ("seed", jint d.P.seed);
      ("count", jint count);
      ("distinct", jint (Cold.Ensemble.distinct_topologies ens));
      ( "mean_edges",
        jfloat (mean (fun s -> float_of_int s.Cold_metrics.Summary.edges)) );
      ( "mean_average_degree",
        jfloat (mean (fun s -> s.Cold_metrics.Summary.average_degree)) );
      ( "mean_diameter",
        jfloat (mean (fun s -> float_of_int s.Cold_metrics.Summary.diameter)) );
      ( "mean_aspl",
        jfloat (mean (fun s -> s.Cold_metrics.Summary.average_shortest_path)) );
    ]

let compute_survive (d : P.design) ~steps ~fseed ~rates ~canon =
  let cfg = synthesis_config d in
  let ctx, rng = context_and_rng d in
  let net = Cold.Synthesis.design cfg ctx rng in
  let trace = Cold_sim.Failure.generate ~rates ~steps ctx ~seed:fseed in
  let reports = Cold_sim.Failure.evaluate ~domains:1 net trace in
  let summary =
    Cold_sim.Failure.summarize
      (Prng.create (Prng.seed_of_string canon))
      reports
  in
  let iv (i : Cold_stats.Bootstrap.interval) = i.Cold_stats.Bootstrap.point in
  json_of_fields
    [
      ("verb", "\"survive\"");
      ("n", jint d.P.n);
      ("seed", jint d.P.seed);
      ("steps", jint steps);
      ("fseed", jint fseed);
      ("availability", jfloat (iv summary.Cold_sim.Failure.availability));
      ( "availability_lo",
        jfloat summary.Cold_sim.Failure.availability.Cold_stats.Bootstrap.lo );
      ( "availability_hi",
        jfloat summary.Cold_sim.Failure.availability.Cold_stats.Bootstrap.hi );
      ("lost_traffic", jfloat (iv summary.Cold_sim.Failure.lost_traffic));
      ("worst_delivered", jfloat summary.Cold_sim.Failure.worst_delivered);
      ("mean_stretch", jfloat summary.Cold_sim.Failure.mean_stretch);
      ( "mean_disconnected_pairs",
        jfloat summary.Cold_sim.Failure.mean_disconnected_pairs );
      ("partitioned_steps", jint summary.Cold_sim.Failure.partitioned_steps);
      ("overloaded_steps", jint summary.Cold_sim.Failure.overloaded_steps);
    ]

let compute job ~canon =
  match job with
  | P.Synth { design; format } -> compute_synth design format
  | P.Ensemble { design; count } -> compute_ensemble design count
  | P.Survive { design; steps; fseed; rates } ->
    compute_survive design ~steps ~fseed ~rates ~canon

let respond t job =
  let t0 = t.now () in
  locked t (fun () -> t.jobs <- t.jobs + 1);
  let canon = P.canonical_job job in
  let result =
    match cache_find t.cache canon with
    | Some payload -> Ok payload
    | None -> (
      match compute job ~canon with
      | payload ->
        cache_store t.cache canon payload;
        Ok payload
      | exception exn ->
        locked t (fun () -> t.errors <- t.errors + 1);
        Error (Printexc.to_string exn))
  in
  record_time t (t.now () -. t0);
  result

let handle_batch t jobs = Par.map_array t.pool (respond t) jobs

(* --- stats -------------------------------------------------------------------- *)

let cache_entries t = Mutex.protect t.cache.cmutex (fun () -> t.cache.entries)

(* --- cache persistence ---------------------------------------------------------

   A dumped cache is a deterministic function of the cache contents: a
   one-line header, then one length-prefixed record per occupied slot in
   ascending slot order. Payloads are stored verbatim, so replay from a
   reloaded cache stays bit-exact, and each record's slot is re-derived
   from its canonical string, so a restore into another capacity re-slots
   it. The header carries [reference_digest]: a file written by a build
   whose answers differ restores nothing. *)

(* Three tiny fixed jobs, one per verb. The digest of their canonical
   strings and payloads stands for the build's answers, so it is computed
   only when a dump is written or read, and at most once per service. *)
let reference_jobs =
  [ "synth ref n=6 seed=1 gens=2 pop=4 perms=1";
    "ensemble ref n=6 seed=1 gens=2 pop=4 perms=1 count=2";
    "survive ref n=6 seed=1 gens=2 pop=4 perms=1 steps=4" ]

let reference_digest t =
  locked t (fun () ->
      match t.reference with
      | Some d -> d
      | None ->
        let fold h line =
          match P.parse line with
          | Ok { P.body = P.Job job; _ } ->
            let canon = P.canonical_job job in
            fnv1a (fnv1a h canon) (compute job ~canon)
          | _ -> invalid_arg ("Service: bad reference job " ^ line)
        in
        let d =
          Printf.sprintf "%016Lx" (List.fold_left fold fnv_offset reference_jobs)
        in
        t.reference <- Some d;
        d)

let dump_cache t =
  let c = t.cache in
  let entries =
    Mutex.protect c.cmutex (fun () -> List.filter_map Fun.id (Array.to_list c.slots))
  in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "coldserve-cache 2 %s %d\n" (reference_digest t)
    (List.length entries);
  List.iter
    (fun e ->
      Printf.bprintf buf "%d %d\n%s%s\n" (String.length e.canon)
        (String.length e.payload) e.canon e.payload)
    entries;
  Buffer.contents buf

type restore_error = Malformed of string | Foreign_build

(* Internal early exit for the restore parser; never escapes
   [restore_cache]. *)
exception Restore of restore_error

let restore_cache t s =
  let bad what = raise (Restore (Malformed what)) in
  let len = String.length s in
  let pos = ref 0 in
  let restored = ref 0 in
  let line () =
    match String.index_from_opt s !pos '\n' with
    | None -> bad "truncated"
    | Some i ->
      let l = String.sub s !pos (i - !pos) in
      pos := i + 1;
      l
  in
  let length what l =
    match int_of_string_opt l with
    | Some n when n >= 0 -> n
    | _ -> bad ("bad " ^ what)
  in
  match
    let count =
      match String.split_on_char ' ' (line ()) with
      | [ "coldserve-cache"; "2"; digest; count ] ->
        if not (String.equal digest (reference_digest t)) then
          raise (Restore Foreign_build);
        length "count" count
      | "coldserve-cache" :: version :: _ when not (String.equal version "2") ->
        raise (Restore Foreign_build)
      | _ -> bad "bad header"
    in
    for _ = 1 to count do
      match String.split_on_char ' ' (line ()) with
      | [ clen; plen ] ->
        let clen = length "canon length" clen in
        let plen = length "payload length" plen in
        (* Compared without adding, so lengths near max_int cannot wrap. *)
        if clen > len - !pos || plen > len - !pos - clen - 1 then
          bad "truncated record";
        let canon = String.sub s !pos clen in
        let payload = String.sub s (!pos + clen) plen in
        pos := !pos + clen + plen;
        if s.[!pos] <> '\n' then bad "missing record terminator";
        incr pos;
        if Array.length t.cache.slots > 0 then begin
          cache_store t.cache canon payload;
          incr restored
        end
      | _ -> bad "bad record header"
    done
  with
  | () -> Ok !restored
  | exception Restore e -> Error e

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(int_of_float (q *. float_of_int (n - 1)))

let stats_json t ~queue_depth =
  let requests, jobs, sheds, errors, times =
    locked t (fun () ->
        ( t.requests,
          t.jobs,
          t.sheds,
          t.errors,
          Array.sub t.times 0 (min t.ntimes window) ))
  in
  Array.sort Float.compare times;
  let hits, misses, entries, capacity =
    let c = t.cache in
    Mutex.protect c.cmutex (fun () ->
        (c.hits, c.misses, c.entries, Array.length c.slots))
  in
  let fill =
    if capacity = 0 then 0.
    else float_of_int entries /. float_of_int capacity
  in
  json_of_fields
    [
      ("verb", "\"stats\"");
      ("requests", jint requests);
      ("jobs", jint jobs);
      ("hits", jint hits);
      ("misses", jint misses);
      ("sheds", jint sheds);
      ("errors", jint errors);
      ("cache_entries", jint entries);
      ("cache_capacity", jint capacity);
      ("cache_fill", jfloat fill);
      ("p50_ms", jfloat (1000. *. percentile times 0.50));
      ("p99_ms", jfloat (1000. *. percentile times 0.99));
      ("queue_depth", jint queue_depth);
      ("domains", jint (parallelism t));
    ]

let shutdown t = Par.shutdown t.pool
