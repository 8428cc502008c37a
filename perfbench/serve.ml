(* serve-mix: the cold_serve daemon in-process on loopback with two
   domains and the default queue, batch and cache, driven by one client in
   the same process over at most two connections.

   Phases, all on [synth] requests with n = 20 at the serve defaults:
   - warm: a few first-time seeds, closed loop, so repeats have targets;
   - open loop: Poisson arrivals at a fixed rate, one first-time seed for
     every three repeats; a repeat names one of the most recent answered
     first-time seeds, a working set far below the 256-slot cache. Each
     latency runs from the request's due time to its last payload byte;
   - closed loop: two connections send new seeds back to back, each with a
     batch's worth in flight; the completions per second are the miss
     capacity.
   Then [stats] must show an empty queue, and [drain] ends the daemon. *)

module P = Cold_serve.Protocol
module Server = Cold_serve.Server
module Service = Cold_serve.Service
module Context = Cold_context.Context
module Network = Cold_net.Network
module Prng = Cold_prng.Prng
module Dist = Cold_prng.Dist
module Cost = Cold.Cost
module Ga = Cold.Ga

let n ~tiny = if tiny then 8 else 20
let domains = 2
let warm_seeds = 8
let working_set = 16

(* A first-time seed joins the working set this long after it was due,
   well past any miss latency seen at the open-loop rate. *)
let repeat_lag = 1.0

(* First-time requests per second in the open loop; repeats come at three
   times this rate. A lone miss takes about 0.18 s on a 2-core machine, so
   at 2/s the scheduler is busy about a third of the time: the hit p50 is
   a hit answered at once, the hit p90 one that waited behind a miss. At
   twice this rate the hit median sits on the boundary between the two and
   jumps between 0.5 and 40 ms from seed to seed. The closed loop measures
   a miss capacity of 7.5-11/s, so this is about a fifth of it. *)
let miss_rate ~tiny = if tiny then 20.0 else 2.0

(* A generator running later than this at p99 makes the run invalid. *)
let late_bound_ms = 50.0

let open_share = 0.5

(* Requests each connection keeps in flight in the closed loop. The
   scheduler takes whatever is queued, up to a batch, and answers the batch
   when its slowest job ends. With one request per connection it settles
   into batches of one job or of two, whichever the start makes, and the
   rate jumps between the two from run to run. With a batch's worth on
   each connection, a full batch is queued whenever one ends. *)
let capacity_depth = Server.default_config.Server.batch

(* Answers to one batch reach the client within this much of each other;
   a full batch of n = 20 jobs takes over half a second on two domains. *)
let batch_gap = 0.1

type kind = Warm | First | Repeat | Closed

type request = {
  id : string;
  seed : int;
  kind : kind;
  mutable due : float;
  mutable sent : float;
  mutable received : float;
  mutable answer : (string, string) result option;
}

let line ~tiny r = Printf.sprintf "synth %s n=%d seed=%d" r.id (n ~tiny) r.seed

(* --- client ------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; mutable rbuf : string }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; rbuf = "" }

let send c s =
  let b = Bytes.of_string (s ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* Complete frames in the buffer: [ok <id> <len>\n<payload>] or
   [err <id> <code> <message>\n]. *)
let rec frames c acc =
  match String.index_opt c.rbuf '\n' with
  | None -> List.rev acc
  | Some i -> (
    let header = String.sub c.rbuf 0 i in
    let rest off =
      String.sub c.rbuf off (String.length c.rbuf - off)
    in
    match String.split_on_char ' ' header with
    | [ "ok"; id; len ] ->
      let len = int_of_string len in
      if String.length c.rbuf < i + 1 + len then List.rev acc
      else begin
        let payload = String.sub c.rbuf (i + 1) len in
        c.rbuf <- rest (i + 1 + len);
        frames c ((id, Ok payload) :: acc)
      end
    | "err" :: id :: _ ->
      c.rbuf <- rest (i + 1);
      frames c ((id, Error header) :: acc)
    | _ -> failwith (Printf.sprintf "malformed frame %S" header))

let chunk = Bytes.create 65536

(* Wait up to [timeout] for data on any connection; return the frames
   completed, with the time they were read. *)
let pump conns timeout =
  match Unix.select (List.map (fun c -> c.fd) conns) [] [] timeout with
  | ready, _, _ ->
    let got =
      List.concat_map
        (fun c ->
          if not (List.mem c.fd ready) then []
          else
            match Unix.read c.fd chunk 0 (Bytes.length chunk) with
            | 0 -> failwith "daemon closed the connection"
            | k ->
              c.rbuf <- c.rbuf ^ Bytes.sub_string chunk 0 k;
              List.map (fun f -> (c, f)) (frames c []))
        conns
    in
    (got, Trace.now ())
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], Trace.now ())

let rec await c =
  match pump [ c ] 1.0 with
  | (_, f) :: _, _ -> f
  | [], _ -> await c

(* --- daemon ------------------------------------------------------------ *)

type daemon = {
  server : Server.t;
  runner : unit Domain.t;
  a : conn;
  b : conn;
}

(* Everything before the first operation: the daemon bound and running,
   its domains started, both connections open and a ping answered. *)
let start () =
  match Server.create { Server.default_config with Server.domains } with
  | Error msg -> failwith ("cannot start cold_serve: " ^ msg)
  | Ok server ->
    let runner = Domain.spawn (fun () -> Server.run server) in
    let a = connect (Server.port server) in
    let b = connect (Server.port server) in
    send a "ping setup";
    (match await a with
    | "setup", Ok "pong\n" -> ()
    | _ -> failwith "unexpected answer to ping");
    { server; runner; a; b }

let stop d =
  send d.a "drain end";
  ignore (await d.a);
  Domain.join d.runner;
  Unix.close d.a.fd;
  Unix.close d.b.fd

let setup_only () =
  let d = start () in
  fun () -> stop d

(* --- phases ------------------------------------------------------------ *)

let record table (_, (id, answer)) t =
  match Hashtbl.find_opt table id with
  | Some r ->
    r.received <- t;
    r.answer <- Some answer
  | None -> failwith (Printf.sprintf "answer for unknown request %S" id)

(* Closed loop: each connection keeps [depth] requests in flight, sending
   the next as soon as one is answered, until [more] says stop. *)
let closed_loop ~tiny ~depth table conns ~next ~more =
  let outstanding = ref 0 in
  let send_next c =
    let r = next () in
    Hashtbl.replace table r.id r;
    r.due <- Trace.now ();
    r.sent <- r.due;
    send c (line ~tiny r);
    incr outstanding
  in
  List.iter
    (fun c ->
      for _ = 1 to depth do
        if more () then send_next c
      done)
    conns;
  let give_up = Trace.now () +. 60.0 in
  while !outstanding > 0 && Trace.now () < give_up do
    let got, t = pump conns 0.05 in
    List.iter
      (fun ((c, _) as f) ->
        record table f t;
        decr outstanding;
        if more () then send_next c)
      got
  done

(* Open loop: send each request at its due time, whatever is in flight. *)
let open_loop ~tiny table c schedule =
  let t0 = Trace.now () +. 0.01 in
  Array.iter (fun r -> r.due <- t0 +. r.due) schedule;
  let next = ref 0 and outstanding = ref 0 in
  let count = Array.length schedule in
  let give_up = ref infinity in
  while (!next < count || !outstanding > 0) && Trace.now () < !give_up do
    let wait =
      if !next < count then schedule.(!next).due -. Trace.now () else 0.05
    in
    let got, t = pump [ c ] (Float.max 0.0 (Float.min 0.05 wait)) in
    List.iter
      (fun f ->
        record table f t;
        decr outstanding)
      got;
    while !next < count && Trace.now () >= schedule.(!next).due do
      let r = schedule.(!next) in
      Hashtbl.replace table r.id r;
      r.sent <- Trace.now ();
      send c (line ~tiny r);
      incr outstanding;
      incr next
    done;
    if !next = count && !give_up = infinity then give_up := Trace.now () +. 60.0
  done

(* The open-loop arrivals, drawn from the workload seed: due times
   relative to the phase start, and for each whether it is a first-time
   seed or a repeat of a recent one. *)
let schedule ~tiny ~seconds ~fresh ~warm rng =
  let rate = 4.0 *. miss_rate ~tiny in
  let firsts = ref (List.rev_map (fun s -> (neg_infinity, s)) warm) in
  let out = ref [] and t = ref 0.0 and k = ref 0 in
  let request kind seed due =
    incr k;
    { id = Printf.sprintf "o%d" !k; seed; kind; due; sent = 0.0; received = 0.0;
      answer = None }
  in
  t := !t +. Dist.exponential rng ~mean:(1.0 /. rate);
  while !t < seconds do
    (if Prng.int rng 4 = 0 then begin
       let s = fresh () in
       firsts := (!t, s) :: !firsts;
       out := request First s !t :: !out
     end
     else begin
       let eligible =
         List.filter (fun (due, _) -> due <= !t -. repeat_lag) !firsts
         |> List.filteri (fun i _ -> i < working_set)
       in
       let _, s = List.nth eligible (Prng.int rng (List.length eligible)) in
       out := request Repeat s !t :: !out
     end);
    t := !t +. Dist.exponential rng ~mean:(1.0 /. rate)
  done;
  Array.of_list (List.rev !out)

let contains s sub =
  let k = String.length sub in
  let rec at i = i + k <= String.length s && (String.sub s i k = sub || at (i + 1)) in
  at 0

(* [stats] counters, read from the flat JSON payload. *)
let stat payload key =
  let pat = Printf.sprintf "\"%s\":" key in
  let rec find i =
    if i + String.length pat > String.length payload then
      failwith ("stats has no " ^ key)
    else if String.sub payload i (String.length pat) = pat then
      Scanf.sscanf
        (String.sub payload (i + String.length pat)
           (String.length payload - i - String.length pat))
        "%f" Fun.id
    else find (i + 1)
  in
  find 0

type outcome = {
  requests : request list;  (** Every request, in send order. *)
  capacity : float;  (** Closed-loop completions per second. *)
  stats : string;  (** The final [stats] payload. *)
}

let latencies requests kind =
  List.filter_map
    (fun r ->
      if r.kind = kind && r.answer <> None then Some (1e3 *. (r.received -. r.due))
      else None)
    requests

let percentile_line name xs =
  Printf.sprintf "%s p50 %.3f ms, p90 %.3f ms (%d samples%s)" name
    (Stats.percentile xs 0.5) (Stats.percentile xs 0.9) (List.length xs)
    (if Stats.supports xs 0.9 then "" else "; too few for p90")

(* Closed-loop completions per second. Every batch is full but perhaps the
   first, which the scheduler may start on the first request queued, so
   the rate runs from the first answers to the last. *)
let capacity ~start closed =
  match List.sort Float.compare (List.map (fun q -> q.received) closed) with
  | [] -> 0.0
  | first :: _ as times -> (
    let last = List.fold_left Float.max first times in
    match List.filter (fun t -> t > first +. batch_gap) times with
    | [] -> float_of_int (List.length times) /. (last -. start)
    | later -> float_of_int (List.length later) /. (last -. first))

let drive (r : Workload.run) =
  let tiny = r.Workload.tiny in
  let fresh = Workload.distinct_seeds ~stream:2 r.Workload.seed in
  let rng = Prng.split_at (Prng.create r.Workload.seed) 3 in
  let table = Hashtbl.create 1024 in
  let d = start () in
  let made = ref 0 in
  let new_request kind prefix =
    incr made;
    { id = Printf.sprintf "%s%d" prefix !made; seed = fresh (); kind; due = 0.0;
      sent = 0.0; received = 0.0; answer = None }
  in
  let conns = [ d.a; d.b ] in
  let warm = ref [] in
  closed_loop ~tiny ~depth:1 table conns
    ~next:(fun () ->
      let q = new_request Warm "w" in
      warm := q.seed :: !warm;
      q)
    ~more:(fun () -> List.length !warm < warm_seeds);
  let open_s = open_share *. r.Workload.seconds in
  let plan = schedule ~tiny ~seconds:open_s ~fresh ~warm:(List.rev !warm) rng in
  open_loop ~tiny table d.a plan;
  let closed_start = Trace.now () in
  let closed_end = closed_start +. ((1.0 -. open_share) *. r.Workload.seconds) in
  closed_loop ~tiny ~depth:capacity_depth table conns
    ~next:(fun () -> new_request Closed "c")
    ~more:(fun () -> Trace.now () < closed_end);
  let closed =
    Hashtbl.fold
      (fun _ q acc -> if q.kind = Closed && q.answer <> None then q :: acc else acc)
      table []
  in
  let capacity = capacity ~start:closed_start closed in
  Printf.printf "closed loop: %d misses in %.2f s; %.4f/s after the first batch\n"
    (List.length closed) (Trace.now () -. closed_start) capacity;
  send d.a "stats end";
  let stats =
    match await d.a with
    | "end", Ok payload -> payload
    | _ -> failwith "unexpected answer to stats"
  in
  stop d;
  let requests =
    Hashtbl.fold (fun _ q acc -> q :: acc) table []
    |> List.sort (fun x y -> Float.compare x.sent y.sent)
  in
  { requests; capacity; stats }

(* Every request answered [ok]; every repeat byte-identical to its seed's
   first answer; first answers well-formed and, for the default seed,
   equal to the pinned digests; no backlog at the end; the generator on
   time. *)
let check (r : Workload.run) o =
  let first = Hashtbl.create 256 in
  List.iteri
    (fun op q ->
      Outcome.attempt ();
      match q.answer with
      | None -> Outcome.fail ~op "request %s unanswered at drain" q.id
      | Some (Error frame) -> Outcome.fail ~op "request %s: %s" q.id frame
      | Some (Ok payload) -> (
        match Hashtbl.find_opt first q.seed with
        | Some original ->
          Outcome.check ~op (String.equal payload original)
            "repeat of seed %d differs from its first answer" q.seed
        | None ->
          Outcome.check ~op (q.kind <> Repeat) "repeat %s came first" q.id;
          Hashtbl.add first q.seed payload;
          Outcome.check ~op
            (contains payload
               (Printf.sprintf "\"n\":%d,\"seed\":%d," (n ~tiny:r.Workload.tiny)
                  q.seed))
            "answer to %s is not its synth" q.id))
    o.requests;
  if stat o.stats "queue_depth" <> 0.0 then
    Outcome.invalidate "stats reports a queue depth of %g at the end"
      (stat o.stats "queue_depth");
  let late =
    Stats.percentile
      (List.filter_map
         (fun q ->
           if q.kind = First || q.kind = Repeat then Some (1e3 *. (q.sent -. q.due))
           else None)
         o.requests)
      0.99
  in
  if late > late_bound_ms then
    Outcome.invalidate "load generator ran %.1f ms late at p99 (bound %.0f ms)"
      late late_bound_ms;
  let misses = latencies o.requests First and hits = latencies o.requests Repeat in
  print_endline (percentile_line "miss latency" misses);
  print_endline (percentile_line "hit latency" hits);
  Printf.printf "generator late p99 %.3f ms\n" late;
  Printf.printf "stats: %s" o.stats;
  Outcome.pinned ~check:r.Workload.pinned Pins.serve
    (List.concat
       (List.mapi
          (fun op q ->
            match (q.kind, q.answer) with
            | (Warm | First), Some (Ok p) -> [ (op, Outcome.digest p) ]
            | _ -> [])
          o.requests));
  (misses, hits, late)

let run (r : Workload.run) =
  let o = drive r in
  ignore (check r o);
  Outcome.emit
    [ ("networks_per_s", o.capacity); ("peak_rss_mb", Outcome.peak_rss_mb ()) ]

(* --- traced replay ------------------------------------------------------ *)

(* The design a miss runs inside [Service.respond]: the serve defaults
   (gens 20, pop 16, perms 2) on one domain. *)
let pipeline ~tiny =
  let d =
    match P.parse (Printf.sprintf "synth defaults n=%d seed=0" (n ~tiny)) with
    | Ok { P.body = P.Job (P.Synth { design; _ }); _ } -> design
    | _ -> failwith "the serve codec rejected a default synth request"
  in
  let pop = d.P.population in
  let saved = max 1 (pop / 5) and crossover = max 1 (pop / 2) in
  {
    Design.spec = Context.default_spec ~n:(n ~tiny);
    ga =
      {
        Ga.default_settings with
        Ga.population_size = pop;
        generations = d.P.generations;
        num_saved = saved;
        num_crossover = crossover;
        num_mutation = max 0 (pop - saved - crossover);
      };
    permutations = Some d.P.permutations;
    domains = 1;
  }

(* Misses whose layers are probed one by one. *)
let probed = 3

(* Replay the warm and open-loop requests in send order through
   [Protocol.parse] and [Service.respond] on a fresh in-process service. *)
let replay ~tiny ~traced requests =
  let svc = Service.create ~domains:1 () in
  let answers =
    List.mapi
      (fun op q ->
        let parse () = P.parse (line ~tiny q) in
        let env =
          if traced then Trace.span ~op "serve.parse" parse else parse ()
        in
        match env with
        | Ok { P.body = P.Job job; _ } ->
          let respond () = Service.respond svc job in
          if traced then Trace.span ~op "serve.respond" respond else respond ()
        | Ok _ -> Error "not a job"
        | Error (_, msg) -> Error msg)
      requests
  in
  Service.shutdown svc;
  answers

let trace (r : Workload.run) =
  let tiny = r.Workload.tiny in
  let o = drive r in
  let misses, hits, late = check r o in
  (* Operation ids are indices into [o.requests], as in [check]. *)
  let replayed =
    List.filteri (fun _ (_, q) -> q.kind <> Closed)
      (List.mapi (fun op q -> (op, q)) o.requests)
  in
  let requests = List.map snd replayed in
  let (_ : (string, string) result list), plain_s =
    Stats.timed (fun () -> replay ~tiny ~traced:false requests)
  in
  let answers, traced_s = Stats.timed (fun () -> replay ~tiny ~traced:true requests) in
  List.iter2
    (fun (op, q) answer ->
      Outcome.check ~op
        (match (q.answer, answer) with
        | Some (Ok served), Ok again -> String.equal served again
        | _ -> false)
        "in-process replay of %s differs from the served answer" q.id)
    replayed answers;
  let respond kinds scale =
    List.concat
      (List.mapi
         (fun i q ->
           if List.mem q.kind kinds then
             [ scale *. Trace.op_duration ~op:i "serve.respond" ]
           else [])
         requests)
  in
  let respond_miss = respond [ Warm; First ] 1e3 in
  let respond_hit = respond [ Repeat ] 1e6 in
  let covered = Trace.total "serve.parse" +. Trace.total "serve.respond" in
  (* The design inside the first few misses, through the public layers. *)
  let p = pipeline ~tiny in
  let params = Cost.params () in
  let first_misses =
    List.filter (fun (_, q) -> q.kind = Warm || q.kind = First) replayed
    |> List.filteri (fun i _ -> i < probed)
  in
  let probes =
    List.mapi
      (fun i (op, q) ->
        let id = List.length requests + i in
        let d = Design.replay p ~op:id params (Prng.create q.seed) in
        let net =
          Trace.span ~op:id "build.network" (fun () ->
              Network.build ~policy:Cold_net.Capacity.default d.Design.ctx
                d.Design.result.Ga.best)
        in
        let total =
          (Cost.evaluate_breakdown params d.Design.ctx net.Network.graph).Cost.total
        in
        let served = match q.answer with Some (Ok s) -> s | _ -> "" in
        Outcome.check ~op
          (contains served (Printf.sprintf "\"cost_total\":%s," (P.json_float total)))
          "layer replay of %s differs from the served cost" q.id;
        Design.probe p ~op d ~ga_s:(Trace.op_duration ~op:id "ga.run"))
      first_misses
  in
  let mean = Workload.mean_span in
  let design_s =
    List.fold_left
      (fun s name -> s +. Trace.total name)
      0.0
      [ "context.generate"; "seed.seed_set"; "ga.run"; "build.network" ]
  in
  let miss_p50 = Stats.median misses and hit_p50 = Stats.median hits in
  Workload.emit_layers ~off_path:[]
    ([
       ("context.generate_ms", 1e3 *. mean "context.generate");
       ("seed.seed_set_s", mean "seed.seed_set");
       ("seed.share", Trace.total "seed.seed_set" /. design_s);
       ("ga.run_s", mean "ga.run");
       ("build.network_ms", 1e3 *. mean "build.network");
       ("serve.parse_us", 1e6 *. mean "serve.parse");
       ("serve.respond_miss_ms", Stats.median respond_miss);
       ("serve.respond_hit_us", Stats.median respond_hit);
       ("serve.miss_wait_p50_ms", miss_p50 -. Stats.median respond_miss);
       ("serve.hit_wait_p50_ms", hit_p50 -. (Stats.median respond_hit /. 1e3));
       ("serve.miss_p50_ms", miss_p50);
       ("serve.miss_p90_ms", Stats.percentile misses 0.9);
       ("serve.hit_p50_ms", hit_p50);
       ("serve.hit_p90_ms", Stats.percentile hits 0.9);
       ("serve.hits", stat o.stats "hits");
       ("serve.misses", stat o.stats "misses");
       ("serve.sheds", stat o.stats "sheds");
       ("serve.errors", stat o.stats "errors");
       ("serve.queue_depth_end", stat o.stats "queue_depth");
       ("loadgen.late_p99_ms", late);
       ("trace.overhead", (traced_s /. plain_s) -. 1.0);
       ("trace.coverage", covered /. traced_s);
     ]
    @ Workload.average probes)
