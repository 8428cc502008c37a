(* Tests for the cold_serve daemon stack: the pure Protocol codec, the
   Service determinism/replay contract, and wire-level robustness of the
   Server accept loop over a loopback ephemeral port. *)

module P = Cold_serve.Protocol
module Service = Cold_serve.Service
module Server = Cold_serve.Server

(* --- protocol codec (pure, no daemon) ---------------------------------------- *)

let parse_ok line =
  match P.parse line with
  | Ok env -> env
  | Error (_, msg) -> Alcotest.failf "parse %S failed: %s" line msg

let parse_err line =
  match P.parse line with
  | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" line
  | Error (id, msg) -> (id, msg)

let test_parse_basics () =
  let env = parse_ok "ping p1" in
  Alcotest.(check string) "id echoed" "p1" env.P.id;
  Alcotest.(check bool) "ping body" true (env.P.body = P.Ping);
  Alcotest.(check bool) "stats body" true
    ((parse_ok "stats s1").P.body = P.Stats);
  Alcotest.(check bool) "drain body" true
    ((parse_ok "drain d1").P.body = P.Drain);
  (* Whitespace runs and tabs are token separators; CR handling lives in
     the server's line splitter. *)
  let env = parse_ok "synth  j1\tn=12  seed=7" in
  (match env.P.body with
  | P.Job (P.Synth { design; format }) ->
    Alcotest.(check int) "n" 12 design.P.n;
    Alcotest.(check int) "seed" 7 design.P.seed;
    Alcotest.(check int) "default gens" 20 design.P.generations;
    Alcotest.(check bool) "default format" true (format = P.Summary)
  | _ -> Alcotest.fail "expected synth job");
  let env = parse_ok "synth j2 n=12 seed=7 deadline_ms=250" in
  Alcotest.(check (option int)) "deadline" (Some 250) env.P.deadline_ms

let test_parse_rejections () =
  let msg_of line = snd (parse_err line) in
  Alcotest.(check string) "lonely verb" "missing request id"
    (msg_of "garbage");
  (* The id is echoed once the line got far enough to contain one. *)
  Alcotest.(check string) "typo key carries id" "j1"
    (fst (parse_err "synth j1 n=12 seed=7 stepz=5"));
  Alcotest.(check bool) "unknown key named" true
    (let msg = msg_of "synth j1 n=12 seed=7 stepz=5" in
     String.length msg > 0 && msg <> "");
  Alcotest.(check string) "missing seed" "missing required seed="
    (msg_of "synth j1 n=12");
  Alcotest.(check string) "n out of range" "n out of range [2, 2000]"
    (msg_of "synth j1 n=99999 seed=7");
  Alcotest.(check string) "bad number" "n is not an integer"
    (msg_of "synth j1 n=twelve seed=7");
  Alcotest.(check bool) "unknown format" true
    (String.length (msg_of "synth j1 n=12 seed=7 format=dot") > 0);
  Alcotest.(check bool) "bare token is not key=value" true
    (msg_of "synth j1 n=12 seed=7 fast" = "parameters must be key=value tokens");
  Alcotest.(check bool) "oversized id rejected" true
    (let id = String.make 65 'a' in
     fst (parse_err ("ping " ^ id)) = "-");
  Alcotest.(check bool) "unknown verb" true
    (String.length (msg_of "frobnicate x1") > 0)

let test_canonical_job () =
  let job line =
    match (parse_ok line).P.body with
    | P.Job j -> j
    | _ -> Alcotest.fail "expected a job"
  in
  (* Key order and default-vs-explicit spelling do not change identity. *)
  let a = job "synth j1 seed=7 n=12" in
  let b = job "synth j2 n=12 seed=7 gens=20 pop=16 perms=2 survivable=0" in
  Alcotest.(check string) "defaults canonicalize" (P.canonical_job a)
    (P.canonical_job b);
  (* A different parameter is a different identity. *)
  let c = job "synth j3 n=12 seed=7 gens=21" in
  Alcotest.(check bool) "distinct budgets distinct" false
    (String.equal (P.canonical_job a) (P.canonical_job c));
  (* Float spellings that denote the same double canonicalize together. *)
  let d = job "synth j4 n=12 seed=7 k2=1e-4" in
  let e = job "synth j5 n=12 seed=7 k2=0.0001" in
  Alcotest.(check string) "float spellings" (P.canonical_job d)
    (P.canonical_job e)

let test_framing () =
  Alcotest.(check string) "ok frame" "ok j1 5\npong\n"
    (P.frame_ok ~id:"j1" "pong\n");
  Alcotest.(check string) "err frame is one line" "err j1 parse a b\n"
    (P.frame_err ~id:"j1" ~code:"parse" "a\nb");
  Alcotest.(check string) "json integer float" "3.0" (P.json_float 3.0);
  Alcotest.(check string) "json short float" "0.1" (P.json_float 0.1);
  let x = 0.1 +. 0.2 in
  Alcotest.(check bool) "json float round-trips" true
    (Float.equal (float_of_string (P.json_float x)) x)

(* --- service determinism (no sockets) ---------------------------------------- *)

let synth_job ?(format = P.Edges) ?(n = 12) ?(seed = 7) () =
  match P.parse (Printf.sprintf "synth j n=%d seed=%d gens=5 pop=8 perms=1 format=%s"
                   n seed (P.format_name format))
  with
  | Ok { P.body = P.Job j; _ } -> j
  | _ -> Alcotest.fail "bad fixture line"

let respond_exn svc job =
  match Service.respond svc job with
  | Ok payload -> payload
  | Error msg -> Alcotest.failf "respond failed: %s" msg

let test_service_replay_across_domains () =
  (* Acceptance criterion: bit-identical payloads cold, cached, and after a
     restart, at every pool size. *)
  let reference = ref None in
  List.iter
    (fun domains ->
      let svc = Service.create ~domains ~cache_slots:64 () in
      Fun.protect
        ~finally:(fun () -> Service.shutdown svc)
        (fun () ->
          let job = synth_job () in
          let cold = respond_exn svc job in
          let cached = respond_exn svc job in
          Alcotest.(check string)
            (Printf.sprintf "cached identical at %d domains" domains)
            cold cached;
          (match !reference with
          | None -> reference := Some cold
          | Some r ->
            Alcotest.(check string)
              (Printf.sprintf "domains=%d matches domains=1" domains)
              r cold);
          (* A fresh service is a restart: no cache, same bytes. *)
          let svc2 = Service.create ~domains ~cache_slots:64 () in
          Fun.protect
            ~finally:(fun () -> Service.shutdown svc2)
            (fun () ->
              Alcotest.(check string)
                (Printf.sprintf "restart identical at %d domains" domains)
                cold (respond_exn svc2 job))))
    [ 1; 2; 4; 8 ]

(* The value of [name] in a service's flat stats JSON. *)
let stats_field svc name =
  let stats = Service.stats_json svc ~queue_depth:0 in
  let pat = Printf.sprintf "%S:" name in
  let rec find i =
    if i + String.length pat > String.length stats then
      Alcotest.failf "stats missing %s in %s" name stats
    else if String.sub stats i (String.length pat) = pat then i + String.length pat
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while not (String.contains ",}" stats.[!stop]) do
    incr stop
  done;
  String.sub stats start (!stop - start)

let with_service ?(cache_slots = 64) ?now f =
  let svc = Service.create ~domains:1 ~cache_slots ?now () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> f svc)

let test_service_formats_and_cache () =
  with_service (fun svc ->
      let edges = respond_exn svc (synth_job ~format:P.Edges ()) in
      let gml = respond_exn svc (synth_job ~format:P.Gml ()) in
      let summary = respond_exn svc (synth_job ~format:P.Summary ()) in
      Alcotest.(check bool) "edges non-empty" true (String.length edges > 0);
      Alcotest.(check bool) "gml tagged" true
        (String.length gml > 5 && String.sub gml 0 5 = "graph");
      Alcotest.(check bool) "summary is json" true (summary.[0] = '{');
      (* Three formats of the same design are three cache entries. *)
      Alcotest.(check int) "entries" 3 (Service.cache_entries svc);
      ignore (respond_exn svc (synth_job ~format:P.Edges ()));
      Alcotest.(check string) "stats counts a hit" "1" (stats_field svc "hits"))

(* p50/p99 cover the last 4096 jobs only: 904 one-second jobs, then 4096
   jobs of 2^-10 s each, timed by a clock that advances one step per read. *)
let test_stats_window () =
  let clock = ref 0. and step = ref 1. in
  let now () =
    let c = !clock in
    clock := c +. !step;
    c
  in
  with_service ~now (fun svc ->
      let run k =
        for _ = 1 to k do
          ignore (respond_exn svc (synth_job ~n:4 ()))
        done
      in
      run 904;
      step := 0x1p-10;
      run 100;
      Alcotest.(check string) "slow jobs inside the window" "1000.0"
        (stats_field svc "p99_ms");
      run 3996;
      Alcotest.(check string) "jobs" "5000" (stats_field svc "jobs");
      Alcotest.(check string) "p50 over the window" "0.9765625"
        (stats_field svc "p50_ms");
      Alcotest.(check string) "p99 over the window" "0.9765625"
        (stats_field svc "p99_ms"))

(* --- cache persistence --------------------------------------------------------- *)

let job_of line =
  match P.parse line with
  | Ok { P.body = P.Job j; _ } -> j
  | _ -> Alcotest.failf "bad fixture line %S" line

(* One job per verb, each computed in milliseconds. *)
let dumped_jobs =
  List.map job_of
    [ "synth j n=8 seed=3 gens=3 pop=4 perms=1 format=edges";
      "synth j n=8 seed=3 gens=3 pop=4 perms=1 format=gml";
      "ensemble j n=6 seed=4 gens=2 pop=4 perms=1 count=2";
      "survive j n=6 seed=5 gens=2 pop=4 perms=1 steps=3" ]

(* The dump of a 64-slot service that computed [jobs], and their payloads. *)
let dump_of jobs =
  with_service (fun svc ->
      let payloads = List.map (respond_exn svc) jobs in
      Alcotest.(check int) "one slot per job" (List.length jobs)
        (Service.cache_entries svc);
      (Service.dump_cache svc, payloads))

(* The header line of [dump] with its record count set to [k]. *)
let header_of dump k =
  let line = List.hd (String.split_on_char '\n' dump) in
  Printf.sprintf "%s %d\n" (String.sub line 0 (String.rindex line ' ')) k

(* Records whose lengths sum past max_int, so [clen + plen + 1] wraps. *)
let overflow_records =
  [ Printf.sprintf "%d 1\nxx\n" max_int; Printf.sprintf "1 %d\nxx\n" max_int ]

let test_restore_other_capacity () =
  let dump, payloads = dump_of dumped_jobs in
  with_service ~cache_slots:1021 (fun svc ->
      (match Service.restore_cache svc dump with
       | Ok k -> Alcotest.(check int) "restored" (List.length dumped_jobs) k
       | Error _ -> Alcotest.fail "refused a dump of its own build");
      List.iter2
        (fun job payload ->
          Alcotest.(check string) "dumped bytes" payload (respond_exn svc job))
        dumped_jobs payloads;
      Alcotest.(check string) "every job a hit" "4" (stats_field svc "hits");
      Alcotest.(check string) "no miss" "0" (stats_field svc "misses"))

(* A file from another build restores nothing; its jobs compute as misses,
   to the bytes this build produces. *)
let check_foreign what dump payloads =
  with_service (fun svc ->
      (match Service.restore_cache svc dump with
       | Error Service.Foreign_build -> ()
       | Ok k -> Alcotest.failf "%s: restored %d entries" what k
       | Error (Service.Malformed m) -> Alcotest.failf "%s: malformed (%s)" what m);
      Alcotest.(check int) (what ^ ": nothing restored") 0
        (Service.cache_entries svc);
      List.iter2
        (fun job payload ->
          Alcotest.(check string) (what ^ ": recomputed bytes") payload
            (respond_exn svc job))
        dumped_jobs payloads;
      Alcotest.(check string) (what ^ ": no hit") "0" (stats_field svc "hits"))

let test_restore_tampered_digest () =
  let dump, payloads = dump_of dumped_jobs in
  let i = String.length "coldserve-cache 2 " in
  let tampered =
    String.mapi (fun j c -> if j <> i then c else if c = '0' then '1' else '0') dump
  in
  check_foreign "tampered digest" tampered payloads

let test_restore_version_1 () =
  let _, payloads = dump_of dumped_jobs in
  let v1 = Buffer.create 1024 in
  Printf.bprintf v1 "coldserve-cache 1 %d\n" (List.length dumped_jobs);
  List.iteri
    (fun i job ->
      let canon = P.canonical_job job in
      Printf.bprintf v1 "%x %x %d 6\n%sstale\n\n" i i (String.length canon) canon)
    dumped_jobs;
  check_foreign "version-1 dump" (Buffer.contents v1) payloads

let test_restore_overflow () =
  let header = header_of (fst (dump_of [])) 1 in
  with_service (fun svc ->
      List.iter
        (fun record ->
          match Service.restore_cache svc (header ^ record) with
          | Error (Service.Malformed _) -> ()
          | Ok _ | Error Service.Foreign_build ->
            Alcotest.failf "record %S accepted" record
          | exception e ->
            Alcotest.failf "record %S raised %s" record (Printexc.to_string e))
        overflow_records;
      Alcotest.(check int) "nothing restored" 0 (Service.cache_entries svc))

(* --- wire-level robustness ----------------------------------------------------- *)

(* Minimal blocking client over the loopback port. *)
type client = { fd : Unix.file_descr; mutable rbuf : string }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; rbuf = "" }

let send_raw c s =
  let b = Bytes.of_string s in
  let rec go off len =
    if len > 0 then begin
      let w = Unix.write c.fd b off len in
      go (off + w) (len - w)
    end
  in
  go 0 (Bytes.length b)

let send_line c line = send_raw c (line ^ "\n")
let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let fill c =
  let chunk = Bytes.create 4096 in
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> raise End_of_file
  | n -> c.rbuf <- c.rbuf ^ Bytes.sub_string chunk 0 n

let read_line c =
  let rec go () =
    match String.index_opt c.rbuf '\n' with
    | Some i ->
      let line = String.sub c.rbuf 0 i in
      c.rbuf <- String.sub c.rbuf (i + 1) (String.length c.rbuf - i - 1);
      line
    | None ->
      fill c;
      go ()
  in
  go ()

let read_exact c n =
  while String.length c.rbuf < n do
    fill c
  done;
  let s = String.sub c.rbuf 0 n in
  c.rbuf <- String.sub c.rbuf n (String.length c.rbuf - n);
  s

(* One response frame: [`Ok (id, payload)] or [`Err (id, code, msg)]. *)
let read_frame c =
  let header = read_line c in
  match String.split_on_char ' ' header with
  | "ok" :: id :: len :: [] -> `Ok (id, read_exact c (int_of_string len))
  | "err" :: id :: code :: rest -> `Err (id, code, String.concat " " rest)
  | _ -> Alcotest.failf "unparseable frame header %S" header

let expect_err c ~id ~code =
  match read_frame c with
  | `Err (eid, ecode, _) ->
    Alcotest.(check string) "err id" id eid;
    Alcotest.(check string) "err code" code ecode
  | `Ok (oid, _) -> Alcotest.failf "expected err %s, got ok %s" code oid

let expect_ok c ~id =
  match read_frame c with
  | `Ok (oid, payload) ->
    Alcotest.(check string) "ok id" id oid;
    payload
  | `Err (eid, code, msg) ->
    Alcotest.failf "expected ok %s, got err %s %s %s" id eid code msg

let with_server ?(domains = 1) ?(queue_capacity = 64) ?(cache_slots = 256) f =
  let cfg =
    { Server.default_config with Server.domains; queue_capacity; cache_slots }
  in
  match Server.create cfg with
  | Error msg -> Alcotest.failf "server create failed: %s" msg
  | Ok server ->
    let runner = Domain.spawn (fun () -> Server.run server) in
    Fun.protect
      ~finally:(fun () ->
        Server.request_drain server;
        Domain.join runner)
      (fun () -> f (Server.port server))

(* Every out-of-range field is refused by name before a socket exists: the
   port below is held by a listening socket of the test's own, so a config
   that got as far as bind would fail with "cannot listen" instead. *)
let test_config_rejections () =
  let held = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close held)
    (fun () ->
      Unix.bind held (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen held 1;
      let busy =
        match Unix.getsockname held with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> Alcotest.fail "not an inet socket"
      in
      let d = { Server.default_config with Server.port = busy } in
      (match Server.create d with
      | Error msg ->
        Alcotest.(check bool) "busy port is a bind error" true
          (String.starts_with ~prefix:"cannot listen" msg)
      | Ok _ -> Alcotest.fail "bound a port that is already listening");
      List.iter
        (fun (field, cfg) ->
          match Server.create cfg with
          | Ok _ -> Alcotest.failf "%s: accepted" field
          | Error msg ->
            Alcotest.(check bool)
              (Printf.sprintf "%s named in %S" field msg)
              true
              (String.starts_with ~prefix:(field ^ " must be") msg))
        [ ("port", { d with Server.port = 70000 });
          ("port", { d with Server.port = -5 });
          ("domains", { d with Server.domains = -1 });
          ("queue_capacity", { d with Server.queue_capacity = -1 });
          ("batch", { d with Server.batch = 0 });
          ("cache_slots", { d with Server.cache_slots = -1 });
          ("max_line", { d with Server.max_line = 0 }) ])

let fast_synth ~id ~seed fmt =
  Printf.sprintf "synth %s n=12 seed=%d gens=5 pop=8 perms=1 format=%s" id seed
    fmt

let test_wire_robustness () =
  with_server (fun port ->
      let c = connect port in
      Fun.protect
        ~finally:(fun () -> close_client c)
        (fun () ->
          (* Malformed lines answer inline and leave the connection usable. *)
          send_line c "garbage";
          expect_err c ~id:"-" ~code:"parse";
          send_line c "synth j1 n=12";
          expect_err c ~id:"j1" ~code:"parse";
          send_line c "synth j2 n=12 seed=7 format=dot";
          expect_err c ~id:"j2" ~code:"parse";
          send_line c "ping p1";
          Alcotest.(check string) "still serving" "pong\n"
            (expect_ok c ~id:"p1");
          (* An oversized request line is refused and the connection torn
             down: the next read sees EOF. *)
          send_raw c (String.make 5000 'x');
          expect_err c ~id:"-" ~code:"oversized";
          Alcotest.(check bool) "connection closed" true
            (match read_frame c with
            | exception End_of_file -> true
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
            | _ -> false));
      (* A truncated connection (partial line, then close) must not hurt
         the daemon. *)
      let t = connect port in
      send_raw t "synth half-a-requ";
      close_client t;
      let c2 = connect port in
      Fun.protect
        ~finally:(fun () -> close_client c2)
        (fun () ->
          send_line c2 "ping p2";
          Alcotest.(check string) "survives truncation" "pong\n"
            (expect_ok c2 ~id:"p2")))

let test_wire_shed_and_drain () =
  (* queue_capacity = 0 sheds every job deterministically. *)
  with_server ~queue_capacity:0 (fun port ->
      let c = connect port in
      Fun.protect
        ~finally:(fun () -> close_client c)
        (fun () ->
          send_line c (fast_synth ~id:"s1" ~seed:1 "edges");
          expect_err c ~id:"s1" ~code:"shed"));
  with_server (fun port ->
      let c = connect port in
      Fun.protect
        ~finally:(fun () -> close_client c)
        (fun () ->
          (* One write, three lines: the accept loop dispatches them in
             order within a single read, so the job keeps the server alive
             past the drain and s2 deterministically sees [draining]. *)
          send_raw c
            (fast_synth ~id:"j" ~seed:1 "edges"
            ^ "\ndrain d1\n"
            ^ fast_synth ~id:"s2" ~seed:2 "edges"
            ^ "\n");
          let seen = Hashtbl.create 4 in
          for _ = 1 to 3 do
            match read_frame c with
            | `Ok (id, payload) -> Hashtbl.replace seen id (`Ok payload)
            | `Err (id, code, _) -> Hashtbl.replace seen id (`Err code)
          done;
          Alcotest.(check bool) "admitted job answered" true
            (match Hashtbl.find_opt seen "j" with
            | Some (`Ok p) -> String.length p > 0
            | _ -> false);
          Alcotest.(check bool) "drain acked" true
            (Hashtbl.find_opt seen "d1" = Some (`Ok "draining\n"));
          Alcotest.(check bool) "post-drain job refused" true
            (Hashtbl.find_opt seen "s2" = Some (`Err "draining"))))

let test_wire_duplicate_inflight () =
  (* Two identical jobs racing through the scheduler — whether the second
     hits the cache or both compute, the bytes must be identical. *)
  with_server ~domains:2 (fun port ->
      let a = connect port and b = connect port in
      Fun.protect
        ~finally:(fun () ->
          close_client a;
          close_client b)
        (fun () ->
          send_line a (fast_synth ~id:"dup" ~seed:42 "edges");
          send_line b (fast_synth ~id:"dup" ~seed:42 "edges");
          let pa = expect_ok a ~id:"dup" in
          let pb = expect_ok b ~id:"dup" in
          Alcotest.(check string) "duplicate in-flight identical bytes" pa pb))

let test_wire_replay () =
  (* The wire-level face of the replay contract: same request, same frame
     bytes, cold and cached, across server restarts. *)
  let payload_of port line =
    let c = connect port in
    Fun.protect
      ~finally:(fun () -> close_client c)
      (fun () ->
        send_line c line;
        expect_ok c ~id:"r1")
  in
  let line = fast_synth ~id:"r1" ~seed:99 "gml" in
  let first = ref None in
  List.iter
    (fun domains ->
      with_server ~domains (fun port ->
          let cold = payload_of port line in
          let cached = payload_of port line in
          Alcotest.(check string) "cached replay" cold cached;
          match !first with
          | None -> first := Some cold
          | Some r ->
            Alcotest.(check string)
              (Printf.sprintf "restart at %d domains" domains)
              r cold))
    [ 1; 2 ]

(* --- reader fuzz ---------------------------------------------------------------- *)

let request_seeds =
  [
    "ping p1"; "stats s1"; "drain d1";
    "synth j1 n=12 seed=7 deadline_ms=250";
    "synth j2 n=20 seed=3 k0=10 k2=1e-4 k3=0.5 gens=20 pop=16 perms=2 survivable=1 format=gml";
    "ensemble e1 n=8 seed=2 count=3";
    "survive v1 n=10 seed=4 steps=50 fseed=9 link_rate=0.01 node_rate=0.001";
  ]

(* A request that parses canonicalizes, and its canonical form, given an
   id, parses back to the same canonical key. *)
let fuzz_parse =
  Fuzz.never_raises ~name:"fuzz" ~count:5000 request_seeds (fun line ->
      match P.parse line with
      | Error _ | Ok { P.body = P.Ping | P.Stats | P.Drain; _ } -> ()
      | Ok { P.body = P.Job j; _ } ->
        let key = P.canonical_job j in
        let line =
          match String.index_opt key ' ' with
          | Some i -> Fuzz.splice key i " rt"
          | None -> key
        in
        (match P.parse line with
         | Ok { P.body = P.Job j'; _ } when String.equal (P.canonical_job j') key -> ()
         | _ -> QCheck.Test.fail_reportf "canonical key %S does not parse back" key))

(* One service restores random and mutated dumps of a real cache. *)
let fuzz_restore =
  let svc = Service.create ~domains:1 ~cache_slots:8 () in
  at_exit (fun () -> Service.shutdown svc);
  ignore (respond_exn svc (synth_job ~n:4 ()));
  ignore (respond_exn svc (synth_job ~format:P.Summary ~n:5 ()));
  let dump = Service.dump_cache svc in
  let overflows = List.map (( ^ ) (header_of dump 1)) overflow_records in
  Fuzz.never_raises ~name:"restore fuzz" ~count:2000 (dump :: overflows) (fun s ->
      ignore (Service.restore_cache svc s))

let () =
  Alcotest.run "cold_serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse basics" `Quick test_parse_basics;
          Alcotest.test_case "parse rejections" `Quick test_parse_rejections;
          Alcotest.test_case "canonical job" `Quick test_canonical_job;
          Alcotest.test_case "framing" `Quick test_framing;
          fuzz_parse;
        ] );
      ( "service",
        [
          Alcotest.test_case "replay across domains" `Quick
            test_service_replay_across_domains;
          Alcotest.test_case "formats and cache" `Quick
            test_service_formats_and_cache;
          Alcotest.test_case "stats window" `Quick test_stats_window;
          Alcotest.test_case "restore into another capacity" `Quick
            test_restore_other_capacity;
          Alcotest.test_case "restore tampered digest" `Quick
            test_restore_tampered_digest;
          Alcotest.test_case "restore version-1 dump" `Quick
            test_restore_version_1;
          Alcotest.test_case "restore overflowing lengths" `Quick
            test_restore_overflow;
          fuzz_restore;
        ] );
      ( "wire",
        [
          Alcotest.test_case "config rejections" `Quick test_config_rejections;
          Alcotest.test_case "robustness" `Quick test_wire_robustness;
          Alcotest.test_case "shed and drain" `Quick test_wire_shed_and_drain;
          Alcotest.test_case "duplicate in-flight" `Quick
            test_wire_duplicate_inflight;
          Alcotest.test_case "replay over the wire" `Quick test_wire_replay;
        ] );
    ]
