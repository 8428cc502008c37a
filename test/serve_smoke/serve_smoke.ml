(* End-to-end smoke for the cold_serve daemon: boot it in-process on an
   ephemeral loopback port, run a scripted hit/miss/shed/drain mix, and
   byte-compare replayed requests. Rides along with @runtest via the
   @serve-smoke alias, so CI exercises the full socket path — accept loop,
   admission queue, scheduler, replay cache — in about a second. *)

module Server = Cold_serve.Server

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("serve smoke: " ^ m); exit 1) fmt

(* --- tiny blocking client ----------------------------------------------------- *)

type client = { fd : Unix.file_descr; mutable rbuf : string }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; rbuf = "" }

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send_line c line =
  let s = line ^ "\n" in
  let b = Bytes.of_string s in
  let rec go off len =
    if len > 0 then begin
      let w = Unix.write c.fd b off len in
      go (off + w) (len - w)
    end
  in
  go 0 (Bytes.length b)

let fill c =
  let chunk = Bytes.create 4096 in
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> fail "peer closed mid-frame"
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

let read_frame c =
  let header = read_line c in
  match String.split_on_char ' ' header with
  | [ "ok"; id; len ] -> `Ok (id, read_exact c (int_of_string len))
  | "err" :: id :: code :: rest -> `Err (id, code, String.concat " " rest)
  | _ -> fail "bad frame header %S" header

let request c line =
  send_line c line;
  read_frame c

let expect_ok c line =
  match request c line with
  | `Ok (_, payload) -> payload
  | `Err (id, code, msg) -> fail "%S: err %s %s %s" line id code msg

let expect_err_code c line want =
  match request c line with
  | `Err (_, code, _) when code = want -> ()
  | `Err (_, code, msg) -> fail "%S: expected err %s, got %s (%s)" line want code msg
  | `Ok _ -> fail "%S: expected err %s, got ok" line want

(* --- the scripted mix ---------------------------------------------------------- *)

let with_server cfg f =
  match Server.create cfg with
  | Error msg -> fail "cannot start: %s" msg
  | Ok server ->
    let runner = Domain.spawn (fun () -> Server.run server) in
    let result = f (Server.port server) in
    Server.request_drain server;
    Domain.join runner;
    result

let synth ~id ~seed fmt =
  Printf.sprintf "synth %s n=14 seed=%d gens=5 pop=8 perms=1 format=%s" id seed
    fmt

let counter stats name =
  (* Pull "name":<int> out of the flat stats JSON. *)
  let pat = Printf.sprintf "\"%s\":" name in
  let plen = String.length pat in
  let len = String.length stats in
  let rec find i =
    if i + plen > len then fail "stats missing %s in %s" name stats
    else if String.sub stats i plen = pat then i + plen
    else find (i + 1)
  in
  let j = ref (find 0) in
  let st = !j in
  while !j < len && (stats.[!j] = '-' || (stats.[!j] >= '0' && stats.[!j] <= '9')) do
    incr j
  done;
  int_of_string (String.sub stats st (!j - st))

let () =
  let cfg = { Server.default_config with Server.domains = 2 } in
  (* Pass 1: miss, hit, replay byte-compare, then a clean drain. *)
  let first_bytes =
    with_server cfg (fun port ->
        let c = connect port in
        if expect_ok c "ping p0" <> "pong\n" then fail "ping";
        let cold = expect_ok c (synth ~id:"m1" ~seed:5 "edges") in
        let hit = expect_ok c (synth ~id:"m2" ~seed:5 "edges") in
        if cold <> hit then fail "cache hit not byte-identical";
        let other = expect_ok c (synth ~id:"m3" ~seed:6 "edges") in
        if cold = other then fail "distinct seeds collided";
        ignore (expect_ok c (synth ~id:"m4" ~seed:5 "summary"));
        let stats = expect_ok c "stats st1" in
        if counter stats "hits" < 1 then fail "no cache hit recorded";
        if counter stats "misses" < 3 then fail "misses under-counted";
        (* One write, three lines: the admitted job keeps the daemon alive
           past the drain, so "late" deterministically sees [draining]. *)
        send_line c
          (synth ~id:"keep" ~seed:7 "edges"
          ^ "\ndrain d1\n"
          ^ synth ~id:"late" ~seed:8 "edges");
        let acked = ref false and refused = ref false and kept = ref false in
        for _ = 1 to 3 do
          match read_frame c with
          | `Ok ("d1", "draining\n") -> acked := true
          | `Ok ("keep", payload) -> kept := String.length payload > 0
          | `Err ("late", "draining", _) -> refused := true
          | `Ok (id, _) -> fail "unexpected ok %s during drain" id
          | `Err (id, code, msg) -> fail "unexpected err %s %s %s" id code msg
        done;
        if not (!acked && !refused && !kept) then fail "drain mix incomplete";
        close_client c;
        cold)
  in
  (* Pass 2: a restarted daemon re-derives the same bytes (replay), and a
     zero-capacity queue sheds deterministically. *)
  with_server cfg (fun port ->
      let c = connect port in
      let replay = expect_ok c (synth ~id:"r1" ~seed:5 "edges") in
      if replay <> first_bytes then fail "replay after restart differs";
      close_client c);
  with_server
    { cfg with Server.queue_capacity = 0 }
    (fun port ->
      let c = connect port in
      expect_err_code c (synth ~id:"s1" ~seed:5 "edges") "shed";
      let stats = expect_ok c "stats st2" in
      if counter stats "sheds" <> 1 then fail "shed not counted";
      close_client c);
  (* Pass 3: cache persistence. The first daemon computes one answer and
     dumps its cache on drain; a restarted daemon with the same cache file
     must answer the same request from the reloaded cache — a hit, not a
     recomputation — with byte-identical payload. *)
  let cache_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cold_serve_cache_%d.dump" (Unix.getpid ()))
  in
  if Sys.file_exists cache_path then Sys.remove cache_path;
  let pcfg = { cfg with Server.cache_file = Some cache_path } in
  let persisted =
    with_server pcfg (fun port ->
        let c = connect port in
        let p = expect_ok c (synth ~id:"p1" ~seed:9 "edges") in
        close_client c;
        p)
  in
  if not (Sys.file_exists cache_path) then fail "cache file not dumped";
  with_server pcfg (fun port ->
      let c = connect port in
      let stats = expect_ok c "stats st3" in
      if counter stats "cache_entries" < 1 then fail "cache not reloaded";
      let replay = expect_ok c (synth ~id:"p2" ~seed:9 "edges") in
      if replay <> persisted then fail "persisted replay not byte-identical";
      let stats = expect_ok c "stats st4" in
      if counter stats "hits" < 1 then fail "restored entry missed the cache";
      close_client c);
  (* A file from another build (one digit of its reference digest changed)
     and one whose record lengths overflow: each restart comes up, restores
     nothing and recomputes the same bytes. *)
  let dump = In_channel.with_open_bin cache_path In_channel.input_all in
  let header = List.hd (String.split_on_char '\n' dump) in
  let digit = String.length "coldserve-cache 2 " in
  let tampered =
    String.mapi (fun j c -> if j <> digit then c else if c = '0' then '1' else '0') dump
  in
  let overflow =
    Printf.sprintf "%s 1\n%d 1\nxx\n"
      (String.sub header 0 (String.rindex header ' ')) max_int
  in
  List.iter
    (fun (what, contents) ->
      Out_channel.with_open_bin cache_path (fun oc -> output_string oc contents);
      with_server pcfg (fun port ->
          let c = connect port in
          let stats = expect_ok c "stats st5" in
          if counter stats "cache_entries" <> 0 then fail "%s file restored" what;
          let replay = expect_ok c (synth ~id:"p3" ~seed:9 "edges") in
          if replay <> persisted then fail "replay after %s file differs" what;
          close_client c))
    [ ("tampered-digest", tampered); ("overflow", overflow) ];
  Sys.remove cache_path;
  print_endline
    "serve smoke passed: miss/hit/shed/drain + byte-exact replay (incl. cache \
     restart, foreign and overflowing cache files)"
