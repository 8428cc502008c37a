module P = Protocol

type config = {
  port : int;
  domains : int;
  queue_capacity : int;
  batch : int;
  cache_slots : int;
  max_line : int;
  cache_file : string option;
}

let default_config =
  {
    port = 0;
    domains = 1;
    queue_capacity = 64;
    batch = 8;
    cache_slots = 256;
    max_line = 4096;
    cache_file = None;
  }

(* One client connection. [wlock] serializes response frames; [inflight]
   counts queued-but-unanswered jobs so the file descriptor is only closed
   once the scheduler has written every pending reply (closing earlier
   would let the kernel recycle the fd number under the scheduler). *)
type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  wlock : Mutex.t;
  mutable inflight : int;
  mutable dead : bool;  (* peer gone or protocol violation: stop reading *)
}

type job_item = {
  jconn : conn;
  jid : string;
  job : P.job;
  deadline_ms : int option;
  enqueued_at : float;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  service : Service.t;
  qmutex : Mutex.t;
  qcond : Condition.t;
  queue : job_item Queue.t;
  mutable unanswered : int;  (* admitted jobs not yet replied to *)
  mutable draining : bool;
  mutable conns : conn list;
}

(* --- socket helpers ----------------------------------------------------------- *)

let rec write_all fd bytes off len =
  if len > 0 then begin
    let written = Unix.write fd bytes off len in
    write_all fd bytes (off + written) (len - written)
  end

(* Best-effort frame write: a vanished peer must not take the daemon down,
   so EPIPE and friends just mark the connection dead. *)
let send conn frame =
  Mutex.lock conn.wlock;
  (try
     let b = Bytes.unsafe_of_string frame in
     write_all conn.fd b 0 (Bytes.length b)
   with Unix.Unix_error _ | Sys_error _ -> conn.dead <- true);
  Mutex.unlock conn.wlock

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Run [f] with SIGTERM/SIGINT blocked on the calling thread, restoring the
   previous mask afterwards. Domains spawned inside [f] inherit the blocked
   mask, so shutdown signals can only ever be delivered to the accept-loop
   thread — a worker parked in [Condition.wait] executes no OCaml and would
   otherwise swallow the signal without running its handler. *)
let with_shutdown_signals_blocked f =
  match Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ] with
  | old ->
    Fun.protect
      ~finally:(fun () ->
        try ignore (Unix.sigprocmask Unix.SIG_SETMASK old)
        with Invalid_argument _ | Unix.Unix_error _ -> ())
      f
  | exception (Invalid_argument _ | Unix.Unix_error _) -> f ()

(* --- admission ---------------------------------------------------------------- *)

let enqueue t conn (env : P.envelope) job =
  let item =
    {
      jconn = conn;
      jid = env.P.id;
      job;
      deadline_ms = env.P.deadline_ms;
      enqueued_at = Unix.gettimeofday ();
    }
  in
  Mutex.lock t.qmutex;
  let decision =
    if t.draining then `Draining
    else if Queue.length t.queue >= t.cfg.queue_capacity then `Shed
    else begin
      conn.inflight <- conn.inflight + 1;
      t.unanswered <- t.unanswered + 1;
      Queue.add item t.queue;
      Condition.signal t.qcond;
      `Admitted
    end
  in
  Mutex.unlock t.qmutex;
  match decision with
  | `Admitted -> ()
  | `Draining ->
    Service.note_error t.service;
    send conn
      (P.frame_err ~id:env.P.id ~code:"draining"
         "server is draining; no new work accepted")
  | `Shed ->
    Service.note_shed t.service;
    send conn
      (P.frame_err ~id:env.P.id ~code:"shed"
         (Printf.sprintf "admission queue full (capacity %d)"
            t.cfg.queue_capacity))

(* --- scheduler domain ---------------------------------------------------------- *)

(* Counters only: every close happens in the accept-loop domain, which is
   the sole owner of [t.conns] — no fd is ever closed (and so recycled by
   the kernel) while another domain might still address it. *)
let job_done t conn =
  Mutex.lock t.qmutex;
  conn.inflight <- conn.inflight - 1;
  t.unanswered <- t.unanswered - 1;
  Mutex.unlock t.qmutex

let scheduler_loop t =
  let running = ref true in
  while !running do
    Mutex.lock t.qmutex;
    while Queue.is_empty t.queue && not t.draining do
      Condition.wait t.qcond t.qmutex
    done;
    let batch = ref [] in
    while Queue.length t.queue > 0 && List.length !batch < t.cfg.batch do
      batch := Queue.pop t.queue :: !batch
    done;
    let batch = List.rev !batch in
    if batch = [] && t.draining then running := false;
    Mutex.unlock t.qmutex;
    if batch <> [] then begin
      let now = Unix.gettimeofday () in
      (* Deadline check happens at dequeue: a job that already overstayed
         its queueing budget is answered without being evaluated. *)
      let expired, live =
        List.partition
          (fun item ->
            match item.deadline_ms with
            | None -> false
            | Some ms -> (now -. item.enqueued_at) *. 1000. > float_of_int ms)
          batch
      in
      List.iter
        (fun item ->
          Service.note_error t.service;
          send item.jconn
            (P.frame_err ~id:item.jid ~code:"deadline"
               "deadline exceeded while queued");
          job_done t item.jconn)
        expired;
      let live = Array.of_list live in
      let answers =
        Service.handle_batch t.service (Array.map (fun i -> i.job) live)
      in
      Array.iteri
        (fun i item ->
          (match answers.(i) with
          | Ok payload -> send item.jconn (P.frame_ok ~id:item.jid payload)
          | Error msg ->
            send item.jconn (P.frame_err ~id:item.jid ~code:"internal" msg));
          job_done t item.jconn)
        live
    end
  done

(* --- request dispatch ----------------------------------------------------------- *)

let queue_depth t =
  Mutex.lock t.qmutex;
  let d = Queue.length t.queue in
  Mutex.unlock t.qmutex;
  d

let handle_line t conn line =
  Service.note_request t.service;
  match P.parse line with
  | Error (id, msg) ->
    Service.note_error t.service;
    send conn (P.frame_err ~id ~code:"parse" msg)
  | Ok env -> (
    match env.P.body with
    | P.Ping -> send conn (P.frame_ok ~id:env.P.id "pong\n")
    | P.Stats ->
      send conn
        (P.frame_ok ~id:env.P.id
           (Service.stats_json t.service ~queue_depth:(queue_depth t)))
    | P.Drain ->
      send conn (P.frame_ok ~id:env.P.id "draining\n");
      Mutex.lock t.qmutex;
      t.draining <- true;
      Condition.broadcast t.qcond;
      Mutex.unlock t.qmutex
    | P.Job job -> enqueue t conn env job)

(* Split complete lines out of the connection buffer and dispatch each.
   Returns [false] if the connection must be torn down (oversized line). *)
let drain_buffer t conn =
  let ok = ref true in
  let continue = ref true in
  while !continue do
    let s = Buffer.contents conn.buf in
    match String.index_opt s '\n' with
    | Some i ->
      let line = String.sub s 0 i in
      let line =
        (* Tolerate CRLF clients. *)
        if String.length line > 0 && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      Buffer.clear conn.buf;
      Buffer.add_substring conn.buf s (i + 1) (String.length s - i - 1);
      if line <> "" then handle_line t conn line
    | None ->
      if Buffer.length conn.buf > t.cfg.max_line then begin
        Service.note_request t.service;
        Service.note_error t.service;
        send conn
          (P.frame_err ~id:"-" ~code:"oversized"
             (Printf.sprintf "request line exceeds %d bytes" t.cfg.max_line));
        ok := false
      end;
      continue := false
  done;
  !ok

(* --- cache persistence ----------------------------------------------------------

   Best-effort on both ends: a daemon must come up without its cache file
   (first boot, deleted, corrupt — it is only a warm-start hint; every
   entry is re-derivable) and must not die for an unwritable dump path at
   teardown. Replay correctness never depends on the file: restored hits
   are verified against the canonical key like any other hit. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_cache service = function
  | None -> ()
  | Some path ->
    (try ignore (Service.restore_cache service (read_file path))
     with Sys_error _ | End_of_file -> ())

let dump_cache_file t =
  match t.cfg.cache_file with
  | None -> ()
  | Some path -> (
    (* Write-then-rename so a crash mid-dump never truncates the previous
       dump, and a concurrent reader sees old bytes or new bytes, never a
       prefix. *)
    let tmp = path ^ ".tmp" in
    try
      let oc = open_out_bin tmp in
      (try
         output_string oc (Service.dump_cache t.service);
         close_out oc
       with e ->
         close_out_noerr oc;
         raise e);
      Sys.rename tmp path
    with Sys_error _ -> ())

(* --- accept loop ----------------------------------------------------------------- *)

(* The ranges the daemon can run with; a config outside them is refused
   before any socket exists. *)
let check_config cfg =
  let ranges =
    [ ("port", cfg.port, 0, 65535);
      ("domains", cfg.domains, 0, max_int);
      ("queue_capacity", cfg.queue_capacity, 0, max_int);
      ("batch", cfg.batch, 1, max_int);
      ("cache_slots", cfg.cache_slots, 0, max_int);
      ("max_line", cfg.max_line, 1, max_int) ]
  in
  match List.find_opt (fun (_, v, lo, hi) -> v < lo || v > hi) ranges with
  | None -> Ok ()
  | Some (field, v, lo, hi) ->
    Error
      (if hi = max_int then Printf.sprintf "%s must be >= %d, got %d" field lo v
       else Printf.sprintf "%s must be in %d..%d, got %d" field lo hi v)

let listen cfg =
  match
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, cfg.port));
       Unix.listen fd 128
     with e ->
       close_quietly fd;
       raise e);
    let bound_port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> cfg.port
    in
    {
      cfg;
      listen_fd = fd;
      bound_port;
      service =
        (* Pool domains inherit a blocked mask: see
           [with_shutdown_signals_blocked]. *)
        with_shutdown_signals_blocked (fun () ->
            Service.create ~domains:cfg.domains ~cache_slots:cfg.cache_slots
              ~now:Unix.gettimeofday ());
      qmutex = Mutex.create ();
      qcond = Condition.create ();
      queue = Queue.create ();
      unanswered = 0;
      draining = false;
      conns = [];
    }
  with
  | t ->
    load_cache t.service t.cfg.cache_file;
    Ok t
  | exception Unix.Unix_error (err, fn, _) ->
    Error (Printf.sprintf "cannot listen on port %d: %s (%s)" cfg.port
             (Unix.error_message err) fn)

let create cfg = Result.bind (check_config cfg) (fun () -> listen cfg)

let port t = t.bound_port

let request_drain t =
  (* Callable from a signal handler: a plain flag write the loops poll.
     The condition broadcast is re-issued by the accept loop's next tick,
     so no lock is required here. *)
  t.draining <- true

let install_sigterm t =
  let handler = Sys.Signal_handle (fun _ -> request_drain t) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler

(* Marking dead stops further reads; the fd itself is reaped by
   [sweep_dead] once the scheduler has answered everything in flight. *)
let teardown_conn conn = conn.dead <- true

let sweep_dead t =
  let reapable c =
    c.dead
    && begin
         Mutex.lock t.qmutex;
         let idle = c.inflight = 0 in
         Mutex.unlock t.qmutex;
         idle
       end
  in
  let reap, keep = List.partition reapable t.conns in
  List.iter (fun c -> close_quietly c.fd) reap;
  t.conns <- keep

let accept_tick t =
  match Unix.accept t.listen_fd with
  | fd, _addr ->
    let conn =
      { fd; buf = Buffer.create 256; wlock = Mutex.create (); inflight = 0;
        dead = false }
    in
    t.conns <- conn :: t.conns
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()

let read_tick t conn =
  let chunk = Bytes.create 4096 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> teardown_conn conn  (* EOF: truncated or finished client *)
  | len ->
    Buffer.add_subbytes conn.buf chunk 0 len;
    if not (drain_buffer t conn) then teardown_conn conn
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> teardown_conn conn

let finished t =
  Mutex.lock t.qmutex;
  let f = t.draining && Queue.is_empty t.queue && t.unanswered = 0 in
  Mutex.unlock t.qmutex;
  f

let run t =
  (* A peer that disappears mid-response must not kill the daemon: writes
     to a closed socket surface as EPIPE (handled in [send]) instead of a
     fatal SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let scheduler =
    with_shutdown_signals_blocked (fun () ->
        Domain.spawn (fun () -> scheduler_loop t))
  in
  let listening = ref true in
  while not (finished t) do
    sweep_dead t;
    (* Re-broadcast drain every tick: request_drain may have come from a
       signal handler that could not take the queue lock. *)
    if t.draining then begin
      Mutex.lock t.qmutex;
      Condition.broadcast t.qcond;
      Mutex.unlock t.qmutex;
      if !listening then begin
        close_quietly t.listen_fd;
        listening := false
      end
    end;
    let read_fds =
      (if !listening then [ t.listen_fd ] else [])
      @ List.filter_map
          (fun c -> if c.dead then None else Some c.fd)
          t.conns
    in
    match Unix.select read_fds [] [] 0.05 with
    | ready, _, _ ->
      List.iter
        (fun fd ->
          if !listening && fd = t.listen_fd then accept_tick t
          else
            match List.find_opt (fun c -> c.fd = fd) t.conns with
            | Some conn when not conn.dead -> read_tick t conn
            | _ -> ())
        ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Mutex.lock t.qmutex;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qmutex;
  Domain.join scheduler;
  if !listening then close_quietly t.listen_fd;
  List.iter (fun c -> close_quietly c.fd) t.conns;
  t.conns <- [];
  dump_cache_file t;
  Service.shutdown t.service
