(* Operation accounting shared by every workload. An operation is one
   design, one ABC batch or one request. It fails on an exception, an
   error frame, a digest or replay mismatch, or no answer by drain; each
   failed operation counts once however many of its checks fail. A run is
   invalid — reported as incorrect, not as slow — when a measurement
   precondition does not hold. *)

let attempted = ref 0
let failed_ops : (int, unit) Hashtbl.t = Hashtbl.create 16
let invalid = ref false

let attempt () = incr attempted

let fail ~op fmt =
  Printf.ksprintf
    (fun msg ->
      Hashtbl.replace failed_ops op ();
      Printf.eprintf "FAILED op %d: %s\n%!" op msg)
    fmt

let check ~op cond fmt =
  Printf.ksprintf (fun msg -> if not cond then fail ~op "%s" msg) fmt

let invalidate fmt =
  Printf.ksprintf
    (fun msg ->
      invalid := true;
      Printf.eprintf "INVALID %s\n%!" msg)
    fmt

let digest s = Digest.to_hex (Digest.string s)

(* Print the first output digests, in operation order, and check each
   pinned digest against the one at its position, if the run got there.
   [digests] pairs each digest with its operation. *)
let pinned ~check pins digests =
  Printf.printf "digests: %s\n"
    (String.concat " " (List.filteri (fun i _ -> i < 8) (List.map snd digests)));
  if check then
    List.iteri
      (fun k pin ->
        match List.nth_opt digests k with
        | Some (op, d) ->
          if not (String.equal d pin) then
            fail ~op "output digest differs from the pinned one"
        | None -> ())
      pins

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* The result line: the last line of standard output. *)
let emit metrics =
  if !attempted = 0 then invalidate "no operation was attempted";
  List.iter
    (fun (name, v) ->
      if not (Float.is_finite v) then invalidate "metric %s is %f" name v)
    metrics;
  let failed = Hashtbl.length failed_ops in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "%S: %.17g" name (if Float.is_finite v then v else 0.0))
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && not !invalid)
    (max 1 !attempted) failed body
