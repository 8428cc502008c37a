(* The COLD benchmark's workload runner. perfbench/run.py builds it and
   runs it; see perfbench/README.md.

   cold_bench WORKLOAD [--seed N] [--seconds S] [--trace 0|1]
              [--trace-file PATH] [--tiny] [--setup-only]

   The last line of standard output is the result: correct, attempted,
   failed and the metrics — end-to-end ones untraced, per-layer ones
   traced. With --setup-only it sets the workload up, prints "ready" and
   exits: the set-up time is measured from outside. *)

let usage = "cold_bench (fit-abc|serve-mix) [options]"

let () =
  let workload = ref "" and seed = ref Workload.default_seed in
  let seconds = ref 10.0 and trace = ref 0 and trace_file = ref "" in
  let tiny = ref false and setup_only = ref false in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 untraced or traced run");
      ("--trace-file", Arg.Set_string trace_file, "PATH where spans go");
      ("--tiny", Arg.Set tiny, " self-test scale");
      ("--setup-only", Arg.Set setup_only, " set up, print ready, exit");
    ]
    (fun w -> workload := w)
    usage;
  let run =
    {
      Workload.seed = !seed;
      seconds = !seconds;
      tiny = !tiny;
      pinned = !seed = Workload.default_seed && not !tiny;
    }
  in
  (* [setup] does everything before a workload's first operation and
     returns what tears it down. *)
  let nothing () = () in
  let setup, untraced, traced =
    match !workload with
    | "fit-abc" ->
      ( (fun () -> ignore (Fit.observation ~tiny:!tiny); nothing),
        Fit.run,
        Fit.trace )
    | "serve-mix" -> (Serve.setup_only, Serve.run, Serve.trace)
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "; " ^ usage);
      exit 2
  in
  if !setup_only then begin
    let teardown = setup () in
    print_endline "ready";
    teardown ()
  end
  else if !trace = 1 then begin
    traced run;
    if !trace_file <> "" then Trace.write !trace_file
  end
  else untraced run
