(* cold_lint: enforce COLD's determinism and correctness invariants.

   Exit codes: 0 clean (or no findings beyond the baseline), 1 violations
   found, 2 usage or I/O error. *)

let usage =
  "usage: cold_lint [--json] [--rules r1,r2] [--list-rules] [--explain RULE]\n\
  \                 [--deep|--no-deep] [--call-graph]\n\
  \                 [--baseline FILE [--update-baseline]] PATH..."

let () =
  let json = ref false in
  let rules = ref None in
  let list_rules = ref false in
  let explain = ref None in
  let deep = ref true in
  let call_graph = ref false in
  let baseline = ref None in
  let update_baseline = ref false in
  let paths = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " emit findings as a JSON array");
      ( "--rules",
        Arg.String
          (fun s ->
            rules :=
              Some (String.split_on_char ',' s |> List.filter (( <> ) ""))),
        "R1,R2 run only the named rules" );
      ("--list-rules", Arg.Set list_rules, " print the rule catalogue and exit");
      ( "--explain",
        Arg.String (fun r -> explain := Some r),
        "RULE print RULE's summary and rationale and exit" );
      ( "--deep",
        Arg.Set deep,
        " run the interprocedural (whole-program) pass — the default" );
      ( "--no-deep",
        Arg.Clear deep,
        " per-file rules only; skip the interprocedural pass" );
      ( "--call-graph",
        Arg.Set call_graph,
        " dump the resolved call graph for PATH... and exit" );
      ( "--baseline",
        Arg.String (fun f -> baseline := Some f),
        "FILE fail only on findings not recorded in FILE" );
      ( "--update-baseline",
        Arg.Set update_baseline,
        " rewrite the --baseline file from the current findings" );
    ]
  in
  (try Arg.parse spec (fun p -> paths := p :: !paths) usage
   with _ -> exit 2);
  if !list_rules then begin
    List.iter
      (fun (r : Cold_lint.Rules.t) ->
        Printf.printf "%-24s %s\n" r.Cold_lint.Rules.name
          r.Cold_lint.Rules.summary)
      Cold_lint.Rules.all;
    List.iter
      (fun (i : Cold_lint.Rules.info) ->
        Printf.printf "%-24s %s\n" i.Cold_lint.Rules.iname
          i.Cold_lint.Rules.isummary)
      Cold_lint.Rules.deep;
    exit 0
  end;
  (match !explain with
  | None -> ()
  | Some name -> (
    match Cold_lint.Rules.info name with
    | Some i ->
      Printf.printf "%s — %s\n\n%s\n" i.Cold_lint.Rules.iname
        i.Cold_lint.Rules.isummary i.Cold_lint.Rules.irationale;
      exit 0
    | None ->
      Printf.eprintf "cold_lint: unknown rule: %s\n" name;
      exit 2));
  if !update_baseline && !baseline = None then begin
    prerr_endline "cold_lint: --update-baseline requires --baseline FILE";
    prerr_endline usage;
    exit 2
  end;
  let paths = List.rev !paths in
  if paths = [] then begin
    prerr_endline usage;
    exit 2
  end;
  if !call_graph then begin
    match Cold_lint.Engine.call_graph paths with
    | Ok dump ->
      print_string dump;
      exit 0
    | Error msg | (exception Sys_error msg) ->
      Printf.eprintf "cold_lint: %s\n" msg;
      exit 2
  end;
  match Cold_lint.Engine.check_paths ?only:!rules ~deep:!deep paths with
  | Error msg ->
    Printf.eprintf "cold_lint: %s\n" msg;
    exit 2
  | exception Sys_error msg ->
    Printf.eprintf "cold_lint: %s\n" msg;
    exit 2
  | Ok findings -> (
    match !baseline with
    | None ->
      print_string
        (if !json then Cold_lint.Report.json findings
         else Cold_lint.Report.text findings);
      if findings = [] then exit 0 else exit 1
    | Some file when !update_baseline ->
      let oc =
        try open_out_bin file
        with Sys_error msg ->
          Printf.eprintf "cold_lint: %s\n" msg;
          exit 2
      in
      output_string oc (Cold_lint.Report.json findings);
      close_out oc;
      Printf.printf "cold_lint: baseline %s updated (%d finding%s)\n" file
        (List.length findings)
        (if List.length findings = 1 then "" else "s");
      exit 0
    | Some file -> (
      match Cold_lint.Baseline.load ~path:file with
      | Error msg ->
        Printf.eprintf "cold_lint: %s\n" msg;
        exit 2
      | Ok base ->
        let d = Cold_lint.Baseline.diff ~baseline:base findings in
        if !json then print_string (Cold_lint.Report.json d.Cold_lint.Baseline.fresh)
        else begin
          print_string (Cold_lint.Report.text d.Cold_lint.Baseline.fresh);
          if d.Cold_lint.Baseline.fresh <> [] then
            Printf.printf "cold_lint: %d new finding%s not in baseline %s\n"
              (List.length d.Cold_lint.Baseline.fresh)
              (if List.length d.Cold_lint.Baseline.fresh = 1 then "" else "s")
              file;
          if d.Cold_lint.Baseline.stale > 0 then
            Printf.printf
              "cold_lint: %d baseline entr%s no longer fire%s — run \
               --update-baseline to prune\n"
              d.Cold_lint.Baseline.stale
              (if d.Cold_lint.Baseline.stale = 1 then "y" else "ies")
              (if d.Cold_lint.Baseline.stale = 1 then "s" else "")
        end;
        if d.Cold_lint.Baseline.fresh = [] then exit 0 else exit 1))
