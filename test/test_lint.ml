(* Tests for the cold_lint static-analysis pass: each rule's positive /
   negative / suppression behaviour, scoping, parsing, and the reporters. *)

module Finding = Cold_lint.Finding
module Rules = Cold_lint.Rules
module Engine = Cold_lint.Engine
module Report = Cold_lint.Report
module Baseline = Cold_lint.Baseline

let lint ?only ?mli_exists ?(path = "lib/fake/fixture.ml") src =
  Engine.check_source ?only ?mli_exists ~path src

let rules_fired findings =
  List.sort_uniq String.compare
    (List.map (fun f -> f.Finding.rule) findings)

let check_fires rule src =
  Alcotest.(check (list string))
    (rule ^ " fires") [ rule ]
    (rules_fired (lint ~only:[ rule ] src))

let check_clean rule src =
  Alcotest.(check (list string))
    (rule ^ " stays quiet") []
    (rules_fired (lint ~only:[ rule ] src))

(* --- rules: positive / negative / suppression -------------------------------- *)

let test_no_stdlib_random () =
  check_fires "no-stdlib-random" "let x = Random.int 5";
  check_fires "no-stdlib-random" "let () = Stdlib.Random.self_init ()";
  check_clean "no-stdlib-random" "let x = Prng.int rng 5";
  check_clean "no-stdlib-random" "(* Random.int would be wrong here *) let x = 1";
  check_clean "no-stdlib-random"
    "let x = Random.int 5 (* lint: allow no-stdlib-random *)"

let test_no_wall_clock () =
  check_fires "no-wall-clock" "let t = Sys.time ()";
  check_fires "no-wall-clock" "let t = Unix.gettimeofday ()";
  check_clean "no-wall-clock" "let t = Sys.timeout";
  (* bench/ is exempt by scope. *)
  Alcotest.(check (list string))
    "bench exempt" []
    (rules_fired
       (Engine.check_source ~only:[ "no-wall-clock" ] ~path:"bench/main.ml"
          "let t = Unix.gettimeofday ()"));
  (* lib/serve is exempt too: the daemon times service for its stats. *)
  Alcotest.(check (list string))
    "lib/serve exempt" []
    (rules_fired
       (Engine.check_source ~only:[ "no-wall-clock" ]
          ~path:"lib/serve/server.ml" "let t = Unix.gettimeofday ()"))

let test_unix_dependency_fence () =
  let rule = "unix-dependency-fence" in
  let at path src =
    rules_fired (Engine.check_source ~only:[ rule ] ~path src)
  in
  check_fires rule "let fd = Unix.socket d t 0";
  check_fires rule "let t = Unix.gettimeofday ()";
  check_clean rule "(* Unix.socket would be wrong here *) let x = 1";
  check_clean rule "let fd = Unix.socket d t 0 (* lint: allow unix-dependency-fence *)";
  (* dune stanzas: a unix library dependency fires; mentions inside dotted
     paths or comments do not. *)
  Alcotest.(check (list string))
    "dune dep fires" [ rule ]
    (at "lib/fake/dune" "(library\n (name fake)\n (libraries cold unix))");
  Alcotest.(check (list string))
    "dune without unix quiet" []
    (at "lib/fake/dune" "(library\n (name fake)\n (libraries cold))");
  (* lib/serve may link unix; bin/ and bench/ are out of scope entirely. *)
  Alcotest.(check (list string))
    "lib/serve exempt" []
    (at "lib/serve/dune" "(library\n (name cold_serve)\n (libraries unix))");
  Alcotest.(check (list string))
    "lib/serve code exempt" []
    (at "lib/serve/server.ml" "let fd = Unix.socket d t 0");
  Alcotest.(check (list string))
    "bin out of scope" []
    (at "bin/cold_serve_main.ml" "let () = Unix.sleep 1");
  Alcotest.(check (list string))
    "bench out of scope" []
    (at "bench/dune" "(executable\n (name b)\n (libraries unix))")

let test_no_polymorphic_compare () =
  check_fires "no-polymorphic-compare" "let xs = List.sort compare xs";
  check_fires "no-polymorphic-compare" "let c = Stdlib.compare a b";
  check_clean "no-polymorphic-compare" "let xs = List.sort Int.compare xs";
  check_clean "no-polymorphic-compare" "let compare a b = Int.compare a b";
  check_clean "no-polymorphic-compare" "let f = sort ~compare:Int.compare";
  check_clean "no-polymorphic-compare"
    "let xs = List.sort compare xs (* lint: allow no-polymorphic-compare *)";
  (* Suppression comment on the line above also covers the violation. *)
  check_clean "no-polymorphic-compare"
    "(* lint: allow no-polymorphic-compare *)\nlet xs = List.sort compare xs"

let test_no_failwith_in_lib () =
  check_fires "no-failwith-in-lib" "let f () = failwith \"nope\"";
  check_clean "no-failwith-in-lib" "let f () = invalid_arg \"nope\"";
  check_clean "no-failwith-in-lib" "let s = \"failwith\"";
  (* Out of scope: tests may failwith. *)
  Alcotest.(check (list string))
    "test scope exempt" []
    (rules_fired
       (Engine.check_source ~only:[ "no-failwith-in-lib" ]
          ~path:"test/test_x.ml" "let f () = failwith \"nope\""))

let test_mli_required () =
  Alcotest.(check (list string))
    "missing mli flagged" [ "mli-required" ]
    (rules_fired (lint ~only:[ "mli-required" ] ~mli_exists:false "let x = 1"));
  Alcotest.(check (list string))
    "present mli ok" []
    (rules_fired (lint ~only:[ "mli-required" ] ~mli_exists:true "let x = 1"));
  Alcotest.(check (list string))
    "unknown stays quiet" []
    (rules_fired (lint ~only:[ "mli-required" ] "let x = 1"));
  check_clean "mli-required" "(* lint: allow mli-required *)\nlet x = 1"

let test_no_naked_float_eq () =
  check_fires "no-naked-float-eq" "let f x = if x = 0.0 then 1 else 2";
  check_fires "no-naked-float-eq" "let f x = x <> 1.0";
  check_fires "no-naked-float-eq" "let f x = when_ (0.5 = x)";
  check_fires "no-naked-float-eq" "let f x = x == 0.0";
  (* Bindings and record fields are not comparisons. *)
  check_clean "no-naked-float-eq" "let x = 0.0";
  check_clean "no-naked-float-eq" "let r = { load = 1.0; size = 100.0 }";
  check_clean "no-naked-float-eq" "let f ?(level = 0.95) () = level";
  check_clean "no-naked-float-eq" "let ok = Float.equal x 0.0";
  check_clean "no-naked-float-eq" "let ok = x <= 0.0 || x >= 1.0";
  check_clean "no-naked-float-eq"
    "let f x = if x = 0.0 then 1 else 2 (* lint: allow no-naked-float-eq *)"

let test_no_polymorphic_minmax () =
  check_fires "no-polymorphic-minmax" "let m = max 0.0 x";
  check_fires "no-polymorphic-minmax" "let m = Array.fold_left max 0.0 xs";
  check_fires "no-polymorphic-minmax" "let m = min x infinity";
  check_fires "no-polymorphic-minmax" "let c = compare x 1.5";
  (* Qualified, int-looking, defining and labelled uses stay quiet. *)
  check_clean "no-polymorphic-minmax" "let m = Float.max 0.0 x";
  check_clean "no-polymorphic-minmax" "let m = max 0 x";
  check_clean "no-polymorphic-minmax" "let m = max a b";
  check_clean "no-polymorphic-minmax" "let max a b = if a > b then a else b";
  check_clean "no-polymorphic-minmax" "let f = sort ~compare:Float.compare";
  (* A float past the argument window or a break token is out of reach. *)
  check_clean "no-polymorphic-minmax" "let m = max a b in x +. 0.5";
  check_clean "no-polymorphic-minmax" "let m = if max a b > 0 then 1.0 else 2.0";
  check_clean "no-polymorphic-minmax"
    "let m = max 0.0 x (* lint: allow no-polymorphic-minmax *)"

let test_inferred_float_idents () =
  (* The intra-file pass tracks let-bound floats, so unannotated uses of
     inferred-float identifiers fire even without a literal in the window. *)
  check_fires "no-polymorphic-minmax" "let x = 1.5\nlet m = max x y";
  check_fires "no-polymorphic-minmax" "let r = sqrt v in min r cap";
  check_fires "no-polymorphic-minmax" "let d = Float.of_int n in compare d y";
  check_fires "no-naked-float-eq" "let x = float_of_int n\nlet b = x <> y";
  check_fires "no-naked-float-eq" "let f (x : float) y = if x = y then 1 else 2";
  check_fires "no-naked-float-eq" "let cost : float = score g in cost == best";
  (* Rebinding to a non-float evicts the identifier. *)
  check_clean "no-polymorphic-minmax" "let x = 1.5\nlet x = 1\nlet m = max x y";
  check_clean "no-naked-float-eq" "let x = 1.5\nlet x = 1\nlet b = x <> y";
  (* Alias bindings are bindings, not comparisons. *)
  check_clean "no-naked-float-eq" "let x = 1.5\nlet y = x";
  check_clean "no-polymorphic-minmax" "let m = max a b in let x = 1.5 in x"

let test_hashtbl_iteration_order () =
  check_fires "hashtbl-iteration-order"
    "let xs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []";
  check_fires "hashtbl-iteration-order"
    "let () = Hashtbl.iter (fun k _ -> out := k :: !out) tbl";
  check_fires "hashtbl-iteration-order"
    "let () = Hashtbl.iter (fun k v -> Printf.printf \"%d %d\" k v) tbl";
  check_fires "hashtbl-iteration-order" "let s = Hashtbl.to_seq tbl";
  (* A canonicalizing sort upstream of the fold makes the order harmless. *)
  check_clean "hashtbl-iteration-order"
    "let xs =\n\
    \  List.sort\n\
    \    (fun (k1, _) (k2, _) -> Int.compare k1 k2)\n\
    \    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])";
  (* Per-binding in-place mutation is order-insensitive. *)
  check_clean "hashtbl-iteration-order"
    "let () = Hashtbl.iter (fun _ f -> f.remaining <- f.remaining -. dt) tbl";
  (* The blessed wrappers are the sanctioned spelling. *)
  check_clean "hashtbl-iteration-order"
    "let xs = Tbl.sorted_bindings ~cmp:Int.compare tbl";
  check_clean "hashtbl-iteration-order"
    "let xs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] (* lint: \
     allow hashtbl-iteration-order *)";
  (* lib/util/tbl.ml implements the wrappers, so raw iteration is exempt. *)
  Alcotest.(check (list string))
    "tbl.ml exempt" []
    (rules_fired
       (Engine.check_source
          ~only:[ "hashtbl-iteration-order" ]
          ~path:"lib/util/tbl.ml"
          "let xs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []"))

let test_todo_tracker () =
  check_fires "todo-tracker" "(* TODO fix the frobnicator *)";
  check_fires "todo-tracker" "(* FIXME *)";
  check_clean "todo-tracker" "(* TODO(alice): fix the frobnicator *)";
  check_clean "todo-tracker" "(* FIXME(#42) handle overflow *)";
  check_clean "todo-tracker" "(* the todo list datatype *)";
  check_clean "todo-tracker" "(* TODOS are plural words, not markers *)";
  check_clean "todo-tracker" "(* TODO later *) (* lint: allow todo-tracker *)"

let test_magic_cost_constant () =
  check_fires "magic-cost-constant" "let p = Cost.params ~k2:2e-4 ()";
  check_fires "magic-cost-constant" "let p = { p with k3 = 300.0 }";
  check_clean "magic-cost-constant" "let p = Cost.params ~k2 ()";
  check_clean "magic-cost-constant" "let p = Cost.params ~k1:unit_k1 ()";
  (* presets.ml is the sanctioned home. *)
  Alcotest.(check (list string))
    "presets exempt" []
    (rules_fired
       (Engine.check_source ~only:[ "magic-cost-constant" ]
          ~path:"lib/core/presets.ml" "let p = Cost.params ~k2:2e-4 ()"));
  (* k-params in tests/bench are exploratory, not canonical. *)
  Alcotest.(check (list string))
    "test scope exempt" []
    (rules_fired
       (Engine.check_source ~only:[ "magic-cost-constant" ]
          ~path:"test/test_cost.ml" "let p = Cost.params ~k2:2e-4 ()"))

(* --- engine ------------------------------------------------------------------- *)

let test_multi_rule_suppression () =
  let src =
    "let x = Random.int 5 |> compare 3 (* lint: allow no-stdlib-random \
     no-polymorphic-compare *)"
  in
  Alcotest.(check (list string)) "both suppressed" [] (rules_fired (lint src))

let test_comments_and_strings_inert () =
  (* Code-shaped text inside comments and string literals never fires. *)
  check_clean "no-failwith-in-lib" "(* a (* failwith *) b *) let x = 1";
  check_clean "no-failwith-in-lib" {|let s = "failwith (* not a comment"|};
  check_clean "no-failwith-in-lib" "let s = {xx|failwith \"raw\"|xx}";
  check_clean "no-failwith-in-lib" "let s = {foo_bar|failwith|foo_bar}";
  check_clean "no-stdlib-random" "let s = {|a \"b\" Random.int c|}";
  check_clean "todo-tracker" "let s = \"(* TODO *)\"";
  (* A literal spanning lines advances the line count for what follows. *)
  match
    lint ~only:[ "no-failwith-in-lib" ]
      "let s = {q|one\ntwo\nthree|q}\nlet f () = failwith \"x\""
  with
  | [ f ] -> Alcotest.(check int) "finding on line 4" 4 f.Finding.line
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

let test_multi_line_suppression () =
  (* A comment covers every line it touches plus the next one. *)
  let allow = "(* lint: allow no-wall-clock\n   the clock is the point *)" in
  check_clean "no-wall-clock" (allow ^ "\nlet t = Sys.time ()");
  check_clean "no-wall-clock"
    "let t = Sys.time () (* lint: allow no-wall-clock\n   spans lines *)";
  check_fires "no-wall-clock" (allow ^ "\n\nlet t = Sys.time ()")

let test_syntax_error () =
  (* A source the compiler rejects fails the run, naming file and line. *)
  (match
     Engine.check_sources
       [ ("lib/ok.ml", "let x = 1"); ("lib/bad.ml", "let x = 1\nlet y = (") ]
   with
  | Error msg ->
    Alcotest.(check string) "names file and line"
      "lib/bad.ml:2: Syntax error: operator expected." msg
  | Ok _ -> Alcotest.fail "unparsable source accepted");
  match Engine.check_source ~path:"lib/bad.ml" "let s = \"open" with
  | exception Engine.Syntax_error msg ->
    Alcotest.(check string) "check_source raises"
      "lib/bad.ml:1: String literal not terminated" msg
  | _ -> Alcotest.fail "check_source accepted an unparsable source"

let test_unknown_rule_rejected () =
  match Engine.check_paths ~only:[ "no-such-rule" ] [ "lib" ] with
  | Error msg ->
    Alcotest.(check bool) "mentions rule" true
      (String.length msg > 0 && msg = "unknown rule: no-such-rule")
  | Ok _ -> Alcotest.fail "expected Error for unknown rule"

let test_findings_sorted () =
  let src = "let f () = failwith (string_of_float (Sys.time ()))" in
  let fs = lint ~only:[ "no-failwith-in-lib"; "no-wall-clock" ] src in
  Alcotest.(check (list string))
    "canonical order" [ "no-failwith-in-lib"; "no-wall-clock" ]
    (List.map (fun f -> f.Finding.rule) fs)

let test_repo_is_clean () =
  (* The acceptance bar: the shipped tree has no violations beyond the
     committed baseline. Runs from test/ in the dune sandbox, so point at
     the project root via cwd. *)
  match
    Engine.check_paths [ "../lib"; "../bin"; "../test"; "../bench" ]
  with
  | Ok fs -> (
    let baseline =
      match Baseline.load ~path:"../lint-baseline.json" with
      | Ok b -> b
      | Error _ -> []
    in
    let d = Baseline.diff ~baseline fs in
    match d.Baseline.fresh with
    | [] -> ()
    | f :: _ ->
      Alcotest.failf "repo has %d new lint violation(s), first: %s"
        (List.length d.Baseline.fresh)
        (Finding.to_string f))
  | Error _ ->
    (* Source tree not materialized in this sandbox; the @lint alias covers
       the real run. *)
    ()

(* --- baseline ------------------------------------------------------------------ *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let fnd rule file line msg = Finding.make ~rule ~file ~line msg

let test_baseline_load () =
  let fs =
    [
      fnd "no-wall-clock" "lib/a.ml" 3 "say \"hi\"\tand\\more";
      fnd "todo-tracker" "lib/b.ml" 7 "bare TODO";
    ]
  in
  (* The baseline format IS the --json report, so a write/load round-trip
     must be the identity. *)
  let path = Filename.temp_file "cold_lint_baseline" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_file path (Report.json fs);
  (match Baseline.load ~path with
  | Ok got -> Alcotest.(check bool) "round-trips" true (got = fs)
  | Error e -> Alcotest.fail e);
  write_file path "{ \"not\": \"an array\" }";
  (match Baseline.load ~path with
  | Error msg ->
    Alcotest.(check bool) "error names the file" true
      (String.length msg > 0
      && String.sub msg 0 (String.length path) = path)
  | Ok _ -> Alcotest.fail "non-array baseline accepted");
  write_file path "[ { \"rule\": \"r\" } ]";
  (match Baseline.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incomplete finding accepted");
  write_file path "[] trailing";
  (match Baseline.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing content accepted");
  match Baseline.load ~path:"no_such_baseline.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing baseline accepted"

let test_baseline_diff () =
  let a = fnd "no-wall-clock" "lib/a.ml" 3 "msg-a" in
  let a_shifted = fnd "no-wall-clock" "lib/a.ml" 9 "msg-a" in
  let b = fnd "todo-tracker" "lib/b.ml" 7 "msg-b" in
  (* Line shifts are absorbed; genuinely new findings are fresh. *)
  let d = Baseline.diff ~baseline:[ a ] [ a_shifted; b ] in
  Alcotest.(check bool) "line shift absorbed" true (d.Baseline.fresh = [ b ]);
  Alcotest.(check int) "baselined count" 1 d.Baseline.baselined;
  Alcotest.(check int) "no stale" 0 d.Baseline.stale;
  (* Multiset semantics: a baseline entry absorbs at most one finding. *)
  let d2 = Baseline.diff ~baseline:[ a ] [ a; a_shifted ] in
  Alcotest.(check int) "duplicate is fresh" 1 (List.length d2.Baseline.fresh);
  (* Fixed violations surface as stale entries. *)
  let d3 = Baseline.diff ~baseline:[ a; b ] [] in
  Alcotest.(check int) "all stale" 2 d3.Baseline.stale;
  Alcotest.(check bool) "nothing fresh" true (d3.Baseline.fresh = []);
  (* Empty baseline degenerates to plain linting, in canonical order. *)
  let d4 = Baseline.diff ~baseline:[] [ b; a ] in
  Alcotest.(check bool) "canonical order" true (d4.Baseline.fresh = [ a; b ])

let test_baseline_multiset_mixed () =
  (* One diff exercising all three buckets at once: the baseline carries a
     duplicated legacy entry, one copy got fixed (stale), the other still
     fires shifted (baselined), and an unrelated new violation appears
     (fresh). *)
  let a = fnd "no-wall-clock" "lib/a.ml" 3 "msg-a" in
  let a_shifted = fnd "no-wall-clock" "lib/a.ml" 11 "msg-a" in
  let c = fnd "todo-tracker" "lib/c.ml" 2 "msg-c" in
  let d = Baseline.diff ~baseline:[ a; a ] [ a_shifted; c ] in
  Alcotest.(check bool) "only the new finding gates" true
    (d.Baseline.fresh = [ c ]);
  Alcotest.(check int) "surviving copy absorbed" 1 d.Baseline.baselined;
  Alcotest.(check int) "fixed copy is stale" 1 d.Baseline.stale;
  (* Pruning: a baseline rewritten from current findings has no stale
     entries and absorbs everything. *)
  let pruned = Baseline.diff ~baseline:[ a_shifted; c ] [ a_shifted; c ] in
  Alcotest.(check int) "pruned: no stale" 0 pruned.Baseline.stale;
  Alcotest.(check int) "pruned: all absorbed" 2 pruned.Baseline.baselined;
  Alcotest.(check bool) "pruned: nothing fresh" true
    (pruned.Baseline.fresh = [])

let test_baseline_chain_roundtrip () =
  let chain =
    [
      { Finding.cfile = "lib/a.ml"; cline = 3; cname = "A.entry" };
      { Finding.cfile = "lib/b.ml"; cline = 9; cname = "B.src" };
    ]
  in
  let f =
    Finding.make ~rule:"nondet-taint" ~file:"lib/a.ml" ~line:3
      ~id:"A.entry<-B.src#wall-clock" ~chain "reaches a wall-clock read"
  in
  (* Chain findings survive the --json -> load round-trip intact. *)
  let path = Filename.temp_file "cold_lint_chain" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_file path (Report.json [ f ]);
  (match Baseline.load ~path with
  | Ok got -> Alcotest.(check bool) "chain round-trips" true (got = [ f ])
  | Error e -> Alcotest.fail e);
  (* The diff keys on the stable id: shifted lines, a reshuffled chain and
     even a reworded message still match the baseline entry. *)
  let moved =
    Finding.make ~rule:"nondet-taint" ~file:"lib/a.ml" ~line:40
      ~id:"A.entry<-B.src#wall-clock"
      ~chain:[ { Finding.cfile = "lib/a.ml"; cline = 40; cname = "A.entry" } ]
      "reworded"
  in
  let d = Baseline.diff ~baseline:[ f ] [ moved ] in
  Alcotest.(check bool) "id absorbs drift" true
    (d.Baseline.fresh = [] && d.Baseline.baselined = 1);
  (* A different source kind is a different id — it gates. *)
  let other =
    Finding.make ~rule:"nondet-taint" ~file:"lib/a.ml" ~line:3
      ~id:"A.entry<-B.src#stdlib-random" ~chain "reaches Stdlib.Random"
  in
  let d2 = Baseline.diff ~baseline:[ f ] [ other ] in
  Alcotest.(check int) "new source gates" 1 (List.length d2.Baseline.fresh)

(* --- interprocedural (deep) pass ----------------------------------------------- *)

let check_deep ?only ?deep sources =
  match Engine.check_sources ?only ?deep sources with
  | Ok fs -> fs
  | Error e -> Alcotest.fail e

(* The acceptance scenario from the issue: a nondeterminism source in one
   module, laundered through a helper in a second, handed to Cold_par by a
   third. Every file exports through an .mli. *)
let planted ?(noise = "let jitter () = Random.float 1.0")
    ?(worker =
      "let task x = Helper.scale x\n\n\
       let run pool xs = Par.map_array pool task xs") () =
  [
    ("lib/chaos/noise.ml", noise);
    ("lib/chaos/noise.mli", "val jitter : unit -> float");
    ("lib/chaos/helper.ml", "let scale x = x *. Noise.jitter ()");
    ("lib/chaos/helper.mli", "val scale : float -> float");
    ("lib/chaos/worker.ml", worker);
    ( "lib/chaos/worker.mli",
      "val task : float -> float\nval run : 'a -> float array -> float array"
    );
  ]

let chain_names (f : Finding.t) =
  List.map (fun l -> l.Finding.cname) f.Finding.chain

let test_deep_chain_detection () =
  let fs = check_deep ~only:[ "nondet-taint" ] (planted ()) in
  (* One finding per sink file: noise (the source itself is exported),
     helper, worker. *)
  Alcotest.(check (list string))
    "one finding per sink file"
    [ "lib/chaos/helper.ml"; "lib/chaos/noise.ml"; "lib/chaos/worker.ml" ]
    (List.map (fun f -> f.Finding.file) fs);
  let worker =
    List.find (fun f -> f.Finding.file = "lib/chaos/worker.ml") fs
  in
  Alcotest.(check (list string))
    "full three-file chain, sink to source"
    [ "Worker.task"; "Helper.scale"; "Noise.jitter" ]
    (chain_names worker);
  Alcotest.(check (option string))
    "stable id names defs, not lines"
    (Some "Worker.task<-Noise.jitter#stdlib-random")
    worker.Finding.id;
  (* The rendered forms carry the chain. *)
  Alcotest.(check bool) "text shows chain" true
    (let s = Finding.to_string worker in
     let has sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     has "chain:" && has "Noise.jitter");
  Alcotest.(check bool) "json shows chain" true
    (let s = Finding.to_json worker in
     let n = String.length s and sub = {|"chain": [|} in
     let m = String.length sub in
     let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
     go 0)

let test_deep_sink_suppression () =
  let worker =
    "(* lint: allow nondet-taint deliberate chaos injection *)\n\
     let task x = Helper.scale x\n\n\
     let run pool xs = Par.map_array pool task xs"
  in
  let fs = check_deep ~only:[ "nondet-taint" ] (planted ~worker ()) in
  (* The suppressed sink is silent; the other entry points still gate. *)
  Alcotest.(check (list string))
    "only the suppressed sink is silent"
    [ "lib/chaos/helper.ml"; "lib/chaos/noise.ml" ]
    (List.map (fun f -> f.Finding.file) fs)

let test_deep_source_suppression () =
  let noise =
    "(* lint: allow no-stdlib-random nondet-taint seeded chaos model *)\n\
     let jitter () = Random.float 1.0"
  in
  let fs = check_deep ~only:[ "nondet-taint" ] (planted ~noise ()) in
  Alcotest.(check (list string))
    "source suppression silences every chain" []
    (List.map (fun f -> f.Finding.file) fs)

let test_deep_alias_and_helper_sources () =
  (* [let cmp = compare] taints every caller of the alias. *)
  let aliased =
    [
      ( "lib/chaos/order.ml",
        "let cmp = compare\n\nlet canonical xs = List.sort cmp xs" );
      ("lib/chaos/order.mli", "val canonical : int list -> int list");
    ]
  in
  (match check_deep ~only:[ "nondet-taint" ] aliased with
  | [ f ] ->
    Alcotest.(check (option string))
      "alias chain id" (Some "Order.canonical<-Order.cmp#poly-compare")
      f.Finding.id
  | fs ->
    Alcotest.failf "expected 1 aliased-compare finding, got %d"
      (List.length fs));
  (* A named helper that accumulates inside [Hashtbl.iter helper tbl] is
     invisible to the token rule but is a deep source. *)
  let helper =
    [
      ( "lib/chaos/dumper.ml",
        "let out = ref []\n\n\
         let note k _ = out := k :: !out\n\n\
         let dump tbl = Hashtbl.iter note tbl" );
      ("lib/chaos/dumper.mli", "val dump : (int, int) Hashtbl.t -> unit");
    ]
  in
  Alcotest.(check (list string))
    "token pass is blind to the helper" []
    (rules_fired (check_deep ~deep:false helper
                 |> List.filter (fun f ->
                        f.Finding.rule = "hashtbl-iteration-order")));
  Alcotest.(check bool) "deep pass sees through the helper" true
    (List.exists
       (fun f -> f.Finding.rule = "nondet-taint")
       (check_deep ~only:[ "nondet-taint" ] helper))

let test_deep_par_mutation () =
  let racy =
    [
      ( "lib/chaos/counts.ml",
        "let hits = ref 0\n\n\
         let bump x =\n\
        \  incr hits;\n\
        \  x\n\n\
         let crunch pool xs = Par.map_array pool bump xs" );
      ( "lib/chaos/counts.mli",
        "val bump : int -> int\nval crunch : 'a -> int array -> int array" );
    ]
  in
  let fs = check_deep ~only:[ "par-unsync-mutation" ] racy in
  (match fs with
  | [ f ] ->
    Alcotest.(check (list string))
      "chain runs scheduler -> task"
      [ "Counts.crunch"; "Counts.bump" ]
      (chain_names f)
  | fs -> Alcotest.failf "expected 1 par-mutation finding, got %d"
            (List.length fs));
  (* Atomic mediation makes the same shape safe. *)
  let mediated =
    [
      ( "lib/chaos/counts.ml",
        "let hits = Atomic.make 0\n\n\
         let bump x =\n\
        \  Atomic.incr hits;\n\
        \  x\n\n\
         let crunch pool xs = Par.map_array pool bump xs" );
      ( "lib/chaos/counts.mli",
        "val bump : int -> int\nval crunch : 'a -> int array -> int array" );
    ]
  in
  Alcotest.(check (list string))
    "Atomic-mediated state is quiet" []
    (rules_fired (check_deep ~only:[ "par-unsync-mutation" ] mediated))

let test_deep_mutex_balance () =
  let leak =
    [
      ( "lib/chaos/locks.ml",
        "let m = Mutex.create ()\n\nlet grab () = Mutex.lock m" );
      ("lib/chaos/locks.mli", "val grab : unit -> unit");
    ]
  in
  Alcotest.(check (list string))
    "lock without unlock fires" [ "mutex-unbalanced" ]
    (rules_fired (check_deep ~only:[ "mutex-unbalanced" ] leak));
  (* An unlock reachable through a callee balances the lock. *)
  let balanced =
    [
      ( "lib/chaos/locks.ml",
        "let m = Mutex.create ()\n\n\
         let release () = Mutex.unlock m\n\n\
         let grab () =\n\
        \  Mutex.lock m;\n\
        \  release ()" );
      ("lib/chaos/locks.mli", "val grab : unit -> unit\nval release : unit -> unit");
    ]
  in
  Alcotest.(check (list string))
    "transitively balanced lock is quiet" []
    (rules_fired (check_deep ~only:[ "mutex-unbalanced" ] balanced))

let test_deep_flag_and_slicing () =
  (* ~deep:false restores token-only behaviour; the default runs both. *)
  Alcotest.(check (list string))
    "no-deep is token-only" [ "no-stdlib-random" ]
    (rules_fired (check_deep ~deep:false (planted ())));
  Alcotest.(check bool) "default runs the deep pass" true
    (List.mem "nondet-taint" (rules_fired (check_deep (planted ()))));
  (* --rules slices across the two passes. *)
  Alcotest.(check (list string))
    "token-only slice skips deep" [ "no-stdlib-random" ]
    (rules_fired (check_deep ~only:[ "no-stdlib-random" ] (planted ())));
  Alcotest.(check (list string))
    "mixed slice runs both" [ "no-stdlib-random"; "nondet-taint" ]
    (rules_fired
       (check_deep ~only:[ "no-stdlib-random"; "nondet-taint" ] (planted ())));
  match Engine.check_sources ~only:[ "no-such-rule" ] (planted ()) with
  | Error msg ->
    Alcotest.(check string) "unknown rule rejected" "unknown rule: no-such-rule"
      msg
  | Ok _ -> Alcotest.fail "expected Error for unknown rule"

let test_deep_catalogue_sync () =
  (* rules.ml catalogues the deep rules by literal name; taint.ml owns the
     implementations. The two lists must never drift. *)
  Alcotest.(check (list string))
    "catalogue matches implementation"
    (List.map (fun (i : Rules.info) -> i.Rules.iname) Rules.deep)
    Cold_lint.Taint.rule_names;
  List.iter
    (fun (i : Rules.info) ->
      Alcotest.(check bool) (i.Rules.iname ^ " known") true
        (Rules.known i.Rules.iname);
      Alcotest.(check bool) (i.Rules.iname ^ " not a token rule") true
        (Rules.find i.Rules.iname = None);
      match Rules.info i.Rules.iname with
      | Some info ->
        Alcotest.(check bool) (i.Rules.iname ^ " documented") true
          (String.length info.Rules.isummary > 0
          && String.length info.Rules.irationale > 0)
      | None -> Alcotest.failf "no info for %s" i.Rules.iname)
    Rules.deep;
  Alcotest.(check bool) "token rules visible through info" true
    (Rules.info "no-wall-clock" <> None)

(* --- reporters ----------------------------------------------------------------- *)

let test_reporters () =
  let f =
    Finding.make ~rule:"no-wall-clock" ~file:"lib/a.ml" ~line:3 "say \"hi\""
  in
  Alcotest.(check string)
    "text line" "lib/a.ml:3: [no-wall-clock] say \"hi\""
    (Finding.to_string f);
  Alcotest.(check string)
    "json object"
    {|{"rule": "no-wall-clock", "file": "lib/a.ml", "line": 3, "message": "say \"hi\""}|}
    (Finding.to_json f);
  Alcotest.(check string) "empty json" "[]\n" (Report.json []);
  Alcotest.(check bool) "clean text" true (Report.text [] = "cold_lint: clean\n");
  let body = Report.json [ f; f ] in
  Alcotest.(check bool) "json array wraps" true
    (String.length body > 2 && body.[0] = '[')

let test_rule_catalogue () =
  Alcotest.(check int) "eleven token rules" 11 (List.length Rules.all);
  Alcotest.(check int) "three deep rules" 3 (List.length Rules.deep);
  List.iter
    (fun (r : Rules.t) ->
      Alcotest.(check bool)
        (r.Rules.name ^ " findable") true
        (Rules.find r.Rules.name <> None);
      Alcotest.(check bool)
        (r.Rules.name ^ " documented") true
        (String.length r.Rules.summary > 0 && String.length r.Rules.rationale > 0))
    Rules.all

let () =
  Alcotest.run "cold_lint"
    [
      ( "rules",
        [
          Alcotest.test_case "no-stdlib-random" `Quick test_no_stdlib_random;
          Alcotest.test_case "no-wall-clock" `Quick test_no_wall_clock;
          Alcotest.test_case "unix-dependency-fence" `Quick
            test_unix_dependency_fence;
          Alcotest.test_case "no-polymorphic-compare" `Quick
            test_no_polymorphic_compare;
          Alcotest.test_case "no-failwith-in-lib" `Quick test_no_failwith_in_lib;
          Alcotest.test_case "mli-required" `Quick test_mli_required;
          Alcotest.test_case "no-naked-float-eq" `Quick test_no_naked_float_eq;
          Alcotest.test_case "no-polymorphic-minmax" `Quick
            test_no_polymorphic_minmax;
          Alcotest.test_case "inferred float idents" `Quick
            test_inferred_float_idents;
          Alcotest.test_case "hashtbl-iteration-order" `Quick
            test_hashtbl_iteration_order;
          Alcotest.test_case "todo-tracker" `Quick test_todo_tracker;
          Alcotest.test_case "magic-cost-constant" `Quick
            test_magic_cost_constant;
        ] );
      ( "engine",
        [
          Alcotest.test_case "multi-rule suppression" `Quick
            test_multi_rule_suppression;
          Alcotest.test_case "comments and strings are inert" `Quick
            test_comments_and_strings_inert;
          Alcotest.test_case "multi-line suppression" `Quick
            test_multi_line_suppression;
          Alcotest.test_case "syntax error" `Quick test_syntax_error;
          Alcotest.test_case "unknown rule rejected" `Quick
            test_unknown_rule_rejected;
          Alcotest.test_case "findings sorted" `Quick test_findings_sorted;
          Alcotest.test_case "repo tree is clean" `Quick test_repo_is_clean;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "load" `Quick test_baseline_load;
          Alcotest.test_case "diff" `Quick test_baseline_diff;
          Alcotest.test_case "multiset mixed diff" `Quick
            test_baseline_multiset_mixed;
          Alcotest.test_case "chain round-trip" `Quick
            test_baseline_chain_roundtrip;
        ] );
      ( "deep",
        [
          Alcotest.test_case "chain detection" `Quick test_deep_chain_detection;
          Alcotest.test_case "sink suppression" `Quick
            test_deep_sink_suppression;
          Alcotest.test_case "source suppression" `Quick
            test_deep_source_suppression;
          Alcotest.test_case "alias and helper sources" `Quick
            test_deep_alias_and_helper_sources;
          Alcotest.test_case "par mutation" `Quick test_deep_par_mutation;
          Alcotest.test_case "mutex balance" `Quick test_deep_mutex_balance;
          Alcotest.test_case "flag and rule slicing" `Quick
            test_deep_flag_and_slicing;
          Alcotest.test_case "catalogue sync" `Quick test_deep_catalogue_sync;
        ] );
      ( "report",
        [
          Alcotest.test_case "text and json" `Quick test_reporters;
          Alcotest.test_case "catalogue" `Quick test_rule_catalogue;
        ] );
    ]
