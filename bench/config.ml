(* Shared configuration for the experiment harness.

   COLD_BENCH_SCALE selects the fidelity/run-time trade-off:
     smoke — seconds; sanity only.
     quick — minutes; the default. Reproduces every figure's shape with
             reduced trial counts and a reduced GA.
     full  — paper scale (T = M = 100, 20 trials, n up to 100, brute force
             to n = 7). Expect a long run. *)

type scale = Smoke | Quick | Full

let scale =
  match Sys.getenv_opt "COLD_BENCH_SCALE" with
  | Some "full" -> Full
  | Some "smoke" -> Smoke
  | _ -> Quick

let scale_name = match scale with Smoke -> "smoke" | Quick -> "quick" | Full -> "full"

(* Number of PoPs for the §6 tunability experiments (paper: 30). *)
let n_pops = match scale with Smoke -> 16 | Quick | Full -> 30

(* Trials per parameter point. Paper: 20 (Fig 3) / 200 (Figs 5-9). *)
let trials = match scale with Smoke -> 2 | Quick -> 5 | Full -> 20

let ga_settings =
  match scale with
  | Smoke -> Cold.Ga.settings_for ~population:30 ~generations:20
  | Quick -> Cold.Ga.settings_for ~population:50 ~generations:50
  | Full -> Cold.Ga.default_settings (* T = M = 100, as in §5 *)

let heuristic_permutations = match scale with Smoke -> 2 | Quick -> 3 | Full -> 10

(* The paper's Fig 3/5-9 x-axis: k2 from 2.5e-5 to 1.6e-3 (log grid). *)
let k2_grid =
  match scale with
  | Smoke -> [ 2.5e-5; 1.6e-3 ]
  | Quick -> [ 2.5e-5; 1.0e-4; 4.0e-4; 1.6e-3 ]
  | Full -> [ 2.5e-5; 5.0e-5; 1.0e-4; 2.0e-4; 4.0e-4; 8.0e-4; 1.6e-3 ]

(* Fig 5-7 series: k3 ∈ {0, 10, 100, 1000}. *)
let k3_series = [ 0.0; 10.0; 100.0; 1000.0 ]

(* Fig 8b/9 x-axis: k3 sweep at fixed k2 values. *)
let k3_grid =
  match scale with
  | Smoke -> [ 1.0; 1000.0 ]
  | Quick -> [ 1.0; 10.0; 100.0; 1000.0 ]
  | Full -> [ 1.0; 3.0; 10.0; 30.0; 100.0; 300.0; 1000.0 ]

let fig8_k2_series = [ 2.5e-5; 1.0e-4; 4.0e-4; 1.6e-3 ]

(* Fig 4 network sizes. Paper: up to several hundred. *)
let fig4_sizes =
  match scale with
  | Smoke -> [ 8; 12; 16 ]
  | Quick -> [ 10; 14; 20; 28; 40; 56 ]
  | Full -> [ 10; 14; 20; 28; 40; 56; 80; 100 ]

(* Brute-force validation size (§5: up to 8 in the paper; 2^21 graphs at
   n = 7 already takes minutes). *)
let brute_force_n = match scale with Smoke -> 5 | Quick -> 6 | Full -> 7

let table1_trials = match scale with Smoke -> 4 | Quick -> 8 | Full -> 20

let zoo_count = match scale with Smoke -> 60 | Quick -> 250 | Full -> 250

let fig1_sizes =
  match scale with
  | Smoke -> [ 10; 20; 30 ]
  | Quick | Full -> [ 10; 15; 20; 25; 30; 35; 40; 45; 50 ]

let master_seed = 20140702 (* CoNEXT'14 camera-ready vibes; any constant works. *)

let synthesis_config ?(params = Cold.Cost.params ()) () =
  {
    (Cold.Synthesis.default_config ~params ()) with
    Cold.Synthesis.ga = ga_settings;
    heuristic_permutations;
  }

(* --- output helpers --------------------------------------------------------- *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n" title

let time_it = Bench_config.timed

let pp_ci (ci : Cold_stats.Bootstrap.interval) =
  Printf.sprintf "%8.3f [%8.3f, %8.3f]" ci.Cold_stats.Bootstrap.point
    ci.Cold_stats.Bootstrap.lo ci.Cold_stats.Bootstrap.hi

(* Mean + bootstrap CI of a per-trial statistic, with a deterministic
   bootstrap stream per label. *)
let ci_of label values =
  Cold_stats.Bootstrap.mean_ci
    (Cold_prng.Prng.create (Cold_prng.Prng.seed_of_string label))
    values

(* --- flat-JSON bench records -------------------------------------------------- *)

(* BENCH_*.json files are arrays of one-level objects (string and number
   values, no nesting). Benches used to clobber these files wholesale, which
   meant one bench's rerun erased every other bench's cells. The helpers
   below instead merge: rows are identified by a key (a list of field
   names), matching rows are replaced, everything else is preserved
   verbatim, and rows missing a key field — leftovers from an older schema —
   are dropped. A purpose-built scanner for exactly this flat shape keeps
   the harness dependency-free. *)

let split_json_objects s =
  (* Raw "{...}" substrings of a flat JSON array, in order. *)
  let objs = ref [] and depth = ref 0 and start = ref 0 in
  String.iteri
    (fun i c ->
      match c with
      | '{' ->
        if !depth = 0 then start := i;
        incr depth
      | '}' ->
        if !depth > 0 then begin
          decr depth;
          if !depth = 0 then
            objs := String.sub s !start (i - !start + 1) :: !objs
        end
      | _ -> ())
    s;
  List.rev !objs

let json_field obj name =
  (* The raw value of ["name"] in a flat object: quoted strings are
     unquoted, numbers returned as written. [None] if absent. *)
  let pat = "\"" ^ name ^ "\"" in
  let plen = String.length pat in
  let len = String.length obj in
  let rec find i =
    if i + plen > len then None
    else if String.sub obj i plen = pat then Some (i + plen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some j ->
    let j = ref j in
    while !j < len && (obj.[!j] = ' ' || obj.[!j] = ':') do
      incr j
    done;
    if !j >= len then None
    else if obj.[!j] = '"' then begin
      let st = !j + 1 in
      let k = ref st in
      while !k < len && obj.[!k] <> '"' do
        incr k
      done;
      Some (String.sub obj st (!k - st))
    end
    else begin
      let st = !j in
      let k = ref st in
      let stop c = c = ',' || c = '}' || c = ' ' || c = '\n' || c = '\t' in
      while !k < len && not (stop obj.[!k]) do
        incr k
      done;
      if !k = st then None else Some (String.sub obj st (!k - st))
    end

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

let merge_json_rows ~path ~key new_rows =
  (* [new_rows] are raw "{...}" strings. Rows already in [path] whose key
     fields all match a new row are replaced; rows lacking a key field are
     dropped; the rest are kept in place. Returns the total row count. *)
  let key_of row =
    let fields = List.map (fun f -> json_field row f) key in
    if List.exists (fun v -> v = None) fields then None else Some fields
  in
  let new_keys = List.filter_map key_of new_rows in
  let old_rows =
    match read_file path with None -> [] | Some s -> split_json_objects s
  in
  let kept =
    List.filter
      (fun row ->
        match key_of row with
        | None -> false
        | Some k -> not (List.mem k new_keys))
      old_rows
  in
  let all = kept @ new_rows in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        ("[\n  " ^ String.concat ",\n  " all ^ "\n]\n"));
  List.length all
