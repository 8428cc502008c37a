(* cold-gen: command-line front end for COLD topology synthesis.

   Subcommands:
     generate — synthesize one network and print/export it
     ensemble — synthesize many networks and print summary statistics
     zoo      — print statistics of the synthetic topology zoo
     expand   — synthesize and expand to the router level *)

open Cmdliner

module Context = Cold_context.Context
module Network = Cold_net.Network
module Summary = Cold_metrics.Summary
module Limits = Cold_util.Limits

(* --- shared options ---------------------------------------------------------- *)

(* Converters that reject a value outside the library's own bounds as a
   usage error: cmdliner then exits 124 naming the option, instead of the
   library raising Invalid_argument mid-run or running out of memory. *)
let int_at_least min =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok v when v < min -> Error (`Msg (Printf.sprintf "must be at least %d" min))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* A NaN passes no bound and an infinity prices every design alike, so
   float options must also be finite. *)
let float_at_least min =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok v when not (Float.is_finite v) -> Error (`Msg "must be finite")
    | Ok v when v < min -> Error (`Msg (Printf.sprintf "must be at least %g" min))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* The upper bounds are the shared ones of Cold_util.Limits. *)
let int_between min max =
  let parse s =
    match Arg.conv_parser (int_at_least min) s with
    | Ok v when v > max -> Error (`Msg (Printf.sprintf "must be at most %d" max))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let pops =
  let doc = Printf.sprintf "Number of PoPs to synthesize (2 to %d)." Limits.max_n in
  Arg.(value & opt (int_between 2 Limits.max_n) 30 & info [ "n"; "pops" ] ~docv:"N" ~doc)

let seed =
  let doc = "Random seed (contexts and the GA are deterministic given it)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let k0 =
  let doc = "Per-link existence cost k0." in
  Arg.(value & opt (float_at_least 0.0) 10.0 & info [ "k0" ] ~docv:"K0" ~doc)

let k2 =
  let doc = "Bandwidth-length cost k2 (the paper explores 2.5e-5 .. 1.6e-3)." in
  Arg.(value & opt (float_at_least 0.0) 1e-4 & info [ "k2" ] ~docv:"K2" ~doc)

let k3 =
  let doc = "Hub (complexity) cost k3 for PoPs with more than one link." in
  Arg.(value & opt (float_at_least 0.0) 0.0 & info [ "k3" ] ~docv:"K3" ~doc)

let generations =
  let doc =
    Printf.sprintf "GA generations (paper default 100, at most %d)." Limits.max_generations
  in
  Arg.(value
       & opt (int_between 0 Limits.max_generations) 100
       & info [ "generations" ] ~docv:"T" ~doc)

let population =
  let doc =
    Printf.sprintf "GA population size (paper default 100, 2 to %d)." Limits.max_population
  in
  Arg.(value
       & opt (int_between 2 Limits.max_population) 100
       & info [ "population" ] ~docv:"M" ~doc)

let domains =
  let doc =
    "Domains evaluating candidates concurrently (0 = autodetect from the \
     machine). Synthesized networks are bit-identical at every setting; \
     only wall-clock time changes. See doc/PERF.md."
  in
  Arg.(value & opt (int_at_least 0) 1 & info [ "domains" ] ~docv:"K" ~doc)

let pareto =
  let doc = "Use Pareto(1.5) populations instead of exponential." in
  Arg.(value & flag & info [ "pareto" ] ~doc)

let bursty =
  let doc = "Use a bursty (Thomas cluster) PoP location process." in
  Arg.(value & flag & info [ "bursty" ] ~doc)

let preset_arg =
  let doc =
    "Parameter preset (overrides --k0/--k2/--k3): startup, mature-carrier, \
     consolidated-operator or regional-isp."
  in
  Arg.(value & opt (some string) None & info [ "preset" ] ~docv:"NAME" ~doc)

let format_arg =
  let doc = "Output format: summary, ascii, dot, gml or edges." in
  Arg.(
    value
    & opt
        (enum
           [ ("summary", `Summary); ("ascii", `Ascii); ("dot", `Dot);
             ("gml", `Gml); ("edges", `Edges) ])
        `Summary
    & info [ "f"; "format" ] ~docv:"FORMAT" ~doc)

let output =
  let doc = "Write output to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

(* --- building blocks --------------------------------------------------------- *)

let spec_of ~pops ~pareto ~bursty =
  let base = Context.default_spec ~n:pops in
  let base =
    if pareto then
      { base with Context.population = Cold_traffic.Population.pareto_moderate }
    else base
  in
  if bursty then
    (* Cluster spread: 5 % of the region's diameter. *)
    let sigma = 0.05 *. Cold_geom.Region.diameter base.Context.region in
    { base with
      Context.point_process =
        Cold_geom.Point_process.Bursty { clusters = 5; sigma } }
  else base

let params_of ?preset ~k0 ~k2 ~k3 () =
  match preset with
  | None -> Cold.Cost.params ~k0 ~k2 ~k3 ()
  | Some name -> (
    match Cold.Presets.find name with
    | Some p -> p.Cold.Presets.params
    | None ->
      let known =
        String.concat ", " (List.map (fun p -> p.Cold.Presets.name) Cold.Presets.all)
      in
      failwith (Printf.sprintf "unknown preset %S (known: %s)" name known))

let config_of ?preset ?(domains = 1) ~k0 ~k2 ~k3 ~generations ~population () =
  let params = params_of ?preset ~k0 ~k2 ~k3 () in
  {
    (Cold.Synthesis.default_config ~params ()) with
    Cold.Synthesis.ga = Cold.Ga.settings_for ~population ~generations;
    domains;
  }

let emit ~output text =
  match output with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
    Printf.printf "wrote %s\n" path

let render fmt net =
  match fmt with
  | `Summary ->
    Format.asprintf "%a@.%a@."
      Cold_metrics.Summary.pp
      (Summary.compute net.Network.graph)
      Network.pp_summary net
  | `Ascii -> Cold_netio.Ascii_map.render net ^ "\n"
  | `Dot -> Cold_netio.Dot.of_network net
  | `Gml -> Cold_netio.Gml.of_network net
  | `Edges -> Cold_netio.Edge_list.to_string net.Network.graph

(* --- generate ---------------------------------------------------------------- *)

let generate pops seed k0 k2 k3 preset generations population domains pareto bursty fmt output =
  let cfg = config_of ?preset ~domains ~k0 ~k2 ~k3 ~generations ~population () in
  let spec = spec_of ~pops ~pareto ~bursty in
  let net = Cold.Synthesis.synthesize cfg spec ~seed in
  emit ~output (render fmt net);
  0

let generate_cmd =
  let doc = "Synthesize one PoP-level network." in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(
      const generate $ pops $ seed $ k0 $ k2 $ k3 $ preset_arg $ generations
      $ population $ domains $ pareto $ bursty $ format_arg $ output)

(* --- ensemble ---------------------------------------------------------------- *)

(* An ensemble needs at least one member; the zoo may be empty. *)
let count ~min =
  let doc = Printf.sprintf "Number of networks in the ensemble (at most %d)." Limits.max_count in
  Arg.(value
       & opt (int_between min Limits.max_count) 10
       & info [ "c"; "count" ] ~docv:"COUNT" ~doc)

let ensemble pops seed k0 k2 k3 generations population domains pareto bursty count =
  (* Parallelism pays best at the widest fan-out: whole ensemble members
     run concurrently while each inner GA stays sequential. *)
  let cfg = config_of ~k0 ~k2 ~k3 ~generations ~population () in
  let spec = spec_of ~pops ~pareto ~bursty in
  let e = Cold.Ensemble.generate ~domains cfg spec ~count ~seed in
  Printf.printf "%s\n" Summary.to_csv_header;
  Array.iter (fun s -> Printf.printf "%s\n" (Summary.to_csv_row s)) e.Cold.Ensemble.summaries;
  let stat name f =
    let ci = Cold.Ensemble.mean_ci e f ~seed:(seed + 1) in
    Printf.eprintf "%-22s %s\n" name
      (Format.asprintf "%a" Cold_stats.Bootstrap.pp ci)
  in
  Printf.eprintf "\nensemble means with 95%% bootstrap CIs (n=%d):\n" count;
  stat "average degree" (fun s -> s.Summary.average_degree);
  stat "CVND" (fun s -> s.Summary.cvnd);
  stat "diameter" (fun s -> float_of_int s.Summary.diameter);
  stat "global clustering" (fun s -> s.Summary.global_clustering);
  Printf.eprintf "distinct topologies: %d/%d\n" (Cold.Ensemble.distinct_topologies e) count;
  0

let ensemble_cmd =
  let doc = "Synthesize an ensemble and print per-network statistics as CSV." in
  Cmd.v
    (Cmd.info "ensemble" ~doc)
    Term.(
      const ensemble $ pops $ seed $ k0 $ k2 $ k3 $ generations $ population
      $ domains $ pareto $ bursty $ count ~min:1)

(* --- zoo ---------------------------------------------------------------------- *)

let zoo seed count =
  let entries = Cold_zoo.Zoo.synthetic ~count ~seed () in
  let cvnd = Cold_zoo.Zoo.cvnd_values entries in
  Printf.printf "synthetic zoo: %d networks\n" count;
  Printf.printf "CVND > 1: %.1f%%\n"
    (100.0 *. Cold_stats.Histogram.fraction_above cvnd 1.0);
  let h = Cold_stats.Histogram.create ~lo:0.0 ~hi:2.0 ~bins:10 cvnd in
  Format.printf "%a" (Cold_stats.Histogram.pp_ascii ~width:40) h;
  print_endline "\nembedded reference maps:";
  List.iter
    (fun (e : Cold_zoo.Zoo.entry) ->
      let s = Summary.compute e.Cold_zoo.Zoo.graph in
      Printf.printf "  %-22s n=%-3d m=%-3d cvnd=%.2f diameter=%d\n"
        e.Cold_zoo.Zoo.name s.Summary.nodes s.Summary.edges s.Summary.cvnd
        s.Summary.diameter)
    (Cold_zoo.Zoo.reference ());
  0

let zoo_cmd =
  let doc = "Inspect the synthetic topology zoo (the Fig 8a substitute)." in
  Cmd.v (Cmd.info "zoo" ~doc) Term.(const zoo $ seed $ count ~min:0)

(* --- expand ------------------------------------------------------------------- *)

let expand pops seed k0 k2 k3 generations population domains pareto bursty =
  let cfg = config_of ~domains ~k0 ~k2 ~k3 ~generations ~population () in
  let spec = spec_of ~pops ~pareto ~bursty in
  let net = Cold.Synthesis.synthesize cfg spec ~seed in
  let r = Cold_router.Expand.expand net in
  Printf.printf "PoP-level: %d PoPs, %d links\n"
    (Cold_graph.Graph.node_count net.Network.graph)
    (Cold_graph.Graph.edge_count net.Network.graph);
  Printf.printf "router-level: %d routers, %d links\n"
    (Cold_router.Expand.router_count r)
    (Cold_graph.Graph.edge_count r.Cold_router.Expand.graph);
  Array.iteri
    (fun pop t ->
      Printf.printf "  PoP %2d: %s (%d routers)\n" pop
        (match t with
        | Cold_router.Template.Single -> "single"
        | Cold_router.Template.Dual -> "dual"
        | Cold_router.Template.Full { access } ->
          Printf.sprintf "full (%d access)" access)
        (Cold_router.Template.router_count t))
    r.Cold_router.Expand.templates;
  0

let expand_cmd =
  let doc = "Synthesize a network and expand it to the router level." in
  Cmd.v
    (Cmd.info "expand" ~doc)
    Term.(
      const expand $ pops $ seed $ k0 $ k2 $ k3 $ generations $ population
      $ domains $ pareto $ bursty)

(* --- resilience ---------------------------------------------------------------- *)

let resilience pops seed k0 k2 k3 generations population domains pareto bursty =
  let cfg = config_of ~domains ~k0 ~k2 ~k3 ~generations ~population () in
  let spec = spec_of ~pops ~pareto ~bursty in
  let net = Cold.Synthesis.synthesize cfg spec ~seed in
  let module R = Cold_net.Resilience in
  Printf.printf "survivable (2-edge-connected): %b\n" (R.survivable net);
  (match R.single_points_of_failure net with
  | [] -> print_endline "single points of failure: none"
  | spofs ->
    Printf.printf "single points of failure: %s\n"
      (String.concat ", " (List.map string_of_int spofs)));
  Printf.printf "average stretch: %.3f\n" (Cold_net.Stretch.average net);
  Printf.printf "\n%10s %10s %10s %8s\n" "link" "stranded" "load" "bridge";
  List.iter
    (fun r ->
      let (u, v) = r.R.link in
      Printf.printf "%4d -%4d %9.1f%% %9.1f%% %8b\n" u v
        (100.0 *. r.R.stranded_fraction)
        (100.0 *. r.R.load_fraction)
        r.R.is_bridge)
    (R.link_reports net);
  0

let resilience_cmd =
  let doc = "Synthesize a network and analyze its failure behaviour." in
  Cmd.v
    (Cmd.info "resilience" ~doc)
    Term.(
      const resilience $ pops $ seed $ k0 $ k2 $ k3 $ generations $ population
      $ domains $ pareto $ bursty)

(* --- evolve ------------------------------------------------------------------- *)

let steps_arg =
  let doc = Printf.sprintf "Number of growth steps (at most %d)." Limits.max_steps in
  Arg.(value & opt (int_between 0 Limits.max_steps) 3 & info [ "steps" ] ~docv:"STEPS" ~doc)

let growth_arg =
  let doc = "Per-step traffic growth factor." in
  Arg.(value & opt (float_at_least 0.0) 1.5 & info [ "growth" ] ~docv:"G" ~doc)

let added_arg =
  let doc = "PoPs added per step." in
  Arg.(value & opt (int_at_least 0) 5 & info [ "add" ] ~docv:"ADD" ~doc)

let decommission_arg =
  let doc = "Cost to remove an installed link." in
  Arg.(value & opt (float_at_least 0.0) 50.0 & info [ "decommission" ] ~docv:"COST" ~doc)

let evolve pops seed k0 k2 k3 steps growth added decommission =
  (* The last design has pops + steps·added PoPs; --steps bounds only the
     number of redesigns, so the size is checked here (without forming the
     product, which could overflow). *)
  if added > 0 && steps > (Limits.max_n - pops) / added then
    `Error
      ( true,
        Printf.sprintf
          "option '--steps': growing %d PoPs by %d per step for %d steps exceeds %d PoPs"
          pops added steps Limits.max_n )
  else
  let module E = Cold.Evolution in
  let params = Cold.Cost.params ~k0 ~k2 ~k3 () in
  let cfg =
    { (E.default_config ~params ()) with E.decommission_cost = decommission }
  in
  let step_list =
    List.init steps (fun _ -> { E.new_pops = added; traffic_growth = growth })
  in
  let states = E.run cfg ~initial_n:pops ~steps:step_list ~seed in
  Printf.printf "%6s %6s %7s %12s %9s\n" "cycle" "PoPs" "links" "avg degree" "removed";
  List.iteri
    (fun i s ->
      let g = s.E.network.Cold_net.Network.graph in
      Printf.printf "%6d %6d %7d %12.2f %9d\n" i
        (Cold_graph.Graph.node_count g)
        (Cold_graph.Graph.edge_count g)
        (Cold_metrics.Degree.average g)
        s.E.cumulative_decommissions)
    states;
  `Ok 0

let evolve_cmd =
  let doc = "Grow a network incrementally (legacy links constrain redesigns)." in
  Cmd.v
    (Cmd.info "evolve" ~doc)
    Term.(
      ret
        (const evolve $ pops $ seed $ k0 $ k2 $ k3 $ steps_arg $ growth_arg
        $ added_arg $ decommission_arg))

(* --- fit ----------------------------------------------------------------------- *)

let input_arg =
  let doc = "Topology file to fit (.gml or edge-list format)." in
  Arg.(required & opt (some file) None & info [ "i"; "input" ] ~docv:"FILE" ~doc)

let trials_arg =
  let doc =
    Printf.sprintf
      "ABC simulation budget: each trial synthesizes one network (at most %d)."
      Limits.max_count
  in
  Arg.(value & opt (int_between 1 Limits.max_count) 200
       & info [ "trials" ] ~docv:"TRIALS" ~doc)

let epsilon_arg =
  let doc = "ABC acceptance threshold (normalized statistic distance)." in
  Arg.(value & opt (float_at_least 0.0) 0.35 & info [ "epsilon" ] ~docv:"EPS" ~doc)

let fit input seed trials epsilon domains =
  let parsed =
    if Filename.check_suffix input ".gml" then
      Cold_netio.Gml_parser.read_file ~path:input
    else Cold_netio.Edge_list.read_file ~path:input
  in
  let g =
    match parsed with
    | Ok g -> g
    | Error e ->
      Printf.eprintf "cold fit: cannot parse %s: %s\n" input
        (Cold_netio.Parse_error.to_string e);
      exit 1
  in
  let n = Cold_graph.Graph.node_count g in
  if n < 2 then begin
    Printf.eprintf "cold fit: cannot fit %s: ABC needs at least 2 PoPs, got %d\n"
      input n;
    exit 1
  end;
  let obs = Cold.Abc.observe g in
  Printf.printf
    "observed: n=%d avg degree %.2f, clustering %.3f, CVND %.2f, diameter %.0f\n\
     running %d ABC trials (this synthesizes %d networks)...\n%!"
    obs.Cold.Abc.n obs.Cold.Abc.average_degree obs.Cold.Abc.global_clustering
    obs.Cold.Abc.cvnd obs.Cold.Abc.diameter trials trials;
  let samples = Cold.Abc.infer ~domains ~trials ~epsilon obs ~seed in
  Printf.printf "accepted %d/%d\n" (List.length samples) trials;
  (match Cold.Abc.posterior_mean samples with
  | None ->
    print_endline "no acceptance: raise --epsilon or --trials";
  | Some p ->
    Format.printf "posterior mean parameters: %a@." Cold.Cost.pp_params p;
    (match samples with
    | best :: _ ->
      Format.printf "best sample (distance %.3f): %a@." best.Cold.Abc.distance
        Cold.Cost.pp_params best.Cold.Abc.params
    | [] -> ()));
  0

let fit_cmd =
  let doc =
    "Estimate COLD cost parameters for an observed topology via ABC \
     (Approximate Bayesian Computation)."
  in
  Cmd.v
    (Cmd.info "fit" ~doc)
    Term.(const fit $ input_arg $ seed $ trials_arg $ epsilon_arg $ domains)

(* --- main ---------------------------------------------------------------------- *)

let () =
  let doc = "COLD: PoP-level network topology synthesis (CoNEXT 2014)" in
  let info = Cmd.info "cold-gen" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            generate_cmd; ensemble_cmd; zoo_cmd; expand_cmd; resilience_cmd;
            evolve_cmd; fit_cmd;
          ]))
