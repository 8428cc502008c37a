let nondet_rule = "nondet-taint"
let par_mutation_rule = "par-unsync-mutation"
let mutex_rule = "mutex-unbalanced"
let rule_names = [ nondet_rule; par_mutation_rule; mutex_rule ]

(* Per-file rules whose findings seed the taint: (rule, id tag, short text). *)
let source_rules =
  [
    ("no-wall-clock", "wall-clock", "a wall-clock read");
    ("no-stdlib-random", "stdlib-random", "Stdlib.Random");
    ( "hashtbl-iteration-order", "hashtbl-order",
      "an unordered Hashtbl traversal" );
    ("no-polymorphic-compare", "poly-compare", "polymorphic compare");
  ]

type source = {
  snode : int;  (** definition containing the source site *)
  sline : int;  (** line of the source site itself *)
  stag : string;  (** stable kind tag, part of the finding id *)
  sdesc : string;  (** human text for the message *)
}

let in_lib file =
  List.mem "lib"
    (String.split_on_char '/' file
    |> List.concat_map (String.split_on_char '\\'))

let is_par_ref (r : Ast.ref_site) =
  (r.Ast.rname = "map" || r.Ast.rname = "map_array")
  &&
  match List.rev r.Ast.rpath with "Par" :: _ -> true | _ -> false

let hashtbl_rule_applies =
  match Rules.find "hashtbl-iteration-order" with
  | Some r -> r.Rules.applies
  | None -> fun _ -> false

(* --- source collection -------------------------------------------------------- *)

let rule_sources ~suppressed graph files =
  List.concat_map
    (fun (file : Ast.file) ->
      let path = file.Ast.path in
      if Filename.check_suffix path ".mli" then []
      else
        let ctx = { Rules.path; mli_exists = None } in
        List.concat_map
          (fun (rule, tag, desc) ->
            match Rules.find rule with
            | Some r when r.Rules.applies path ->
              List.filter_map
                (fun (f : Finding.t) ->
                  if
                    suppressed ~rule ~file:path ~line:f.Finding.line
                    || suppressed ~rule:nondet_rule ~file:path
                         ~line:f.Finding.line
                  then None
                  else
                    match
                      Callgraph.node_of_line graph ~file:path
                        ~line:f.Finding.line
                    with
                    | Some node ->
                      Some
                        { snode = node; sline = f.Finding.line; stag = tag;
                          sdesc = desc }
                    | None -> None)
                (r.Rules.check ctx file)
            | _ -> [])
          source_rules)
    files

(* Helper-wrapped Hashtbl iteration: [Hashtbl.iter helper tbl] where the
   named helper visibly accumulates or mutates — invisible to the
   per-file rule, which only sees the helper's name. *)
let helper_iteration_sources ~suppressed tab graph =
  let nodes = Callgraph.nodes graph in
  let acc = ref [] in
  Array.iteri
    (fun i nd ->
      if hashtbl_rule_applies nd.Callgraph.nfile then
        List.iter
          (fun (cb : Ast.ref_site) ->
            match Symtab.resolve tab (Callgraph.summary_of graph i) cb with
            | Some (_, d) when d.Ast.daccumulates || d.Ast.dmutates <> [] ->
              if
                not
                  (suppressed ~rule:"hashtbl-iteration-order"
                     ~file:nd.Callgraph.nfile ~line:cb.Ast.rline
                  || suppressed ~rule:nondet_rule ~file:nd.Callgraph.nfile
                       ~line:cb.Ast.rline)
              then
                acc :=
                  {
                    snode = i;
                    sline = cb.Ast.rline;
                    stag = "hashtbl-helper";
                    sdesc =
                      Printf.sprintf
                        "an unordered Hashtbl traversal through helper '%s'"
                        cb.Ast.rname;
                  }
                  :: !acc
            | _ -> ())
          nd.Callgraph.ndef.Ast.dcallbacks)
    nodes;
  List.rev !acc

(* --- roots -------------------------------------------------------------------- *)

type roots = { exported : bool array; par_entry : bool array }

let compute_roots tab graph =
  let nodes = Callgraph.nodes graph in
  let n = Array.length nodes in
  let exported = Array.make (max n 1) false in
  let par_entry = Array.make (max n 1) false in
  Array.iteri
    (fun i nd ->
      let d = nd.Callgraph.ndef in
      if
        in_lib nd.Callgraph.nfile && d.Ast.dpath = []
        && List.mem d.Ast.dname
             (Symtab.exported tab (Callgraph.summary_of graph i))
      then exported.(i) <- true;
      if List.exists is_par_ref d.Ast.drefs then par_entry.(i) <- true)
    nodes;
  { exported; par_entry }

(* --- nondet-taint ------------------------------------------------------------- *)

let chain_of graph next ~root ~src ~src_line =
  let nodes = Callgraph.nodes graph in
  let rec walk v acc =
    if v = src || next.(v) < 0 then List.rev (v :: acc)
    else walk next.(v) (v :: acc)
  in
  let path = walk root [] in
  List.map
    (fun v ->
      let nd = nodes.(v) in
      {
        Finding.cfile = nd.Callgraph.nfile;
        cline = (if v = src then src_line else nd.Callgraph.nline);
        cname = nd.Callgraph.nqual;
      })
    path

let nondet_findings ~suppressed roots graph sources =
  let nodes = Callgraph.nodes graph in
  (* Collapse duplicate sources: one per (definition, kind), earliest site. *)
  let sources =
    List.sort
      (fun a b ->
        match Int.compare a.snode b.snode with
        | 0 -> (
          match String.compare a.stag b.stag with
          | 0 -> Int.compare a.sline b.sline
          | c -> c)
        | c -> c)
      sources
  in
  let sources =
    List.fold_left
      (fun acc s ->
        match acc with
        | prev :: _ when prev.snode = s.snode && prev.stag = s.stag -> acc
        | _ -> s :: acc)
      [] sources
    |> List.rev
  in
  List.concat_map
    (fun s ->
      let dist, next = Callgraph.reverse_bfs graph s.snode in
      (* One finding per (sink file, source): the nearest root in each file
         represents it, so baselines stay small and line-stable. *)
      let best = Hashtbl.create 8 in
      let files_in_order = ref [] in
      Array.iteri
        (fun i nd ->
          if (roots.exported.(i) || roots.par_entry.(i)) && dist.(i) >= 0 then begin
            let f = nd.Callgraph.nfile in
            match Hashtbl.find_opt best f with
            | Some j when dist.(j) <= dist.(i) -> ()
            | Some _ -> Hashtbl.replace best f i
            | None ->
              Hashtbl.replace best f i;
              files_in_order := f :: !files_in_order
          end)
        nodes;
      List.filter_map
        (fun f ->
          match Hashtbl.find_opt best f with
          | None -> None
          | Some root ->
            let nd = nodes.(root) in
            if
              suppressed ~rule:nondet_rule ~file:nd.Callgraph.nfile
                ~line:nd.Callgraph.nline
            then None
            else
              let srcnd = nodes.(s.snode) in
              let role =
                match (roots.exported.(root), roots.par_entry.(root)) with
                | _, true -> "schedules Cold_par tasks"
                | true, false -> "is exported from lib"
                | false, false -> "is a sink"
              in
              let msg =
                Printf.sprintf
                  "'%s' %s and can transitively reach %s in '%s' (%s); a \
                   seeded run is no longer reproducible — cut the path or \
                   suppress at the source or this sink"
                  nd.Callgraph.nqual role s.sdesc srcnd.Callgraph.nqual
                  srcnd.Callgraph.nfile
              in
              let id =
                Printf.sprintf "%s<-%s#%s" nd.Callgraph.nqual
                  srcnd.Callgraph.nqual s.stag
              in
              Some
                (Finding.make ~rule:nondet_rule ~file:nd.Callgraph.nfile
                   ~line:nd.Callgraph.nline ~id
                   ~chain:
                     (chain_of graph next ~root ~src:s.snode
                        ~src_line:s.sline)
                   msg))
        (List.rev !files_in_order))
    sources

(* --- par-unsync-mutation ------------------------------------------------------ *)

let par_mutation_findings ~suppressed tab roots graph =
  let nodes = Callgraph.nodes graph in
  let n = Array.length nodes in
  let mediates i = nodes.(i).Callgraph.ndef.Ast.dmediates in
  (* Task closures are the callees of a scheduling definition: the
     scheduler's own body runs sequentially on the caller domain, so only
     what it hands to the pool (over-approximated as every reference it
     makes) is parallel context. *)
  let entry = ref [] in
  let owner = Array.make (max n 1) (-1) in
  Array.iteri
    (fun i _ ->
      if roots.par_entry.(i) then
        List.iter
          (fun j ->
            if (not (mediates j)) && owner.(j) < 0 then begin
              owner.(j) <- i;
              entry := j :: !entry
            end)
          (Callgraph.succ graph i))
    nodes;
  let entry = List.rev !entry in
  let parent = Array.make (max n 1) (-1) in
  let seen = Array.make (max n 1) false in
  let q = Queue.create () in
  List.iter (fun j -> Queue.add j q) entry;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter
        (fun w ->
          if (not seen.(w)) && not (mediates w) then begin
            if parent.(w) < 0 then parent.(w) <- v;
            Queue.add w q
          end)
        (Callgraph.succ graph v)
    end
  done;
  let chain_to v =
    let rec up v acc =
      if parent.(v) < 0 then v :: acc else up parent.(v) (v :: acc)
    in
    let path = up v [] in
    let head =
      match path with
      | first :: _ when owner.(first) >= 0 -> owner.(first) :: path
      | _ -> path
    in
    List.map
      (fun i ->
        let nd = nodes.(i) in
        {
          Finding.cfile = nd.Callgraph.nfile;
          cline = nd.Callgraph.nline;
          cname = nd.Callgraph.nqual;
        })
      head
  in
  let acc = ref [] in
  Array.iteri
    (fun i nd ->
      if seen.(i) then
        List.iter
          (fun (m : Ast.ref_site) ->
            match Symtab.resolve tab (Callgraph.summary_of graph i) m with
            | Some (gfile, g) when g.Ast.dmutable_global ->
              if
                not
                  (suppressed ~rule:par_mutation_rule ~file:nd.Callgraph.nfile
                     ~line:m.Ast.rline)
              then
                let gqual =
                  Printf.sprintf "%s.%s"
                    (Ast.modname_of_file gfile)
                    g.Ast.dname
                in
                acc :=
                  Finding.make ~rule:par_mutation_rule
                    ~file:nd.Callgraph.nfile ~line:m.Ast.rline
                    ~id:
                      (Printf.sprintf "%s!%s" nd.Callgraph.nqual gqual)
                    ~chain:(chain_to i)
                    (Printf.sprintf
                       "'%s' mutates module-level mutable state '%s' while \
                        reachable from Cold_par tasks; domains race on it — \
                        mediate with Mutex/Atomic/Domain.DLS or move the \
                        state into the task"
                       nd.Callgraph.nqual gqual)
                  :: !acc
            | _ -> ())
          nd.Callgraph.ndef.Ast.dmutates)
    nodes;
  List.rev !acc

(* --- mutex-unbalanced --------------------------------------------------------- *)

let mutex_findings ~suppressed graph =
  let nodes = Callgraph.nodes graph in
  let acc = ref [] in
  Array.iteri
    (fun i nd ->
      let d = nd.Callgraph.ndef in
      if d.Ast.dlocks && not d.Ast.dunlocks then begin
        let reach = Callgraph.reachable graph ~stop:(fun _ -> false) [ i ] in
        let balanced = ref false in
        Array.iteri
          (fun j r ->
            if r && nodes.(j).Callgraph.ndef.Ast.dunlocks then
              balanced := true)
          reach;
        if not !balanced then
          let lock_line =
            match
              List.find_opt
                (fun (r : Ast.ref_site) ->
                  r.Ast.rpath = [ "Mutex" ] && r.Ast.rname = "lock")
                d.Ast.drefs
            with
            | Some r -> r.Ast.rline
            | None -> d.Ast.dline
          in
          if
            not
              (suppressed ~rule:mutex_rule ~file:nd.Callgraph.nfile
                 ~line:lock_line)
          then
            acc :=
              Finding.make ~rule:mutex_rule ~file:nd.Callgraph.nfile
                ~line:lock_line
                ~id:(Printf.sprintf "lock:%s" nd.Callgraph.nqual)
                (Printf.sprintf
                   "'%s' takes a Mutex.lock but neither it nor anything it \
                    calls reaches Mutex.unlock or Mutex.protect; a raising \
                    path leaves the mutex held forever"
                   nd.Callgraph.nqual)
              :: !acc
      end)
    nodes;
  List.rev !acc

(* --- entry point -------------------------------------------------------------- *)

let analyze ?only ~suppressed files =
  let wants rule =
    match only with None -> true | Some names -> List.mem rule names
  in
  if not (List.exists wants rule_names) then []
  else begin
    let summaries =
      List.map Ast.summarize files
    in
    let tab = Symtab.build summaries in
    let graph = Callgraph.build tab summaries in
    let roots = compute_roots tab graph in
    let nondet =
      if wants nondet_rule then
        let sources =
          rule_sources ~suppressed graph files
          @ helper_iteration_sources ~suppressed tab graph
        in
        nondet_findings ~suppressed roots graph sources
      else []
    in
    let par_mut =
      if wants par_mutation_rule then
        par_mutation_findings ~suppressed tab roots graph
      else []
    in
    let mutex =
      if wants mutex_rule then mutex_findings ~suppressed graph else []
    in
    nondet @ par_mut @ mutex
  end
