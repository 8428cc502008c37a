module Limits = Cold_util.Limits

type format = Edges | Gml | Summary

type design = {
  n : int;
  seed : int;
  params : Cold.Cost.params;
  generations : int;
  population : int;
  permutations : int;
  survivable : bool;
}

type job =
  | Synth of { design : design; format : format }
  | Ensemble of { design : design; count : int }
  | Survive of {
      design : design;
      steps : int;
      fseed : int;
      rates : Cold_sim.Failure.rates;
    }

type request = Job of job | Stats | Ping | Drain

type envelope = { id : string; body : request; deadline_ms : int option }

(* --- limits ----------------------------------------------------------------- *)

let max_id_len = 64

let default_design ~n ~seed =
  {
    n;
    seed;
    params = Cold.Cost.params ();
    generations = 20;
    population = 16;
    permutations = 2;
    survivable = false;
  }

(* --- parsing ---------------------------------------------------------------- *)

let id_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '.' || c = '_' || c = '-' || c = ':'

let valid_id id =
  let len = String.length id in
  len > 0 && len <= max_id_len && String.for_all id_char id

(* One key=value token. *)
let split_kv tok =
  match String.index_opt tok '=' with
  | None -> None
  | Some i ->
    Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))

let int_in ~key ~lo ~hi v =
  match int_of_string_opt v with
  | Some x when x >= lo && x <= hi -> Ok x
  | Some _ -> Error (Printf.sprintf "%s out of range [%d, %d]" key lo hi)
  | None -> Error (Printf.sprintf "%s is not an integer" key)

let any_int ~key v =
  match int_of_string_opt v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "%s is not an integer" key)

let nonneg_float ~key v =
  match float_of_string_opt v with
  | Some x when Float.is_finite x && x >= 0.0 -> Ok x
  | Some _ -> Error (Printf.sprintf "%s must be finite and >= 0" key)
  | None -> Error (Printf.sprintf "%s is not a number" key)

let unit_float ~key v =
  match float_of_string_opt v with
  | Some x when Float.is_finite x && x >= 0.0 && x <= 1.0 -> Ok x
  | Some _ -> Error (Printf.sprintf "%s must be in [0, 1]" key)
  | None -> Error (Printf.sprintf "%s is not a number" key)

let bool_flag ~key v =
  match v with
  | "0" | "false" -> Ok false
  | "1" | "true" -> Ok true
  | _ -> Error (Printf.sprintf "%s must be 0/1 or true/false" key)

let format_of_name = function
  | "edges" -> Ok Edges
  | "gml" -> Ok Gml
  | "summary" -> Ok Summary
  | other ->
    Error (Printf.sprintf "unknown format %S (known: edges, gml, summary)" other)

let format_name = function Edges -> "edges" | Gml -> "gml" | Summary -> "summary"

(* Shared mutable scratch for one parse: the key=value pairs still
   unconsumed. Every verb takes what it knows; leftovers are an error, so
   typos ([stepz=5]) fail loudly instead of silently meaning defaults. *)
type pairs = { mutable kvs : (string * string) list }

let take pairs key =
  match List.assoc_opt key pairs.kvs with
  | None -> None
  | Some v ->
    pairs.kvs <- List.filter (fun (k, _) -> k <> key) pairs.kvs;
    Some v

let ( let* ) = Result.bind

let take_or ~default pairs key conv =
  match take pairs key with None -> Ok default | Some v -> conv ~key v

let take_req pairs key conv =
  match take pairs key with
  | None -> Error (Printf.sprintf "missing required %s=" key)
  | Some v -> conv ~key v

let parse_design pairs =
  let* n = take_req pairs "n" (int_in ~lo:2 ~hi:Limits.max_n) in
  let* seed = take_req pairs "seed" any_int in
  let d = default_design ~n ~seed in
  let* k0 = take_or ~default:d.params.Cold.Cost.k0 pairs "k0" nonneg_float in
  let* k1 = take_or ~default:d.params.Cold.Cost.k1 pairs "k1" nonneg_float in
  let* k2 = take_or ~default:d.params.Cold.Cost.k2 pairs "k2" nonneg_float in
  let* k3 = take_or ~default:d.params.Cold.Cost.k3 pairs "k3" nonneg_float in
  let* generations =
    take_or ~default:d.generations pairs "gens" (int_in ~lo:1 ~hi:Limits.max_generations)
  in
  let* population =
    take_or ~default:d.population pairs "pop" (int_in ~lo:4 ~hi:Limits.max_population)
  in
  let* permutations =
    take_or ~default:d.permutations pairs "perms" (int_in ~lo:0 ~hi:1000)
  in
  let* survivable = take_or ~default:d.survivable pairs "survivable" bool_flag in
  Ok
    {
      n;
      seed;
      params = { Cold.Cost.k0; k1; k2; k3 };
      generations;
      population;
      permutations;
      survivable;
    }

let parse_rates pairs =
  let d = Cold_sim.Failure.default_rates in
  let* link_rate =
    take_or ~default:d.Cold_sim.Failure.link_rate pairs "link_rate" unit_float
  in
  let* node_rate =
    take_or ~default:d.Cold_sim.Failure.node_rate pairs "node_rate" unit_float
  in
  let* regional_rate =
    take_or ~default:d.Cold_sim.Failure.regional_rate pairs "regional_rate"
      unit_float
  in
  let* regional_radius =
    take_or ~default:d.Cold_sim.Failure.regional_radius pairs "regional_radius"
      nonneg_float
  in
  Ok { Cold_sim.Failure.link_rate; node_rate; regional_rate; regional_radius }

let parse_body verb pairs =
  match verb with
  | "synth" ->
    let* design = parse_design pairs in
    let* format =
      match take pairs "format" with
      | None -> Ok Summary
      | Some v -> format_of_name v
    in
    Ok (Job (Synth { design; format }))
  | "ensemble" ->
    let* design = parse_design pairs in
    let* count = take_req pairs "count" (int_in ~lo:1 ~hi:Limits.max_count) in
    Ok (Job (Ensemble { design; count }))
  | "survive" ->
    let* design = parse_design pairs in
    let* steps = take_req pairs "steps" (int_in ~lo:1 ~hi:Limits.max_steps) in
    let* fseed = take_or ~default:design.seed pairs "fseed" any_int in
    let* rates = parse_rates pairs in
    Ok (Job (Survive { design; steps; fseed; rates }))
  | "stats" -> Ok Stats
  | "ping" -> Ok Ping
  | "drain" -> Ok Drain
  | other ->
    Error
      (Printf.sprintf
         "unknown verb %S (known: synth, ensemble, survive, stats, ping, drain)"
         other)

let parse line =
  let tokens =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "")
  in
  match tokens with
  | [] -> Error ("-", "empty request line")
  | [ _verb ] -> Error ("-", "missing request id")
  | verb :: id :: rest ->
    if not (valid_id id) then
      Error ("-", "invalid request id (1-64 chars of [A-Za-z0-9._:-])")
    else begin
      let kvs = List.map split_kv rest in
      if List.exists (fun o -> o = None) kvs then
        Error (id, "parameters must be key=value tokens")
      else begin
        let pairs = { kvs = List.filter_map Fun.id kvs } in
        match parse_body verb pairs with
        | Error msg -> Error (id, msg)
        | Ok body -> (
          let deadline =
            match take pairs "deadline_ms" with
            | None -> Ok None
            | Some v -> (
              match int_in ~key:"deadline_ms" ~lo:0 ~hi:86_400_000 v with
              | Ok ms -> Ok (Some ms)
              | Error e -> Error e)
          in
          match deadline with
          | Error msg -> Error (id, msg)
          | Ok deadline_ms -> (
            match pairs.kvs with
            | [] -> Ok { id; body; deadline_ms }
            | (k, _) :: _ ->
              Error (id, Printf.sprintf "unknown parameter %S for %s" k verb)))
      end
    end

(* --- canonical keys ---------------------------------------------------------- *)

let verb_of_job = function
  | Synth _ -> "synth"
  | Ensemble _ -> "ensemble"
  | Survive _ -> "survive"

(* Floats are rendered with %h (exact hexadecimal), so two parameter
   spellings canonicalize identically iff they denote the same double. *)
let canonical_design d =
  Printf.sprintf "n=%d seed=%d k0=%h k1=%h k2=%h k3=%h gens=%d pop=%d perms=%d \
                  survivable=%b"
    d.n d.seed d.params.Cold.Cost.k0 d.params.Cold.Cost.k1
    d.params.Cold.Cost.k2 d.params.Cold.Cost.k3 d.generations d.population
    d.permutations d.survivable

let canonical_job = function
  | Synth { design; format } ->
    Printf.sprintf "synth %s format=%s" (canonical_design design)
      (format_name format)
  | Ensemble { design; count } ->
    Printf.sprintf "ensemble %s count=%d" (canonical_design design) count
  | Survive { design; steps; fseed; rates } ->
    Printf.sprintf
      "survive %s steps=%d fseed=%d link_rate=%h node_rate=%h regional_rate=%h \
       regional_radius=%h"
      (canonical_design design) steps fseed rates.Cold_sim.Failure.link_rate
      rates.Cold_sim.Failure.node_rate rates.Cold_sim.Failure.regional_rate
      rates.Cold_sim.Failure.regional_radius

(* --- response framing -------------------------------------------------------- *)

let frame_ok ~id payload =
  Printf.sprintf "ok %s %d\n%s" id (String.length payload) payload

let frame_err ~id ~code msg =
  (* Keep the frame single-line whatever the message contains. *)
  let msg =
    String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) msg
  in
  Printf.sprintf "err %s %s %s\n" id code msg

let json_float x =
  (* Shortest decimal that round-trips: try increasing precision; %.17g is
     always exact for finite doubles. Deterministic by construction. *)
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else
    let rec try_prec p =
      if p > 17 then Printf.sprintf "%.17g" x
      else
        let s = Printf.sprintf "%.*g" p x in
        if Float.equal (float_of_string s) x then s else try_prec (p + 1)
    in
    try_prec 9
