module Graph = Cold_graph.Graph
module Shortest_path = Cold_graph.Shortest_path
module Context = Cold_context.Context
module Gravity = Cold_traffic.Gravity

type report = {
  down_node_count : int;
  down_link_count : int;
  delivered_fraction : float;
  lost_fraction : float;
  failed_pairs : int;
  disconnected_pairs : int;
  stretch : float;
  routed_volume_length : float;
  overloaded_links : int;
  max_utilization : float;
}

let evaluate (net : Network.t) ~down_nodes ~down_links =
  let g0 = net.Network.graph in
  let n = Graph.node_count g0 in
  let ctx = net.Network.context in
  let tm = ctx.Context.tm in
  let down = Array.make n false in
  List.iter
    (fun v ->
      if v < 0 || v >= n then
        invalid_arg "Survivability.evaluate: node out of range";
      down.(v) <- true)
    down_nodes;
  (* The degraded topology: failed PoPs lose every incident link, failed
     links disappear individually. Failing an absent pair is a no-op, so a
     trace drawn over all n(n-1)/2 potential conduits applies unchanged to
     any topology on the same context — the "identical traces across
     designs" contract of {!Cold_sim.Failure}. *)
  let degraded = Graph.copy g0 in
  let down_node_count = ref 0 in
  Array.iteri
    (fun v d ->
      if d then begin
        incr down_node_count;
        Graph.remove_all_edges_of degraded v
      end)
    down;
  let down_link_count = ref 0 in
  List.iter
    (fun (u, v) ->
      if u < 0 || v < 0 || u >= n || v >= n || u = v then
        invalid_arg "Survivability.evaluate: link out of range";
      if Graph.mem_edge degraded u v then begin
        Graph.remove_edge degraded u v;
        incr down_link_count
      end)
    down_links;
  let length u v = Context.distance ctx u v in
  (* Reroute with the same per-source step a full Routing.route runs — one
     CSR snapshot and length table, each tree settled in the calling
     domain's scratch and copied out — so a failure-free evaluation is
     bit-identical to the baseline routing (trees, loads and volume·length
     all match exactly). *)
  let csr = Graph.Csr.of_graph degraded in
  let sp = Shortest_path.scratch ~n in
  let lengths = Shortest_path.edge_lengths sp csr ~length in
  let trees =
    Array.init n (fun s ->
        Shortest_path.copy_tree sp
          (Shortest_path.settle sp csr ~lengths ~source:s))
  in
  (* Routable demand table: pairs with a failed endpoint or separated by the
     failure carry nothing; everything else reroutes. *)
  let pd = Array.make (n * n) 0.0 in
  for s = 0 to n - 1 do
    if not down.(s) then begin
      let dist = trees.(s).Shortest_path.dist in
      for d = 0 to n - 1 do
        if d <> s && (not down.(d)) && dist.(d) < infinity then
          pd.((s * n) + d) <- Gravity.pair_demand tm s d
      done
    end
  done;
  let total = Gravity.total tm in
  let base_trees = Routing.trees net.Network.loads in
  let lost = ref 0.0 in
  let failed_pairs = ref 0 in
  let disconnected_pairs = ref 0 in
  let stretch_num = ref 0.0 in
  let stretch_den = ref 0.0 in
  for s = 0 to n - 1 do
    for d = s + 1 to n - 1 do
      if down.(s) || down.(d) then begin
        incr failed_pairs;
        lost := !lost +. Gravity.pair_demand tm s d
      end
      else begin
        let dist = trees.(s).Shortest_path.dist.(d) in
        if dist < infinity then begin
          let dem = Gravity.pair_demand tm s d in
          if dem > 0.0 then begin
            stretch_num := !stretch_num +. (dem *. dist);
            stretch_den :=
              !stretch_den +. (dem *. base_trees.(s).Shortest_path.dist.(d))
          end
        end
        else begin
          incr disconnected_pairs;
          lost := !lost +. Gravity.pair_demand tm s d
        end
      end
    done
  done;
  (* Push the routable demands down the degraded trees: the per-link loads
     the surviving network must carry, compared against the capacities the
     un-failed design was provisioned with. *)
  let matrix = Array.make (n * n) 0.0 in
  let subtree = Array.make (max n 1) 0.0 in
  for s = 0 to n - 1 do
    if not down.(s) then
      Routing.accumulate ~csr ~pair_demands:pd ~multipath:false ~length ~tm
        ~matrix ~subtree ~n trees.(s) ~source:s
  done;
  let dloads = Routing.of_parts ~n ~matrix ~trees in
  let routed_volume_length = Routing.total_volume_length dloads ~length in
  let overloaded_links = ref 0 in
  let max_utilization = ref 0.0 in
  Routing.fold dloads
    (fun () u v w ->
      let c = Capacity.capacity net.Network.capacities u v in
      if w > c then incr overloaded_links;
      if c > 0.0 then begin
        let u_ = w /. c in
        if u_ > !max_utilization then max_utilization := u_
      end)
    ();
  let lost_fraction = if total > 0.0 then !lost /. total else 0.0 in
  {
    down_node_count = !down_node_count;
    down_link_count = !down_link_count;
    delivered_fraction = 1.0 -. lost_fraction;
    lost_fraction;
    failed_pairs = !failed_pairs;
    disconnected_pairs = !disconnected_pairs;
    stretch =
      (if !stretch_den > 0.0 then !stretch_num /. !stretch_den else 1.0);
    routed_volume_length;
    overloaded_links = !overloaded_links;
    max_utilization = !max_utilization;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>down: %d PoPs, %d links@ delivered: %.4f (lost %.4f)@ pairs: %d \
     failed, %d disconnected@ stretch: %.4f@ overloaded links: %d (max \
     utilization %.3f)@]"
    r.down_node_count r.down_link_count r.delivered_fraction r.lost_fraction
    r.failed_pairs r.disconnected_pairs r.stretch r.overloaded_links
    r.max_utilization
