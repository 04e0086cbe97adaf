(* Test oracles: superseded and scalar paths the production code is
   checked against, kept here rather than in the libraries because no
   production caller needs them.

   - [Menger]: vertex-independent path counting by vertex-split maximum
     flow, the oracle of the dominator-based [Augment.verify] and of the
     dominator single points of failure.
   - [lane_verdicts]: per-class verdicts of a lane sweep, planned exactly
     as the metric plans its rows, so that lane results can be compared
     with the scalar engine class by class. *)

module Digraph = Ftrsn_topo.Digraph
module Order = Ftrsn_topo.Order
module Bitset = Ftrsn_topo.Bitset
module Maxflow = Ftrsn_flow.Maxflow
module Fault = Ftrsn_fault.Fault
module Engine = Ftrsn_access.Engine

(* Vertex-independent path counting (Menger's theorem).  Two paths are
   vertex-independent iff they share no vertex except possibly their
   endpoints — the connectivity notion of §III-C of the paper. *)
module Menger = struct
  (* Vertex splitting: every vertex v becomes v_in = 2v and v_out = 2v + 1
     joined by a unit arc; an edge (u, v) becomes u_out -> v_in with
     "infinite" capacity.  The terminals' internal arcs get infinite
     capacity so that only interior vertices constrain the flow, matching
     the definition of vertex-independent paths. *)

  let big = 1 lsl 28

  let build_split g ~src ~dst =
    let n = Digraph.vertex_count g in
    let f = Maxflow.create ~n:(2 * n) in
    for v = 0 to n - 1 do
      let cap = if v = src || v = dst then big else 1 in
      ignore (Maxflow.add_edge f ~src:(2 * v) ~dst:((2 * v) + 1) ~cap)
    done;
    Digraph.iter_edges
      (fun u v ->
        ignore (Maxflow.add_edge f ~src:((2 * u) + 1) ~dst:(2 * v) ~cap:1))
      g;
    f

  (* Maximum number of pairwise vertex-independent [src]-[dst] paths; 0
     if [dst] is unreachable, and a direct edge counts as one path. *)
  let vertex_disjoint_paths g ~src ~dst =
    if src = dst then invalid_arg "Menger.vertex_disjoint_paths: src = dst";
    let f = build_split g ~src ~dst in
    Maxflow.max_flow f ~s:((2 * src) + 1) ~t:(2 * dst)

  (* Two vertex-independent paths from [root] to [v] and from [v] to
     [sink]: the paper's connectivity requirement on vertex [v]. *)
  let two_connected_through g ~root ~sink v =
    let from_root = v = root || vertex_disjoint_paths g ~src:root ~dst:v >= 2 in
    let to_sink = v = sink || vertex_disjoint_paths g ~src:v ~dst:sink >= 2 in
    from_root && to_sink

  let cut_vertices g ~src ~dst =
    (* Interior vertices lying on every src-dst path: v is one iff removing
       v disconnects dst from src, tested directly by a BFS avoiding v. *)
    let n = Digraph.vertex_count g in
    let on_path =
      let fwd = Order.reachable g ~from:src
      and bwd = Order.co_reachable g ~to_:dst in
      let s = Bitset.copy fwd in
      Bitset.inter_into s bwd;
      s
    in
    if not (Bitset.mem on_path dst) then []
    else begin
      let result = ref [] in
      Bitset.iter
        (fun v ->
          if v <> src && v <> dst then begin
            let seen = Bitset.create n in
            let q = Queue.create () in
            Bitset.add seen src;
            Queue.add src q;
            while not (Queue.is_empty q) do
              let u = Queue.pop q in
              List.iter
                (fun w ->
                  if w <> v && not (Bitset.mem seen w) then begin
                    Bitset.add seen w;
                    Queue.add w q
                  end)
                (Digraph.succ g u)
            done;
            if not (Bitset.mem seen dst) then result := v :: !result
          end)
        on_path;
      List.rev !result
    end

  (* The interior vertices whose removal disconnects [v] from [root] or
     from [sink]: the single points of failure for accessing [v]. *)
  let single_points_of_failure g ~root ~sink v =
    let upstream = if v = root then [] else cut_vertices g ~src:root ~dst:v in
    let downstream = if v = sink then [] else cut_vertices g ~src:v ~dst:sink in
    List.sort_uniq compare (upstream @ downstream)
end

(* Every summary's verdict and cone size against one root — the
   fault-free state, or the secondary baseline under [primary] — with
   the lane statistics.  [Engine.lane_plan] splits the summaries as the
   metric's sweep does: lane batches through
   [Engine.analyze_lane_batch_on], fast summaries through the scalar
   [Engine.analyze_delta_on].  A glitchy (transient) primary, which lane
   sweeps reject, is answered all-scalar and counted as fast. *)
let lane_verdicts ctx base ?primary sms =
  let n = Array.length sms in
  let stk, glitchy =
    match primary with
    | None -> (Engine.of_baseline base, false)
    | Some sm -> (Engine.stack ctx base sm, sm.Fault.sm_glitch_shadow <> [])
  in
  if glitchy then
    ( Array.map (Engine.analyze_delta_on ctx stk) sms,
      { Engine.lane_stats_zero with Engine.ls_fast = n } )
  else begin
    let fast, batches = Engine.lane_plan base sms in
    let out = Array.make n (Engine.baseline_verdict base, 0) in
    List.iter (fun i -> out.(i) <- Engine.analyze_delta_on ctx stk sms.(i)) fast;
    let stats =
      List.fold_left
        (fun acc idxs ->
          let vs, st =
            Engine.analyze_lane_batch_on ctx stk (Array.map (Array.get sms) idxs)
          in
          Array.iteri (fun l i -> out.(i) <- vs.(l)) idxs;
          Engine.lane_stats_add acc st)
        { Engine.lane_stats_zero with Engine.ls_fast = List.length fast }
        batches
    in
    (out, stats)
  end
