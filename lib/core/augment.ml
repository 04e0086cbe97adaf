module Digraph = Ftrsn_topo.Digraph
module Order = Ftrsn_topo.Order
module Acyclic = Ftrsn_topo.Acyclic
module Dominator = Ftrsn_topo.Dominator
module Simplex = Ftrsn_lp.Simplex
module Bnb = Ftrsn_ilp.Bnb
module Mcf = Ftrsn_flow.Mincost

type problem = {
  graph : Digraph.t;
  levels : int array;
  root : int;
  sink : int;
  d_in : int array;
  d_out : int array;
}

let edge_cost p (i, j) =
  if Digraph.has_edge p.graph i j then 0 else 1 + p.levels.(j) - p.levels.(i)

(* A pair (i, j) may carry a new edge: the level constraint of E_P, no
   self-loops, nothing leaves the sink or enters the root, and it must not
   already exist. *)
let potential_pair g levels ~root ~sink i j =
  i <> j
  && i <> sink
  && j <> root
  && levels.(j) >= levels.(i)
  && not (Digraph.has_edge g i j)

(* Existing degrees are counted per physical interconnect, not per
   collapsed dataflow edge: a segment has exactly one scan-in port, and
   every original in-edge reaches it through that single port (one mux
   tree), so a stuck-at on the port or on the mux output corrupts all of
   them together.  The fault-tolerance requirement therefore needs a
   second, physically distinct input (a new mux) at every vertex — which
   is why the paper observes "at least one additional multiplexer at the
   scan-in port of every scan segment" (§IV-C).  Out-edges are distinct
   interconnects (one per consumer port) and count individually.

   The potential counts only matter up to 2, so each scan stops as soon
   as the count saturates: the demands are computed once per problem, in
   [problem_of_graph], and the pair scans end after a few candidates. *)
let compute_demands g levels ~root ~sink =
  let n = Digraph.vertex_count g in
  let pair = potential_pair g levels ~root ~sink in
  let d_in = Array.make n 0 and d_out = Array.make n 0 in
  for t = 0 to n - 1 do
    if t <> root then begin
      let potential = ref 1 and i = ref 0 in
      while !potential < 2 && !i < n do
        if pair !i t then incr potential;
        incr i
      done;
      d_in.(t) <- max 0 (min 2 !potential - 1)
    end;
    if t <> sink then begin
      let potential = ref (Digraph.out_degree g t) and j = ref 0 in
      while !potential < 2 && !j < n do
        if pair t !j then incr potential;
        incr j
      done;
      d_out.(t) <- max 0 (min 2 !potential - Digraph.out_degree g t)
    end
  done;
  (d_in, d_out)

let problem_of_graph graph ~levels ~root ~sink =
  let d_in, d_out = compute_demands graph levels ~root ~sink in
  { graph; levels; root; sink; d_in; d_out }

let of_netlist net =
  let graph, levels = Ftrsn_rsn.Netlist.dataflow_graph net in
  problem_of_graph graph ~levels ~root:0 ~sink:1

let demands p = (p.d_in, p.d_out)

type solution = {
  new_edges : (int * int) list;
  cost : int;
  solver : [ `Ilp | `Flow ];
  ilp_nodes : int;
  ilp_cuts : int;
}

(* ---- exact ILP (paper eqs. 2-5, subtours separated lazily) ---- *)

let solve_ilp ?(max_nodes = 100_000) p =
  let n = Digraph.vertex_count p.graph in
  let d_in, d_out = demands p in
  let potential_pair = potential_pair p.graph p.levels ~root:p.root ~sink:p.sink in
  (* Enumerate variables: one per potential new edge. *)
  let vars = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if potential_pair i j then vars := (i, j) :: !vars
    done
  done;
  let vars = Array.of_list (List.rev !vars) in
  let nv = Array.length vars in
  let index = Hashtbl.create (2 * nv) in
  Array.iteri (fun k e -> Hashtbl.add index e k) vars;
  let objective =
    Array.map (fun e -> float_of_int (edge_cost p e)) vars
  in
  let t = Bnb.make ~num_vars:nv ~objective in
  for v = 0 to n - 1 do
    if d_in.(v) > 0 then begin
      let coeffs = ref [] in
      Array.iteri (fun k (_, j) -> if j = v then coeffs := (k, 1.0) :: !coeffs) vars;
      Bnb.add_constraint t ~coeffs:!coeffs ~op:Simplex.Ge
        ~rhs:(float_of_int d_in.(v))
    end;
    if d_out.(v) > 0 then begin
      let coeffs = ref [] in
      Array.iteri (fun k (i, _) -> if i = v then coeffs := (k, 1.0) :: !coeffs) vars;
      Bnb.add_constraint t ~coeffs:!coeffs ~op:Simplex.Ge
        ~rhs:(float_of_int d_out.(v))
    end
  done;
  (* Lazy acyclicity: a cycle in the augmented graph can only use new
     same-level edges (existing edges and cross-level new edges strictly
     increase the level).  Cut each cycle found in a candidate. *)
  let lazy_cuts x =
    let g = Digraph.copy p.graph in
    Array.iteri (fun k (i, j) -> if x.(k) then Digraph.add_edge g i j) vars;
    match Acyclic.find_cycle g with
    | None -> []
    | Some cycle ->
        let arr = Array.of_list cycle in
        let m = Array.length arr in
        let members = ref [] in
        for a = 0 to m - 1 do
          let e = (arr.(a), arr.((a + 1) mod m)) in
          match Hashtbl.find_opt index e with
          | Some k -> members := k :: !members
          | None -> ()
        done;
        let coeffs = List.map (fun k -> (k, 1.0)) !members in
        [ (coeffs, Simplex.Le, float_of_int (List.length !members - 1)) ]
  in
  let report = Bnb.solve ~lazy_cuts ~max_nodes ~integral_objective:true t in
  match report.Bnb.best with
  | None -> None
  | Some sol ->
      let new_edges = ref [] in
      Array.iteri (fun k e -> if sol.Bnb.x.(k) then new_edges := e :: !new_edges) vars;
      Some
        {
          new_edges = List.rev !new_edges;
          cost = int_of_float (Float.round sol.Bnb.obj);
          solver = `Ilp;
          ilp_nodes = report.Bnb.nodes;
          ilp_cuts = report.Bnb.cuts;
        }

(* ---- scalable min-cost-flow solver ---- *)

(* Candidate edges: level difference at most [window]; same-level pairs are
   oriented by vertex id, which keeps the result acyclic by construction
   (every chosen edge strictly increases (level, id) lexicographically). *)
let candidate p window i j =
  potential_pair p.graph p.levels ~root:p.root ~sink:p.sink i j
  && p.levels.(j) - p.levels.(i) <= window
  && (p.levels.(i) <> p.levels.(j) || i < j)

let solve_flow ?(window = 4) p =
  let n = Digraph.vertex_count p.graph in
  let d_in, d_out = demands p in
  (* Bucket vertices by level so candidate enumeration is near-linear. *)
  let max_level = Array.fold_left max 0 p.levels in
  let by_level = Array.make (max_level + 1) [] in
  for v = n - 1 downto 0 do
    by_level.(p.levels.(v)) <- v :: by_level.(p.levels.(v))
  done;
  let candidates = ref [] in
  let out_count = Array.make n 0 and in_count = Array.make n 0 in
  for i = 0 to n - 1 do
    if i <> p.sink then
      for lv = p.levels.(i) to min max_level (p.levels.(i) + window) do
        List.iter
          (fun j ->
            if candidate p window i j then begin
              candidates := (i, j) :: !candidates;
              out_count.(i) <- out_count.(i) + 1;
              in_count.(j) <- in_count.(j) + 1
            end)
          by_level.(lv)
      done
  done;
  let candidates = Array.of_list !candidates in
  let feasible = ref true in
  for v = 0 to n - 1 do
    if d_out.(v) > out_count.(v) then feasible := false;
    if d_in.(v) > in_count.(v) then feasible := false
  done;
  if not !feasible then None
  else begin
    (* Nodes: out-copy v, in-copy n + v, source 2n, sink 2n + 1. *)
    let s = 2 * n and t = (2 * n) + 1 in
    let arcs =
      Array.concat
        [
          Array.map
            (fun (i, j) ->
              {
                Mcf.With_lower_bounds.lb_src = i;
                lb_dst = n + j;
                lb_low = 0;
                lb_cap = 1;
                lb_cost = edge_cost p (i, j);
              })
            candidates;
          Array.init n (fun v ->
              {
                Mcf.With_lower_bounds.lb_src = s;
                lb_dst = v;
                lb_low = d_out.(v);
                lb_cap = out_count.(v);
                lb_cost = 0;
              });
          Array.init n (fun v ->
              {
                Mcf.With_lower_bounds.lb_src = n + v;
                lb_dst = t;
                lb_low = d_in.(v);
                lb_cap = in_count.(v);
                lb_cost = 0;
              });
        ]
    in
    match Mcf.With_lower_bounds.solve ~n:((2 * n) + 2) ~arcs ~s ~t with
    | None -> None
    | Some (cost, flows) ->
        let new_edges = ref [] in
        Array.iteri
          (fun k (i, j) -> if flows.(k) > 0 then new_edges := (i, j) :: !new_edges)
          candidates;
        Some
          {
            new_edges = List.rev !new_edges;
            cost;
            solver = `Flow;
            ilp_nodes = 0;
            ilp_cuts = 0;
          }
  end

let solve p =
  let n = Digraph.vertex_count p.graph in
  let result =
    if n <= 30 then
      match solve_ilp p with
      | Some s -> Some s
      | None -> solve_flow ~window:(Array.fold_left max 1 p.levels) p
    else
      let rec widen w =
        let max_w = Array.fold_left max 1 p.levels in
        match solve_flow ~window:w p with
        | Some s -> Some s
        | None -> if w >= max_w then None else widen (min max_w (2 * w))
      in
      widen 4
  in
  match result with
  | Some s -> s
  | None -> failwith "Augment.solve: augmentation infeasible"

(* Two vertex-independent paths from a terminal [t] to [v] exist iff [v]
   has no dominator besides [t] and itself once every edge leaving [t]
   is subdivided by a fresh vertex.  Subdivision makes [t] and [v]
   non-adjacent, so Menger's theorem applies in its vertex-cut form: two
   internally disjoint paths exist iff no single vertex separates them,
   i.e. iff [idom v = t].  The paths map back one-to-one because every
   path leaves [t] through its own subdivision vertex — in particular a
   direct edge [t -> v] counts once, exactly as in the flow formulation
   (the vertex-split flow of the Menger test oracle).  [edges] lists the
   graph's edges as seen from [t] (the transpose for the sink side). *)
let terminal_idoms ~n ~t edges =
  let g = Digraph.create ~size_hint:(2 * n) () in
  Digraph.add_vertices g n;
  List.iter
    (fun (u, w) ->
      if u = t then begin
        let s = Digraph.add_vertex g in
        Digraph.add_edge g t s;
        Digraph.add_edge g s w
      end
      else Digraph.add_edge g u w)
    edges;
  Dominator.idoms g ~root:t

let verify p new_edges =
  let g = Digraph.copy p.graph in
  List.iter (fun (i, j) -> Digraph.add_edge g i j) new_edges;
  let n = Digraph.vertex_count g in
  let d_in, d_out = demands p in
  let edges = Digraph.edges g in
  let from_root = terminal_idoms ~n ~t:p.root edges in
  let to_sink =
    terminal_idoms ~n ~t:p.sink (List.rev_map (fun (u, w) -> (w, u)) edges)
  in
  let problems = ref [] in
  if not (Order.is_acyclic g) then problems := "augmented graph is cyclic" :: !problems;
  for v = 0 to n - 1 do
    if Digraph.in_degree g v < Digraph.in_degree p.graph v + d_in.(v) then
      problems := Printf.sprintf "vertex %d in-degree demand unmet" v :: !problems;
    if Digraph.out_degree g v < Digraph.out_degree p.graph v + d_out.(v) then
      problems := Printf.sprintf "vertex %d out-degree demand unmet" v :: !problems;
    (* Semantic check: two vertex-independent paths wherever the degree
       demands claimed it possible. *)
    if v <> p.root && Digraph.in_degree g v >= 2 && from_root.(v) <> p.root
    then
      problems := Printf.sprintf "vertex %d lacks 2 root paths" v :: !problems;
    if v <> p.sink && Digraph.out_degree g v >= 2 && to_sink.(v) <> p.sink
    then
      problems := Printf.sprintf "vertex %d lacks 2 sink paths" v :: !problems
  done;
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " ps)
