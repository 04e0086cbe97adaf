module Netlist = Ftrsn_rsn.Netlist
module Fault = Ftrsn_fault.Fault
module Bitset = Ftrsn_topo.Bitset
module Lanes = Ftrsn_topo.Lanes
module Digraph = Ftrsn_topo.Digraph
module Order = Ftrsn_topo.Order

(* Dataflow vertex ids follow Netlist.dataflow_graph: 0 = scan-in,
   1 = scan-out, 2 + i = segment i. *)
let v_pi = 0
let v_po = 1
let v_of_seg i = 2 + i
let seg_of_v v = v - 2

type edge = {
  e_route : (int * int) list;  (* (mux, input index) pairs, consumer first *)
  (* Compiled steering requirements (performance: the metric evaluates the
     whole fault universe, so the per-edge checks must be flat arrays). *)
  e_dead : bool;  (* a constant address bit contradicts the requirement *)
  e_shadow_reqs : ((int * int) * int * int * bool * bool) array;
      (* ((mux, addr bit), seg, bit, required, reset_matches) for
         shadow-driven addresses *)
  e_addr_ports : (int * int * bool) array;
      (* (mux, addr bit, required) for lock checks, incl. primary/const *)
  e_muxes : (int * int) array;  (* (mux, input) for data-corruption checks *)
  e_detour : bool;
      (* the route steers an augmentation mux away from its default input:
         a redundant detour, only taken when the default routes fail *)
}

(* Compressed sparse rows: row [r] lists [idx.(off.(r))] ..
   [idx.(off.(r + 1) - 1)].  Every edge table the sweeps walk is one of
   these, read with [for] loops: a [List.iter] over an [int list] row
   allocates a closure per visit, and in OCaml 5 every minor collection
   stops all domains (DESIGN.md §20). *)
type csr = { off : int array; idx : int array }

(* Rows from an item-to-rows relation: [rows_of x add] calls [add r] once
   for each row [r] holding item [x].  Each row lists its items in
   DESCENDING order — the order of the per-row lists the engine built
   before, by prepending items in ascending order; edge visiting order
   decides ties in [shortest_paths] and the traversal order of
   [delta_full]. *)
let csr nrows nitems rows_of =
  let off = Array.make (nrows + 1) 0 in
  for x = 0 to nitems - 1 do
    rows_of x (fun r -> off.(r + 1) <- off.(r + 1) + 1)
  done;
  for r = 1 to nrows do
    off.(r) <- off.(r) + off.(r - 1)
  done;
  let next = Array.sub off 0 nrows in
  let idx = Array.make off.(nrows) 0 in
  for x = nitems - 1 downto 0 do
    rows_of x (fun r ->
        idx.(next.(r)) <- x;
        next.(r) <- next.(r) + 1)
  done;
  { off; idx }

let row_length c r = c.off.(r + 1) - c.off.(r)

type ctx = {
  net : Netlist.t;
  nsegs : int;
  nv : int;
  edges : edge array;
  e_src : int array;         (* per edge: source vertex *)
  e_dst : int array;         (* per edge: destination vertex *)
  out_adj : csr;             (* per vertex: edges leaving it *)
  in_adj : csr;              (* per vertex: edges entering it *)
  mux_consumer : int array;  (* dataflow vertex fed by each mux *)
  pi_successor : bool array; (* vertex has a direct edge from scan-in *)
}

let netlist ctx = ctx.net

(* Edges whose routes cross the same mux carry equal requirement tuples.
   [compile_edge] takes them from these per-context tables, indexed by mux
   and then by [2 * address bit + required] or by data input, so a context
   stores one copy of each instead of one per edge (they are immutable). *)
type shared = {
  sh_ports : (int * int * bool) option array array;
  sh_reqs : ((int * int) * int * int * bool * bool) option array array;
  sh_muxes : (int * int) option array array;
}

let shared_tables (net : Netlist.t) =
  let per_mux f = Array.map (fun mx -> Array.make (f mx) None) net.Netlist.muxes in
  let bits (mx : Netlist.mux) = 2 * Array.length mx.mux_addr in
  {
    sh_ports = per_mux bits;
    sh_reqs = per_mux bits;
    sh_muxes = per_mux (fun mx -> Array.length mx.Netlist.mux_inputs);
  }

let share tbl m i make =
  match tbl.(m).(i) with
  | Some x -> x
  | None ->
      let x = make () in
      tbl.(m).(i) <- Some x;
      x

let compile_edge sh (net : Netlist.t) route =
  let dead = ref false in
  let detour = ref false in
  let shadow_reqs = ref [] in
  let addr_ports = ref [] in
  List.iter
    (fun (m, k) ->
      let mx = net.Netlist.muxes.(m) in
      if k >= mx.Netlist.mux_rescue_from then detour := true;
      Array.iteri
        (fun b ctrl ->
          let required = k land (1 lsl b) <> 0 in
          let slot = (2 * b) + Bool.to_int required in
          addr_ports :=
            share sh.sh_ports m slot (fun () -> (m, b, required)) :: !addr_ports;
          match ctrl with
          | Netlist.Ctrl_const c -> if c <> required then dead := true
          | Netlist.Ctrl_primary _ -> ()
          | Netlist.Ctrl_shadow { cseg; cbit } ->
              let reset_matches =
                net.Netlist.segs.(cseg).Netlist.seg_reset.(cbit) = required
              in
              shadow_reqs :=
                share sh.sh_reqs m slot (fun () ->
                    ((m, b), cseg, cbit, required, reset_matches))
                :: !shadow_reqs)
        mx.mux_addr)
    route;
  {
    e_route = route;
    e_dead = !dead;
    e_shadow_reqs = Array.of_list !shadow_reqs;
    e_addr_ports = Array.of_list !addr_ports;
    (* Canonical input indices: duplicated data ports are one fault site. *)
    e_muxes =
      Array.of_list
        (List.map
           (fun (m, k) ->
             let c = Netlist.mux_input_class net m k in
             share sh.sh_muxes m c (fun () -> (m, c)))
           route);
    e_detour = !detour;
  }

let make_ctx (net : Netlist.t) =
  let nsegs = Netlist.num_segments net in
  let nv = 2 + nsegs in
  let routes = Netlist.edge_routes net in
  let sh = shared_tables net in
  let ends =
    Hashtbl.fold
      (fun (src, dst) rs acc ->
        List.rev_append
          (List.map (fun r -> (src, dst, compile_edge sh net r)) rs)
          acc)
      routes []
    |> Array.of_list
  in
  let edges = Array.map (fun (_, _, e) -> e) ends in
  let e_src = Array.map (fun (s, _, _) -> s) ends in
  let e_dst = Array.map (fun (_, d, _) -> d) ends in
  let nedges = Array.length edges in
  let mux_consumer = Array.make (Netlist.num_muxes net) (-1) in
  let pi_successor = Array.make nv false in
  Array.iteri
    (fun i e ->
      if e_src.(i) = 0 then pi_successor.(e_dst.(i)) <- true;
      Array.iter (fun (m, _) -> mux_consumer.(m) <- e_dst.(i)) e.e_muxes)
    edges;
  {
    net;
    nsegs;
    nv;
    edges;
    e_src;
    e_dst;
    out_adj = csr nv nedges (fun ei add -> add e_src.(ei));
    in_adj = csr nv nedges (fun ei add -> add e_dst.(ei));
    mux_consumer;
    pi_successor;
  }

let slice c r = Array.sub c.idx c.off.(r) (row_length c r)
let out_edges ctx v = slice ctx.out_adj v
let in_edges ctx v = slice ctx.in_adj v

type verdict = {
  writable : bool array;
  readable : bool array;
  accessible : bool array;
}

(* Static per-fault effects, independent of the writability fixpoint. *)
type effects = {
  hard_block : bool array;      (* segment cannot shift at all *)
  corrupt_vertex : bool array;  (* data through the segment is corrupted *)
  corrupt_in : bool array;      (* data entering the segment is corrupted *)
  corrupt_out : bool array;     (* data leaving the segment is corrupted *)
  kill_write : bool array;      (* local write capability lost *)
  kill_read : bool array;       (* local read capability lost *)
  mux_out_bad : bool array;     (* per mux: output corrupts data *)
  mutable mux_in_bad : (int * int) list;  (* (mux, input) data faults *)
  mutable locked_addr : (int * int * bool) list; (* mux addr bits forced *)
  mutable stuck_shadow : (int * int * bool) list; (* shadow bits pinned *)
  mutable glitch_shadow : (int * int * bool) list;
      (* shadow bits whose INITIAL value is upset (transient faults): the
         bit starts at the given value instead of its reset state but
         remains rewritable — it only changes [edge_steerable]'s
         reset-value fallback, never pins *)
  mutable pi_dead : bool;
  mutable po_dead : bool;
}

let no_effects ctx =
  {
    hard_block = Array.make ctx.nsegs false;
    corrupt_vertex = Array.make ctx.nsegs false;
    corrupt_in = Array.make ctx.nsegs false;
    corrupt_out = Array.make ctx.nsegs false;
    kill_write = Array.make ctx.nsegs false;
    kill_read = Array.make ctx.nsegs false;
    mux_out_bad = Array.make (Netlist.num_muxes ctx.net) false;
    mux_in_bad = [];
    locked_addr = [];
    stuck_shadow = [];
    glitch_shadow = [];
    pi_dead = false;
    po_dead = false;
  }

(* Snapshot of an effects record: the bool arrays are copied (folding a
   further summary into the copy must not disturb the original), the lists
   and flags are immutable values and shared. *)
let effects_copy e =
  {
    hard_block = Array.copy e.hard_block;
    corrupt_vertex = Array.copy e.corrupt_vertex;
    corrupt_in = Array.copy e.corrupt_in;
    corrupt_out = Array.copy e.corrupt_out;
    kill_write = Array.copy e.kill_write;
    kill_read = Array.copy e.kill_read;
    mux_out_bad = Array.copy e.mux_out_bad;
    mux_in_bad = e.mux_in_bad;
    locked_addr = e.locked_addr;
    stuck_shadow = e.stuck_shadow;
    glitch_shadow = e.glitch_shadow;
    pi_dead = e.pi_dead;
    po_dead = e.po_dead;
  }

(* With duplicated scan ports (§III-E-4), the secondary scan-in is wired to
   the input of every successor of the primary scan-in, and every
   predecessor of the primary scan-out is wired to the secondary scan-out.
   A fault in a mux feeding such a vertex (or feeding the scan-out) is
   therefore bypassed by the port switch: data can enter the vertex from
   the secondary scan-in, or be observed at the secondary scan-out,
   without traversing the faulty mux. *)
let port_mux_masked ctx m =
  ctx.net.Netlist.dual_ports
  &&
  let c = ctx.mux_consumer.(m) in
  c = v_po || (c >= 0 && ctx.pi_successor.(c))

let port_masked = port_mux_masked

(* Folds one fault's canonical semantic summary (see {!Fault.summarize} —
   the single place the stuck-at case analysis lives; the BMC engine
   derives its predicates from the same summaries) into [e]; composable,
   so the same machinery analyzes multi-fault scenarios (beyond the
   paper's single stuck-at scope). *)
let add_summary_effects e (sm : Fault.summary) =
  let set a i = a.(i) <- true in
  List.iter (set e.hard_block) sm.Fault.sm_hard_block;
  List.iter (set e.corrupt_vertex) sm.Fault.sm_corrupt_vertex;
  List.iter (set e.corrupt_in) sm.Fault.sm_corrupt_in;
  List.iter (set e.corrupt_out) sm.Fault.sm_corrupt_out;
  List.iter (set e.kill_write) sm.Fault.sm_kill_write;
  List.iter (set e.kill_read) sm.Fault.sm_kill_read;
  List.iter (set e.mux_out_bad) sm.Fault.sm_mux_out;
  e.mux_in_bad <- sm.Fault.sm_mux_in @ e.mux_in_bad;
  e.locked_addr <- sm.Fault.sm_locked_addr @ e.locked_addr;
  e.stuck_shadow <- sm.Fault.sm_stuck_shadow @ e.stuck_shadow;
  e.glitch_shadow <- sm.Fault.sm_glitch_shadow @ e.glitch_shadow;
  if sm.Fault.sm_pi_dead then e.pi_dead <- true;
  if sm.Fault.sm_po_dead then e.po_dead <- true;
  e

let summarize ctx f =
  Fault.summarize ~port_masked:(port_mux_masked ctx) ctx.net f

let add_fault_effects ctx e (f : Fault.t) =
  add_summary_effects e (summarize ctx f)

let effects_of_faults ctx faults =
  List.fold_left (add_fault_effects ctx) (no_effects ctx) faults

let effects_of_fault ctx (f : Fault.t option) =
  effects_of_faults ctx (Option.to_list f)

(* Scans of the effect lists, as top-level recursions: a closure handed
   to [List.exists] would be allocated on every edge check. *)
let rec mem_input m k = function
  | [] -> false
  | (m', k') :: rest -> (m' = m && k' = k) || mem_input m k rest

(* Does a lock force address port (m, b) to [v] / away from [v]? *)
let rec locked_to m b v = function
  | [] -> false
  | (m', b', v') :: rest -> (m' = m && b' = b && v' = v) || locked_to m b v rest

let rec locked_off m b v = function
  | [] -> false
  | (m', b', v') :: rest ->
      (m' = m && b' = b && v' <> v) || locked_off m b v rest

(* Pins of shadow bit (s, b) measured against [v]: 0 none, 1 every pin
   holds [v], 2 some pin holds the other value. *)
let rec pin_state acc s b v = function
  | [] -> acc
  | (s', b', v') :: rest ->
      let acc =
        if s' = s && b' = b then if v' <> v then 2 else max acc 1 else acc
      in
      pin_state acc s b v rest

(* Does shadow bit (s, b) start at [v]: the last upset entry on the bit
   decides, [dflt] (its reset agreement) when there is none. *)
let rec starts_at dflt s b v = function
  | [] -> dflt
  | (s', b', v') :: rest ->
      starts_at (if s' = s && b' = b then v' = v else dflt) s b v rest

(* Is edge [ei]'s data corrupted by the fault (mux data faults and the
   endpoint port faults)? *)
let edge_corrupt ctx eff ei =
  let muxes = ctx.edges.(ei).e_muxes in
  let bad = ref false in
  for j = 0 to Array.length muxes - 1 do
    let m, k = muxes.(j) in
    if eff.mux_out_bad.(m) || mem_input m k eff.mux_in_bad then bad := true
  done;
  !bad
  || (let u = ctx.e_src.(ei) in
      u >= 2 && eff.corrupt_out.(seg_of_v u))
  ||
  let w = ctx.e_dst.(ei) in
  w >= 2 && eff.corrupt_in.(seg_of_v w)

(* Can the muxes along an edge's route be steered to sensitize it, given
   the current set of writable segments?  A driver not (yet) writable must
   already hold the required value in its reset state (or be pinned to it
   by the fault). *)
let edge_steerable _ctx eff writable edge =
  (not edge.e_dead)
  && (eff.locked_addr = []
     ||
     let ok = ref true in
     let ports = edge.e_addr_ports in
     for p = 0 to Array.length ports - 1 do
       let m, b, required = ports.(p) in
       if locked_off m b required eff.locked_addr then ok := false
     done;
     !ok)
  &&
  let ok = ref true in
  let reqs = edge.e_shadow_reqs in
  for r = 0 to Array.length reqs - 1 do
    let (m, b), cseg, cbit, required, reset_matches = reqs.(r) in
    (* A port locked to the required value overrides its driver. *)
    if !ok && not (locked_to m b required eff.locked_addr) then
      (* Multi-fault effects can pin the same bit more than once — even
         to both values.  The check must not depend on effect order (the
         pair reduction relies on commutativity), so scan every entry:
         any pin to the wrong value defeats the requirement (two
         conflicting pins therefore kill the mux for both polarities), a
         pin to the required value satisfies it, and an unpinned bit
         falls back to the writability/reset rule. *)
      match pin_state 0 cseg cbit required eff.stuck_shadow with
      | 2 -> ok := false
      | 1 -> ()
      | _ ->
          (* A transient upset replaces the bit's INITIAL value: a
             not-yet-writable host satisfies the requirement iff the
             value the bit actually starts at matches (the glitched
             value if upset, the reset value otherwise). *)
          if
            (not writable.(cseg))
            && not
                 (starts_at reset_matches cseg cbit required eff.glitch_shadow)
          then ok := false
  done;
  !ok

(* Vertex can shift data through (ports always; segments unless hard
   blocked). *)
let shiftable eff v = v < 2 || not eff.hard_block.(seg_of_v v)

(* Vertex passes data through uncorrupted. *)
let clean_through eff v = v < 2 || not (eff.corrupt_vertex.(seg_of_v v))

(* Forward reachability from scan-in over steerable edges.  [clean] selects
   whether data integrity is required along the way. *)
let reach_from_pi ctx eff writable ~clean =
  let ok = Array.make ctx.nv false in
  if not (clean && eff.pi_dead) then begin
    ok.(v_pi) <- true;
    let q = Queue.create () in
    Queue.add v_pi q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      for k = ctx.out_adj.off.(u) to ctx.out_adj.off.(u + 1) - 1 do
        let ei = ctx.out_adj.idx.(k) in
        let v = ctx.e_dst.(ei) in
        if
          (not ok.(v))
          && v <> v_po
          (* Data integrity (and the ability to shift) matter only in
             clean mode: the non-clean prefix/suffix of an access just
             has to exist topologically — segments behind the target
             may hold frozen or corrupted data without affecting it.
             Membership only needs clean data INTO v; v's own through-
             corruption is checked when extending beyond v. *)
          && ((not clean) || shiftable eff v)
          && (not clean || not (edge_corrupt ctx eff ei))
          && edge_steerable ctx eff writable ctx.edges.(ei)
        then begin
          (* In clean mode the source must also pass data through
             uncorrupted (except the scan-in port itself). *)
          if (not clean) || u = v_pi || clean_through eff u then begin
            ok.(v) <- true;
            Queue.add v q
          end
        end
      done
    done
  end;
  ok

(* Backward reachability to scan-out over steerable edges. *)
let coreach_to_po ctx eff writable ~clean =
  let ok = Array.make ctx.nv false in
  if not (clean && eff.po_dead) then begin
    ok.(v_po) <- true;
    let q = Queue.create () in
    Queue.add v_po q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      for k = ctx.in_adj.off.(v) to ctx.in_adj.off.(v + 1) - 1 do
        let ei = ctx.in_adj.idx.(k) in
        let u = ctx.e_src.(ei) in
        if
          (not ok.(u))
          && u <> v_pi
          && ((not clean) || shiftable eff u)
          && (not clean
             || ((not (edge_corrupt ctx eff ei)) && clean_through eff u))
          && edge_steerable ctx eff writable ctx.edges.(ei)
        then begin
          ok.(u) <- true;
          Queue.add u q
        end
      done
    done
  end;
  ok

(* Direct scan-in -> scan-out edges don't matter for segment access, and
   [reach_from_pi] never enters v_po; symmetric for the co-reach. *)

let fixpoint_writable ctx eff =
  let writable = Array.make ctx.nsegs false in
  let changed = ref true in
  while !changed do
    changed := false;
    let rw = reach_from_pi ctx eff writable ~clean:true in
    let s_any = coreach_to_po ctx eff writable ~clean:false in
    for i = 0 to ctx.nsegs - 1 do
      if
        (not writable.(i))
        && rw.(v_of_seg i)
        && s_any.(v_of_seg i)
        && (not eff.kill_write.(i))
        && (not eff.pi_dead)
      then begin
        writable.(i) <- true;
        changed := true
      end
    done
  done;
  writable

let verdict_of_effects ctx eff =
  let writable = fixpoint_writable ctx eff in
  let r_any = reach_from_pi ctx eff writable ~clean:false in
  let s_clean = coreach_to_po ctx eff writable ~clean:true in
  let readable = Array.make ctx.nsegs false in
  for i = 0 to ctx.nsegs - 1 do
    readable.(i) <-
      r_any.(v_of_seg i)
      && s_clean.(v_of_seg i)
      && (not eff.kill_read.(i))
      && (not eff.corrupt_vertex.(i))
      && (not eff.po_dead)
  done;
  let accessible = Array.init ctx.nsegs (fun i -> writable.(i) && readable.(i)) in
  { writable; readable; accessible }

let analyze_multi ctx faults =
  verdict_of_effects ctx (effects_of_faults ctx faults)

let analyze ctx fault = analyze_multi ctx (Option.to_list fault)

let accessible_count v =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 v.accessible

let accessible_bits ctx v =
  let total = ref 0 in
  Array.iteri
    (fun i b -> if b then total := !total + Netlist.seg_len ctx.net i)
    v.accessible;
  !total

(* Dijkstra over dataflow vertices minimizing the scan-bit length of the
   path (the per-CSU shift-cycle count).  [edge_ok] filters usable edges.
   Returns the predecessor array, or distances of unreached vertices as
   max_int. *)
let shortest_paths ctx ~src ~edge_ok ~vertex_ok =
  let n = ctx.nv in
  (* Detour edges carry a dominating penalty so that witnesses use the
     original routes whenever possible — this keeps fault-free retargeting
     plans (and access latency) identical to the original RSN's, as §IV of
     the paper requires. *)
  let detour_penalty = (4 * Netlist.total_bits ctx.net) + 16 in
  let weight v =
    if v < 2 then 0 else Netlist.seg_len ctx.net (seg_of_v v)
  in
  let dist = Array.make n max_int in
  let prev = Array.make n (-1) in
  (* prev_edge.(v) is the edge index used to reach v *)
  let prev_edge = Array.make n (-1) in
  let done_ = Array.make n false in
  dist.(src) <- 0;
  let continue = ref true in
  while !continue do
    (* O(V^2) selection: dataflow graphs here have a few thousand
       vertices at most. *)
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if (not done_.(v)) && dist.(v) < max_int
         && (!best < 0 || dist.(v) < dist.(!best))
      then best := v
    done;
    if !best < 0 then continue := false
    else begin
      let u = !best in
      done_.(u) <- true;
      for k = ctx.out_adj.off.(u) to ctx.out_adj.off.(u + 1) - 1 do
        let ei = ctx.out_adj.idx.(k) in
        let v = ctx.e_dst.(ei) in
        if (not done_.(v)) && vertex_ok v && edge_ok ei then begin
          let d =
            dist.(u) + weight v
            + if ctx.edges.(ei).e_detour then detour_penalty else 0
          in
          if d < dist.(v) then begin
            dist.(v) <- d;
            prev.(v) <- u;
            prev_edge.(v) <- ei
          end
        end
      done
    end
  done;
  (dist, prev, prev_edge)

type witness = {
  w_vertices : int list;             (** scan-in .. scan-out *)
  w_routes : (int * int) list list;  (** steering route per edge, in order *)
}

let access_witness ctx fault s =
  let eff = effects_of_fault ctx fault in
  let writable = fixpoint_writable ctx eff in
  let target = v_of_seg s in
  let feasible =
    let rw = reach_from_pi ctx eff writable ~clean:true in
    let s_any = coreach_to_po ctx eff writable ~clean:false in
    rw.(target) && s_any.(target) && not eff.kill_write.(s)
  in
  if not feasible then None
  else begin
    (* The witness must be realizable BEFORE the target has ever been
       written, so its routes may not be steered by bits hosted in the
       target itself.  The fixpoint guarantees such a path exists: the
       target entered the writable set using only previously-writable
       hosts. *)
    let writable = Array.copy writable in
    writable.(s) <- false;
    let rw = reach_from_pi ctx eff writable ~clean:true in
    let s_any = coreach_to_po ctx eff writable ~clean:false in
    (* Minimum-bit prefix over clean steerable edges, then minimum-bit
       suffix over shiftable steerable edges. *)
    let prefix_edge_ok ei =
      let u = ctx.e_src.(ei) in
      (not (edge_corrupt ctx eff ei))
      && edge_steerable ctx eff writable ctx.edges.(ei)
      && (u = v_pi || (rw.(u) && clean_through eff u))
    in
    let prefix_vertex_ok v = v = target || (v <> v_po && rw.(v)) in
    let _, pre_prev, pre_edge =
      shortest_paths ctx ~src:v_pi ~edge_ok:prefix_edge_ok
        ~vertex_ok:prefix_vertex_ok
    in
    let suffix_edge_ok ei =
      let u = ctx.e_src.(ei) in
      edge_steerable ctx eff writable ctx.edges.(ei)
      && (u = target || s_any.(u))
    in
    let suffix_vertex_ok v = v = v_po || s_any.(v) in
    let _, suf_prev, suf_edge =
      shortest_paths ctx ~src:target ~edge_ok:suffix_edge_ok
        ~vertex_ok:suffix_vertex_ok
    in
    let rec unwind prev prev_e v acc_v acc_e =
      if prev.(v) < 0 then
        if v = v_pi || v = target then Some (v :: acc_v, acc_e) else None
      else
        unwind prev prev_e prev.(v) (v :: acc_v)
          (ctx.edges.(prev_e.(v)).e_route :: acc_e)
    in
    match
      (unwind pre_prev pre_edge target [] [],
       unwind suf_prev suf_edge v_po [] [])
    with
    | Some (pre_v, pre_r), Some (_ :: suf_v, suf_r) ->
        Some { w_vertices = pre_v @ suf_v; w_routes = pre_r @ suf_r }
    | _ -> None
  end

(* ---- fault-free baseline and cone-of-influence deltas ----

   The metric evaluates every fault of the universe against the same
   context, and most faults disturb only a small cone of the dataflow
   graph.  [baseline] precomputes the fault-free verdict plus the static
   reachability and dependency tables from which each fault's cone is
   derived; [analyze_delta] re-runs the fixpoint only inside the cone and
   splices the fault-free verdict everywhere else.  Exactness, not
   approximation: outside the cone the faulty least fixpoint provably
   coincides with the fault-free one, so the spliced verdict is
   bit-identical to [analyze]'s. *)

type baseline = {
  b_verdict : verdict;           (* fault-free analyze *)
  b_segs : int;                  (* accessible segments of [b_verdict] *)
  b_bits : int;                  (* accessible bits of [b_verdict] *)
  b_creach : Bitset.t array;
      (* per vertex v: the cascade closure of the vertices reachable from
         v (see [close_cascade]) *)
  b_ccoreach : Bitset.t array;
      (* per vertex v: the cascade closure of the vertices reaching v *)
  b_hosts : int array;
      (* segments hosting at least one not-reset-matching steering
         requirement (non-empty [b_host_edges_nonreset]), ascending *)
  b_host_edges_all : csr;
      (* per segment: edges with a shadow steering requirement hosted in
         the segment (any reset polarity) *)
  b_host_edges_nonreset : csr;
      (* per segment: edges with a hosted requirement whose reset value
         does NOT match — the only requirements that consult the host's
         writability *)
  b_mux_edges : csr;  (* per mux: edges routed through it *)
  b_steer : bool array;
      (* per edge: steerability in the fault-free network under the final
         fault-free writability.  Valid for any edge not affected by the
         fault, at every delta iteration: such an edge consults only
         non-cone hosts, whose writability never leaves its baseline
         value. *)
  b_corrupt : bool array;
      (* per edge: data corruption in the fault-free network — identically
         false, kept as the shared root of the stacked-delta corruption
         caches.  Never mutated. *)
  b_cyclic : bool;
      (* dataflow graph has a cycle: every tight analysis falls back to
         the coarse static cone *)
  b_live_out : csr;
  b_live_in : csr;
      (* per vertex: the baseline-steerable ("live") edges leaving /
         entering it — the subgraph every fault-free access uses *)
  b_live_reach : bool array;
      (* per vertex: reachable from scan-in over live edges.  In the
         fault-free network nothing is corrupted or blocked, so this is
         simultaneously the clean and the any-data forward traversal. *)
  b_live_coreach : bool array;  (* per vertex: reaches scan-out, ditto *)
  b_cert_rounds : (int array * int array) array;
      (* founded canonical writability certificates: per fixpoint round,
         the forward BFS tree from scan-in (per vertex, the incoming edge
         of its canonical prefix; -1 off-tree) and the backward BFS tree
         to scan-out (per vertex, the outgoing edge of its canonical
         suffix), both over edges enabled by the PREVIOUS rounds' writable
         set — so every not-reset-matching steering requirement on a
         certificate edge is hosted by a segment certified at a strictly
         earlier round.  The probe replays this forest to decide which
         segments keep their baseline-canonical access under a fault. *)
  b_cert_round_of : int array;
      (* per segment: the round at which it entered the writability
         fixpoint (its certificate lives in [b_cert_rounds] at that
         index); -1 if never writable *)
}

let baseline_verdict b = b.b_verdict

let edge_routes ctx =
  Array.mapi (fun ei e -> (ctx.e_src.(ei), ctx.e_dst.(ei), e.e_route)) ctx.edges

(* Accessible segments and bits of a verdict. *)
let verdict_counts ctx v =
  let segs = ref 0 and bits = ref 0 in
  Array.iteri
    (fun i ok ->
      if ok then begin
        incr segs;
        bits := !bits + Netlist.seg_len ctx.net i
      end)
    v.accessible;
  (!segs, !bits)

(* Cascade-closed reach and co-reach tables.

   The coarse cone (see [coarse_cone]) closes its seed set S under one
   rule applied element by element: a host segment i in S brings in
   reach(dst e) and coreach(src e) for every edge e with a
   not-reset-matching requirement hosted in i.  A closure under a
   per-element rule distributes over union, Cl(X u Y) = Cl X u Cl Y, so
   the closure of any seed set is the union of the closures of its
   pieces — and it suffices to precompute, per vertex v,

     creach v   = Cl (reach v)   = Cl {v} u U_{w in succ v} creach w
     ccoreach v = Cl (coreach v) = Cl {v} u U_{u in pred v} ccoreach u
     Cl {v}     = {v} u U_{e hosted in v} (creach (dst e) u ccoreach (src e))

   The system is monotone; its least solution is reached by rounds that
   sweep [creach] successors-first and [ccoreach] predecessors-first
   (topological order) until no set grows.  Without host edges the first
   round is the plain reach/co-reach computation and the second confirms
   it.  Cyclic dataflow: every table is full (the cones degenerate to
   the whole network, as before).  Returns the two tables and whether
   the graph is cyclic. *)
let close_cascade ctx g ~nonreset =
  let nv = ctx.nv in
  let creach = Array.init nv (fun _ -> Bitset.create nv) in
  let ccoreach = Array.init nv (fun _ -> Bitset.create nv) in
  match Order.sort g with
  | None ->
      Array.iter Bitset.fill creach;
      Array.iter Bitset.fill ccoreach;
      (creach, ccoreach, true)
  | Some order ->
      for v = 0 to nv - 1 do
        Bitset.add creach.(v) v;
        Bitset.add ccoreach.(v) v
      done;
      let grew = ref true in
      (* Cl {v} minus v itself, folded into [dst]. *)
      let hosted dst v =
        if v >= 2 then
          for k = nonreset.off.(seg_of_v v) to nonreset.off.(seg_of_v v + 1) - 1
          do
            let ei = nonreset.idx.(k) in
            if Bitset.union_changed dst creach.(ctx.e_dst.(ei)) then
              grew := true;
            if Bitset.union_changed dst ccoreach.(ctx.e_src.(ei)) then
              grew := true
          done
      in
      while !grew do
        grew := false;
        for idx = nv - 1 downto 0 do
          let v = order.(idx) in
          List.iter
            (fun w ->
              if Bitset.union_changed creach.(v) creach.(w) then grew := true)
            (Digraph.succ g v);
          hosted creach.(v) v
        done;
        for idx = 0 to nv - 1 do
          let v = order.(idx) in
          List.iter
            (fun u ->
              if Bitset.union_changed ccoreach.(v) ccoreach.(u) then
                grew := true)
            (Digraph.pred g v);
          hosted ccoreach.(v) v
        done
      done;
      (creach, ccoreach, false)

let baseline ctx =
  let b_verdict = analyze ctx None in
  let nv = ctx.nv in
  let nedges = Array.length ctx.edges in
  let g =
    Digraph.of_edges ~n:nv
      (List.init nedges (fun ei -> (ctx.e_src.(ei), ctx.e_dst.(ei))))
  in
  (* Host rows: the edge once per distinct segment hosting one of its
     shadow requirements (any reset polarity / not-reset-matching only). *)
  let hosts ~nonreset ei add =
    let reqs = ctx.edges.(ei).e_shadow_reqs in
    let listed (_, _, _, _, reset_matches) = not (nonreset && reset_matches) in
    Array.iteri
      (fun r ((_, cseg, _, _, _) as req) ->
        let same_host ((_, c, _, _, _) as q) = c = cseg && listed q in
        if listed req && not (Array.exists same_host (Array.sub reqs 0 r))
        then add cseg)
      reqs
  in
  let b_host_edges_all = csr ctx.nsegs nedges (hosts ~nonreset:false) in
  let b_host_edges_nonreset = csr ctx.nsegs nedges (hosts ~nonreset:true) in
  let b_mux_edges =
    csr (Netlist.num_muxes ctx.net) nedges (fun ei add ->
        let muxes = ctx.edges.(ei).e_muxes in
        Array.iteri
          (fun j (m, _) ->
            if not (Array.exists (fun (m', _) -> m' = m) (Array.sub muxes 0 j))
            then add m)
          muxes)
  in
  let b_creach, b_ccoreach, b_cyclic =
    close_cascade ctx g ~nonreset:b_host_edges_nonreset
  in
  let b_hosts =
    List.filter
      (fun i -> row_length b_host_edges_nonreset i > 0)
      (List.init ctx.nsegs Fun.id)
    |> Array.of_list
  in
  let eff0 = no_effects ctx in
  let b_steer =
    Array.map (edge_steerable ctx eff0 b_verdict.writable) ctx.edges
  in
  (* Read as sets only (reachability, region marks): order is immaterial. *)
  let live ends =
    csr nv nedges (fun ei add -> if b_steer.(ei) then add ends.(ei))
  in
  let b_live_out = live ctx.e_src in
  let b_live_in = live ctx.e_dst in
  (* Plain reachability over the live subgraph; with no corruption and no
     blocks these coincide with both the clean and the any-data baseline
     traversals ([b_verdict] was computed from exactly these edges). *)
  let bfs adj next ~root ~skip =
    let ok = Array.make nv false in
    ok.(root) <- true;
    let stack = ref [ root ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | u :: rest ->
          stack := rest;
          for k = adj.off.(u) to adj.off.(u + 1) - 1 do
            let v = next.(adj.idx.(k)) in
            if (not ok.(v)) && v <> skip then begin
              ok.(v) <- true;
              stack := v :: !stack
            end
          done
    done;
    ok
  in
  let b_live_reach = bfs b_live_out ctx.e_dst ~root:v_pi ~skip:v_po in
  let b_live_coreach = bfs b_live_in ctx.e_src ~root:v_po ~skip:v_pi in
  (* Founded canonical certificate forest: re-run the writability fixpoint
     in rounds, recording for each round a concrete scan-in prefix tree
     and scan-out suffix tree over the edges the PREVIOUS rounds enable.
     Every hosted not-reset-matching requirement on a round-k certificate
     edge is therefore certified at a round < k — the recursion the pair
     probe's fragility check relies on is well founded by construction.
     The fault-free network has no corruption or blocking, so the clean
     forward and any-data backward traversals are both plain BFS over the
     enabled edges, and the final writable set coincides with
     [b_verdict.writable]. *)
  let b_cert_round_of = Array.make ctx.nsegs (-1) in
  let cert_rounds = ref [] in
  let w = Array.make ctx.nsegs false in
  let progress = ref true in
  while !progress do
    progress := false;
    let enabled =
      Array.init nedges (fun ei -> edge_steerable ctx eff0 w ctx.edges.(ei))
    in
    let tree ~fwd ~root ~skip =
      let parent = Array.make nv (-1) in
      let seen = Array.make nv false in
      seen.(root) <- true;
      let stack = ref [ root ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | u :: rest ->
            stack := rest;
            let adj = if fwd then ctx.out_adj else ctx.in_adj in
            let next = if fwd then ctx.e_dst else ctx.e_src in
            for k = adj.off.(u) to adj.off.(u + 1) - 1 do
              let ei = adj.idx.(k) in
              if enabled.(ei) then begin
                let v = next.(ei) in
                if (not seen.(v)) && v <> skip then begin
                  seen.(v) <- true;
                  parent.(v) <- ei;
                  stack := v :: !stack
                end
              end
            done
      done;
      parent
    in
    let pre = tree ~fwd:true ~root:v_pi ~skip:v_po in
    let suf = tree ~fwd:false ~root:v_po ~skip:v_pi in
    let round = List.length !cert_rounds in
    let promoted = ref false in
    for s = 0 to ctx.nsegs - 1 do
      if (not w.(s)) && pre.(v_of_seg s) >= 0 && suf.(v_of_seg s) >= 0
      then begin
        w.(s) <- true;
        b_cert_round_of.(s) <- round;
        promoted := true
      end
    done;
    if !promoted then begin
      cert_rounds := (pre, suf) :: !cert_rounds;
      progress := true
    end
  done;
  assert (w = b_verdict.writable);
  let b_segs, b_bits = verdict_counts ctx b_verdict in
  {
    b_verdict;
    b_segs;
    b_bits;
    b_creach;
    b_ccoreach;
    b_hosts;
    b_host_edges_all;
    b_host_edges_nonreset;
    b_mux_edges;
    b_steer;
    b_corrupt = Array.make (Array.length ctx.edges) false;
    b_cyclic;
    b_live_out;
    b_live_in;
    b_live_reach;
    b_live_coreach;
    b_cert_rounds = Array.of_list (List.rev !cert_rounds);
    b_cert_round_of;
  }

(* Summary shapes that need no graph traversal at all (see analyze_delta's
   fast paths). *)
let only_kill_read (sm : Fault.summary) =
  sm.Fault.sm_kill_read <> []
  && Fault.summary_benign { sm with Fault.sm_kill_read = [] }

let only_kill_write (sm : Fault.summary) =
  sm.Fault.sm_kill_write <> []
  && Fault.summary_benign { sm with Fault.sm_kill_write = [] }

let local_kill_write base (sm : Fault.summary) =
  only_kill_write sm
  && List.for_all
       (fun i -> row_length base.b_host_edges_nonreset i = 0)
       sm.Fault.sm_kill_write

(* Coarse static cone: data/steering damage at a vertex or edge taints
   everything downstream (reach) and upstream (co-reach); local interface
   damage (kill_write / kill_read) taints only the segment itself, plus —
   through the cascade — any edge steered by a not-reset-matching bit
   hosted in a tainted segment, because that segment's writability may
   have changed.  A sound over-approximation under ANY base state (the
   tables are static), which the tight probe below is not; kept as the
   fallback for the summaries the probe refuses.

   The cascade is precomputed: [b_creach]/[b_ccoreach] are already
   closed under it (see [close_cascade]), and closure distributes over
   union, so the cone is the plain union of the seeds' closed tables —
   no per-summary fixpoint.  The seed walks are top-level recursions
   with no closure, so a cone costs no allocation (the lane sweep builds
   one per lane). *)

(* The closed tables of every edge in row [r] of [rows]. *)
let cone_row ctx base cv rows r =
  for k = rows.off.(r) to rows.off.(r + 1) - 1 do
    let ei = rows.idx.(k) in
    Bitset.union_into cv base.b_creach.(ctx.e_dst.(ei));
    Bitset.union_into cv base.b_ccoreach.(ctx.e_src.(ei))
  done

(* Data damage at a segment: everything it reaches and is reached by. *)
let rec cone_through base cv = function
  | [] -> ()
  | i :: rest ->
      Bitset.union_into cv base.b_creach.(v_of_seg i);
      Bitset.union_into cv base.b_ccoreach.(v_of_seg i);
      cone_through base cv rest

(* Interface damage: the segment itself plus its host edges. *)
let rec cone_local ctx base cv = function
  | [] -> ()
  | i :: rest ->
      Bitset.add cv (v_of_seg i);
      cone_row ctx base cv base.b_host_edges_nonreset i;
      cone_local ctx base cv rest

let rec cone_muxes ctx base cv = function
  | [] -> ()
  | m :: rest ->
      cone_row ctx base cv base.b_mux_edges m;
      cone_muxes ctx base cv rest

let rec cone_inputs ctx base cv = function
  | [] -> ()
  | (m, _) :: rest ->
      cone_row ctx base cv base.b_mux_edges m;
      cone_inputs ctx base cv rest

let rec cone_locks ctx base cv = function
  | [] -> ()
  | (m, _, _) :: rest ->
      cone_row ctx base cv base.b_mux_edges m;
      cone_locks ctx base cv rest

let rec cone_pins ctx base cv = function
  | [] -> ()
  | (i, _, _) :: rest ->
      cone_row ctx base cv base.b_host_edges_all i;
      cone_pins ctx base cv rest

(* [cv] is overwritten.  The cone of a summary union is the union of the
   summaries' cones. *)
let coarse_cone_into ctx base cv (sm : Fault.summary) =
  Bitset.clear cv;
  if sm.Fault.sm_pi_dead || sm.Fault.sm_po_dead then Bitset.fill cv
  else begin
    cone_through base cv sm.Fault.sm_hard_block;
    cone_through base cv sm.Fault.sm_corrupt_vertex;
    cone_through base cv sm.Fault.sm_corrupt_in;
    cone_through base cv sm.Fault.sm_corrupt_out;
    cone_local ctx base cv sm.Fault.sm_kill_write;
    cone_local ctx base cv sm.Fault.sm_kill_read;
    cone_muxes ctx base cv sm.Fault.sm_mux_out;
    cone_inputs ctx base cv sm.Fault.sm_mux_in;
    cone_locks ctx base cv sm.Fault.sm_locked_addr;
    cone_pins ctx base cv sm.Fault.sm_stuck_shadow
  end

(* The coarse cone's affected edges: the edges whose predicates the delta
   traversals must re-evaluate.  Those are the seed edges — data
   corruption lives on the edges adjacent to the disturbed segments,
   steering damage on the edges through the faulty muxes and the pinned
   hosts — plus the not-reset-matching host edges of every host inside
   the cone [cv] (their steering may change with the host's writability).
   A set over edge indices, so each edge counts once. *)
let mark_row aff rows r =
  for k = rows.off.(r) to rows.off.(r + 1) - 1 do
    Bitset.add aff rows.idx.(k)
  done

let affected_edges ctx base cv (sm : Fault.summary) =
  let aff = Bitset.create (Array.length ctx.edges) in
  if sm.Fault.sm_pi_dead || sm.Fault.sm_po_dead then Bitset.fill aff
  else begin
    List.iter
      (fun i -> mark_row aff ctx.in_adj (v_of_seg i))
      sm.Fault.sm_corrupt_in;
    List.iter
      (fun i -> mark_row aff ctx.out_adj (v_of_seg i))
      sm.Fault.sm_corrupt_out;
    List.iter (fun m -> mark_row aff base.b_mux_edges m) sm.Fault.sm_mux_out;
    List.iter
      (fun (m, _) -> mark_row aff base.b_mux_edges m)
      sm.Fault.sm_mux_in;
    List.iter
      (fun (m, _, _) -> mark_row aff base.b_mux_edges m)
      sm.Fault.sm_locked_addr;
    List.iter
      (fun (i, _, _) -> mark_row aff base.b_host_edges_all i)
      sm.Fault.sm_stuck_shadow;
    Array.iter
      (fun h ->
        if Bitset.mem cv (v_of_seg h) then
          mark_row aff base.b_host_edges_nonreset h)
      base.b_hosts
  end;
  aff

(* The coarse cone plus its affected edges, ascending. *)
let coarse_cone ctx base (sm : Fault.summary) =
  let cv = Bitset.create ctx.nv in
  coarse_cone_into ctx base cv sm;
  (cv, Bitset.elements (affected_edges ctx base cv sm))

(* ---- stacked secondary baselines ----

   The double-fault sweep groups pairs by first class, computes that
   class's faulty state ONCE, and runs the second fault's delta on top.
   [stacked] is the exact analogue of [baseline] for a (possibly) faulty
   base state: the verdict plus the per-edge steer/corruption caches under
   the stacked effects.  Everything the delta machinery consults about the
   BASE NETWORK (reach/co-reach tables, host/mux edge indices) is static,
   so it keeps coming from the underlying [baseline]; the cone argument
   only uses those tables as over-approximations of dependency, which they
   remain under any fault, so the splice is exact on stacked bases too. *)

type stacked = {
  s_base : baseline;
  s_sm : Fault.summary option;
      (* the stacked summary itself; [None] = fault-free base.  A delta on
         top must derive its cone from the UNION of this and the delta
         summary: the tight cone of the delta alone only bounds the
         divergence from the fault-free baseline, not from a faulty base
         (the base fault may have killed the very paths the splice relies
         on). *)
  s_eff : effects option;
      (* effects of the stacked summary; [None] = fault-free base (avoids
         allocating an effects record on the fast paths) *)
  s_verdict : verdict;  (* exact verdict under the stacked summary *)
  s_segs : int;         (* accessible segments of [s_verdict] *)
  s_bits : int;         (* accessible bits of [s_verdict] *)
  s_steer : bool array;
      (* per edge: steerability under the stacked effects and the settled
         writability of [s_verdict] *)
  s_corrupt : bool array;  (* per edge: corruption under the stacked effects *)
}

let of_baseline base =
  {
    s_base = base;
    s_sm = None;
    s_eff = None;
    s_verdict = base.b_verdict;
    s_segs = base.b_segs;
    s_bits = base.b_bits;
    s_steer = base.b_steer;
    s_corrupt = base.b_corrupt;
  }

(* Full cone-restricted fixpoint on top of the stacked state; [eff] must
   be the stacked effects extended with the delta summary, and [cone_sm]
   the union of the stacked and delta summaries (just the delta summary
   on a fault-free base).  Returns the combined verdict, the cone size,
   and the final steer/corruption caches (which [stack] packages into the
   next secondary baseline). *)
let delta_full ctx stk (cone_sm : Fault.summary) eff =
  let base = stk.s_base in
  let nsegs = ctx.nsegs and nedges = Array.length ctx.edges in
  let out_adj = ctx.out_adj and in_adj = ctx.in_adj in
  let cv = Bitset.create ctx.nv in
  coarse_cone_into ctx base cv cone_sm;
  let aff = affected_edges ctx base cv cone_sm in
  (* Seeded fixpoint: outside the cone the combined least fixpoint
     equals the stacked one, so seeding with (stacked minus cone) starts
     below the combined fixpoint and chaotic iteration converges to
     exactly it.  Writability and steerability only grow during the
     iteration, so the two supporting traversals (clean reach from
     scan-in, any co-reach to scan-out) are maintained incrementally:
     when a promoted segment makes a hosted edge steerable, the
     traversals extend across that edge instead of restarting — total
     work is about two traversals however deep the enabling chain. *)
  let writable = Array.copy stk.s_verdict.writable in
  let ncone = ref 0 in
  for i = 0 to nsegs - 1 do
    if Bitset.mem cv (v_of_seg i) then begin
      writable.(i) <- false;
      incr ncone
    end
  done;
  (* Per-edge caches under the current writability: only the affected
     edges ever deviate from the stacked state, and [steer] is
     refreshed exactly when one of an edge's not-reset-matching hosts
     is promoted; corruption is static per delta. *)
  let steer = Array.copy stk.s_steer in
  let corrupt = Array.copy stk.s_corrupt in
  for ei = 0 to nedges - 1 do
    if Bitset.mem aff ei then begin
      steer.(ei) <- edge_steerable ctx eff writable ctx.edges.(ei);
      corrupt.(ei) <- edge_corrupt ctx eff ei
    end
  done;
  let rw = Array.make ctx.nv false in
  let s_any = Array.make ctx.nv false in
  (* Vertices in the order they entered a traversal; [settle] consumes
     them batch by batch.  A vertex enters each traversal once. *)
  let newly = Array.make (2 * ctx.nv) 0 in
  let nnew = ref 0 in
  let fstack = Array.make ctx.nv 0 in
  let fsp = ref 0 in
  let bstack = Array.make ctx.nv 0 in
  let bsp = ref 0 in
  let mark_f v =
    rw.(v) <- true;
    fstack.(!fsp) <- v;
    incr fsp;
    newly.(!nnew) <- v;
    incr nnew
  in
  let mark_b v =
    s_any.(v) <- true;
    bstack.(!bsp) <- v;
    incr bsp;
    newly.(!nnew) <- v;
    incr nnew
  in
  let drain_f () =
    while !fsp > 0 do
      decr fsp;
      let u = fstack.(!fsp) in
      if u = v_pi || clean_through eff u then
        for k = out_adj.off.(u) to out_adj.off.(u + 1) - 1 do
          let ei = out_adj.idx.(k) in
          let v = ctx.e_dst.(ei) in
          if
            (not rw.(v))
            && v <> v_po
            && shiftable eff v
            && (not corrupt.(ei))
            && steer.(ei)
          then mark_f v
        done
    done
  in
  let drain_b () =
    while !bsp > 0 do
      decr bsp;
      let v = bstack.(!bsp) in
      for k = in_adj.off.(v) to in_adj.off.(v + 1) - 1 do
        let ei = in_adj.idx.(k) in
        let u = ctx.e_src.(ei) in
        if (not s_any.(u)) && u <> v_pi && steer.(ei) then mark_b u
      done
    done
  in
  if not eff.pi_dead then begin
    mark_f v_pi;
    drain_f ()
  end;
  mark_b v_po;
  drain_b ();
  let hosts = base.b_host_edges_nonreset in
  let promote i =
    if
      (not writable.(i))
      && rw.(v_of_seg i)
      && s_any.(v_of_seg i)
      && (not eff.kill_write.(i))
      && not eff.pi_dead
    then begin
      writable.(i) <- true;
      for k = hosts.off.(i) to hosts.off.(i + 1) - 1 do
        let ei = hosts.idx.(k) in
        if (not steer.(ei)) && edge_steerable ctx eff writable ctx.edges.(ei)
        then begin
          steer.(ei) <- true;
          let u = ctx.e_src.(ei) and w = ctx.e_dst.(ei) in
          if
            rw.(u)
            && (not rw.(w))
            && w <> v_po
            && shiftable eff w
            && (not corrupt.(ei))
            && (u = v_pi || clean_through eff u)
          then begin
            mark_f w;
            drain_f ()
          end;
          if s_any.(w) && (not s_any.(u)) && u <> v_pi then begin
            mark_b u;
            drain_b ()
          end
        end
      done
    end
  in
  (* The initial traversals' vertices need no promotion sweep of their
     own: the cone segments are all swept next. *)
  let settled = ref !nnew in
  for i = 0 to nsegs - 1 do
    if Bitset.mem cv (v_of_seg i) then promote i
  done;
  (* Then the vertices each sweep added, most recent first. *)
  while !settled < !nnew do
    let hi = !nnew in
    for t = hi - 1 downto !settled do
      let v = newly.(t) in
      if v >= 2 then promote (seg_of_v v)
    done;
    settled := hi
  done;
  (* Final traversals under the settled writability, reusing the edge
     caches: any-data reach from scan-in, clean co-reach to scan-out. *)
  let r_any = Array.make ctx.nv false in
  r_any.(v_pi) <- true;
  fstack.(0) <- v_pi;
  fsp := 1;
  while !fsp > 0 do
    decr fsp;
    let u = fstack.(!fsp) in
    for k = out_adj.off.(u) to out_adj.off.(u + 1) - 1 do
      let ei = out_adj.idx.(k) in
      let v = ctx.e_dst.(ei) in
      if (not r_any.(v)) && v <> v_po && steer.(ei) then begin
        r_any.(v) <- true;
        fstack.(!fsp) <- v;
        incr fsp
      end
    done
  done;
  let s_clean = Array.make ctx.nv false in
  if not eff.po_dead then begin
    s_clean.(v_po) <- true;
    bstack.(0) <- v_po;
    bsp := 1;
    while !bsp > 0 do
      decr bsp;
      let v = bstack.(!bsp) in
      for k = in_adj.off.(v) to in_adj.off.(v + 1) - 1 do
        let ei = in_adj.idx.(k) in
        let u = ctx.e_src.(ei) in
        if
          (not s_clean.(u))
          && u <> v_pi
          && shiftable eff u
          && (not corrupt.(ei))
          && clean_through eff u
          && steer.(ei)
        then begin
          s_clean.(u) <- true;
          bstack.(!bsp) <- u;
          incr bsp
        end
      done
    done
  end;
  let readable = Array.copy stk.s_verdict.readable in
  let accessible = Array.copy stk.s_verdict.accessible in
  for i = 0 to nsegs - 1 do
    if Bitset.mem cv (v_of_seg i) then begin
      let r =
        r_any.(v_of_seg i)
        && s_clean.(v_of_seg i)
        && (not eff.kill_read.(i))
        && (not eff.corrupt_vertex.(i))
        && not eff.po_dead
      in
      readable.(i) <- r;
      accessible.(i) <- writable.(i) && r
    end
  done;
  ({ writable; readable; accessible }, !ncone, steer, corrupt)

(* Combined effects of the stacked state plus one further summary. *)
let stacked_eff ctx stk sm =
  match stk.s_eff with
  | None -> add_summary_effects (no_effects ctx) sm
  | Some e -> add_summary_effects (effects_copy e) sm

(* How [analyze_delta_on] answers a delta summary.  The three fast
   kinds reason about the DELTA summary alone and splice from the
   stacked verdict, so they stay valid on faulty bases. *)
type delta_kind =
  | D_benign      (* verdict = the stacked one *)
  | D_glitch      (* transient upsets: full fixpoint *)
  | D_kill_read   (* pure kill_read: flip the listed segments *)
  | D_kill_write  (* local kill_write: flip the listed segments *)
  | D_full        (* cone-restricted seeded fixpoint ([delta_full]) *)

let delta_kind stk (sm : Fault.summary) =
  let glitchy =
    sm.Fault.sm_glitch_shadow <> []
    || (match stk.s_sm with
       | Some s0 -> s0.Fault.sm_glitch_shadow <> []
       | None -> false)
  in
  if Fault.summary_benign sm then D_benign
  else if glitchy then D_glitch
  else if only_kill_read sm then D_kill_read
  else if local_kill_write stk.s_base sm then D_kill_write
  else D_full

(* Delta of summary [sm] on top of an arbitrary stacked state.  Exact:
   the combined verdict is bit-identical to [analyze_multi] over the
   union of the stacked and delta summaries. *)
let analyze_delta_on ctx stk (sm : Fault.summary) =
  match delta_kind stk sm with
  | D_benign -> (stk.s_verdict, 0)
  | D_glitch ->
    (* Transient upsets can produce steering GAINS (a bit starting at the
       required value with an unwritable host) that the cone tables and
       the seeded delta below do not model — they were built for faults
       that only ever degrade steering.  Fall back to the full fixpoint;
       the reported cone is the exact verdict diff.  The transient
       universes are small (one class per shadow bit), so the fallback
       never dominates a sweep. *)
    let v = verdict_of_effects ctx (stacked_eff ctx stk sm) in
    let n = ref 0 in
    for i = 0 to ctx.nsegs - 1 do
      if
        v.writable.(i) <> stk.s_verdict.writable.(i)
        || v.readable.(i) <> stk.s_verdict.readable.(i)
      then incr n
    done;
    (v, !n)
  | D_kill_read ->
    (* kill_read is consulted only by the readable formula: no traversal
       changes, so flip the affected segments in place. *)
    let readable = Array.copy stk.s_verdict.readable in
    let accessible = Array.copy stk.s_verdict.accessible in
    List.iter
      (fun i ->
        readable.(i) <- false;
        accessible.(i) <- false)
      sm.Fault.sm_kill_read;
    ( { writable = stk.s_verdict.writable; readable; accessible },
      List.length sm.Fault.sm_kill_read )
  | D_kill_write ->
    (* Writability is consulted by steering only through
       not-reset-matching hosted requirements; with none hosted in the
       killed segments, the traversals are untouched too. *)
    let writable = Array.copy stk.s_verdict.writable in
    let accessible = Array.copy stk.s_verdict.accessible in
    List.iter
      (fun i ->
        writable.(i) <- false;
        accessible.(i) <- false)
      sm.Fault.sm_kill_write;
    ( { writable; readable = stk.s_verdict.readable; accessible },
      List.length sm.Fault.sm_kill_write )
  | D_full ->
    let cone_sm =
      match stk.s_sm with
      | None -> sm
      | Some s0 -> Fault.summary_union s0 sm
    in
    let v, n, _, _ = delta_full ctx stk cone_sm (stacked_eff ctx stk sm) in
    (v, n)

(* [analyze_delta_on]'s accessible segments, bits and cone size.  The
   two kill kinds only turn the listed segments inaccessible, so their
   counts are the stacked counts minus the listed segments that were
   accessible (each counted once) — no verdict arrays are built. *)
let delta_counts ctx stk (sm : Fault.summary) =
  let killed listed =
    let acc = stk.s_verdict.accessible in
    let rec go seen ds db = function
      | [] -> (stk.s_segs - ds, stk.s_bits - db, List.length listed)
      | i :: rest ->
          if acc.(i) && not (List.mem i seen) then
            go (i :: seen) (ds + 1) (db + Netlist.seg_len ctx.net i) rest
          else go seen ds db rest
    in
    go [] 0 0 listed
  in
  match delta_kind stk sm with
  | D_benign -> (stk.s_segs, stk.s_bits, 0)
  | D_kill_read -> killed sm.Fault.sm_kill_read
  | D_kill_write -> killed sm.Fault.sm_kill_write
  | D_glitch | D_full ->
      let v, cone = analyze_delta_on ctx stk sm in
      let segs, bits = verdict_counts ctx v in
      (segs, bits, cone)

let analyze_delta ctx base sm = analyze_delta_on ctx (of_baseline base) sm

(* ---- lane-parallel batch sweeps ----

   The metric evaluates thousands of collapsed classes against one
   context; [analyze_delta] already cuts each class to its cone, but
   still pays one fixpoint per class.  The lane sweep transposes the
   computation: up to [Lanes.width] classes share ONE fixpoint, every
   per-vertex / per-edge predicate becomes a machine word whose bit L
   answers lane L, and word-level AND/OR/ANDN replace the per-class
   boolean evaluation.  The word operations act lane-wise
   independently, so each lane runs exactly the scalar semantics:

   - the per-lane static effect masks below are the word transposition
     of [effects] ([add_summary_effects] projected onto segments,
     edges and the two port flags);
   - [steer_word] is [edge_steerable] lane-wise: a wrong lock or a
     constant contradiction kills the lane's edge outright, a lock on
     the required value waives the hosted requirement, a wrong pin
     defeats it even when the reset matches, a right pin satisfies it,
     and an untouched requirement falls back to the host's writability
     (or the reset value) — the pin/lock masks live in a sparse
     per-(edge, requirement) table materialized only for the edges the
     batch actually touches;
   - each lane's writability is seeded with the baseline writable set
     minus the lane's coarse cone ([coarse_cone] — the same cone
     [analyze_delta] restricts its fixpoint to).  Outside the cone the
     faulty least fixpoint provably equals the baseline, so each seed
     starts at or below its lane's least fixpoint, and the monotone
     word iteration (writability and steerability only grow) converges
     to exactly the per-lane least fixpoints — lanes whose seed is
     already settled simply never promote (counted as [ls_masked]);
   - one word-parallel traversal pass per round (clean forward reach,
     any-data backward co-reach) replaces [Lanes.width] scalar BFS
     passes, and the two final traversals produce all lanes' readable
     sets at once.

   The per-lane verdicts are bit-identical to [analyze_delta]'s (hence
   to [analyze]'s) — property-tested against both. *)

let lane_width = Lanes.width

type lane_stats = {
  ls_batches : int;  (* batch sweeps run *)
  ls_lanes : int;    (* lanes occupied across all batches *)
  ls_masked : int;   (* lanes settled at their cone seed: no promotion *)
  ls_fast : int;     (* classes answered by the O(1) fast paths instead *)
  ls_rounds : int;   (* fixpoint rounds across all batches *)
}

let lane_stats_zero =
  { ls_batches = 0; ls_lanes = 0; ls_masked = 0; ls_fast = 0; ls_rounds = 0 }

let lane_stats_add a b =
  {
    ls_batches = a.ls_batches + b.ls_batches;
    ls_lanes = a.ls_lanes + b.ls_lanes;
    ls_masked = a.ls_masked + b.ls_masked;
    ls_fast = a.ls_fast + b.ls_fast;
    ls_rounds = a.ls_rounds + b.ls_rounds;
  }

(* Classes [analyze_delta] answers without any traversal; they never
   occupy a lane. *)
let lane_fast base sm =
  Fault.summary_benign sm || only_kill_read sm || local_kill_write base sm

(* Batch formation: fast classes aside, the rest grouped by summary
   shape so the dead-port classes (full-network cones, extra fixpoint
   rounds) don't drag the shallow batches, then chunked [lane_width]
   wide in input order (deterministic). *)
let lane_plan base (sms : Fault.summary array) =
  let fast = ref [] and general = ref [] and port = ref [] in
  Array.iteri
    (fun i sm ->
      (* Glitch (transient) summaries go to the scalar delta path: the
         word-parallel steering rule below has no notion of an upset
         initial value ([analyze_delta] handles them by full fixpoint). *)
      if lane_fast base sm || sm.Fault.sm_glitch_shadow <> [] then
        fast := i :: !fast
      else
        match Fault.summary_shape sm with
        | Fault.Port_dead -> port := i :: !port
        | _ -> general := i :: !general)
    sms;
  let chunk l =
    let rec go acc cur n = function
      | [] -> if cur = [] then acc else List.rev cur :: acc
      | x :: rest ->
          if n = lane_width then go (List.rev cur :: acc) [ x ] 1 rest
          else go acc (x :: cur) (n + 1) rest
    in
    List.rev_map Array.of_list (go [] [] 0 (List.rev l))
  in
  (List.rev !fast, chunk !general @ chunk !port)

(* The batch generalized to an arbitrary stacked root (the double-fault
   sweep: one secondary baseline, up to [lane_width] second faults per
   fixpoint).  The stacked summary's effect masks are folded into every
   lane at the occupancy mask [occ] — the word transposition of
   [stacked_eff] (the scalar entry checks are order-independent, so OR
   accumulation is exact even when the stacked and delta summaries pin
   the same shadow bit) — and each lane's writability seed is the
   STACKED writable set minus the cone of the UNION of the stacked and
   delta summaries, exactly the cone [analyze_delta_on] restricts its
   seeded fixpoint to.  [coarse_cone] is sound under any base state
   (its tables are static over-approximations of dependency), so
   outside the union cone the combined least fixpoint equals the
   stacked one: each seed starts at or below its lane's combined least
   fixpoint and the monotone word iteration converges to exactly it.
   With a fault-free root ([of_baseline]) the union cone is the delta's
   own cone, so the single-fault sweep is the same code. *)
(* A batch workspace: every array one lane sweep needs, sized for one
   [ctx] and reused across batches, so a sweep of thousands of batches
   allocates them once.  Owned by one worker at a time (it is mutable
   scratch, never shared between domains or threads). *)
type lane_ws = {
  lw_hard_block : int array;      (* per segment: lane masks ... *)
  lw_corrupt_vertex : int array;
  lw_kill_write : int array;
  lw_kill_read : int array;
  lw_writable : int array;        (* per segment: writability words *)
  lw_corrupt_e : int array;       (* per edge: corruption lanes *)
  lw_dead_e : int array;          (* per edge: dead lanes *)
  lw_steer : int array;           (* per edge: steerability words *)
  lw_req_off : int array;
      (* per edge: offset of its shadow requirements in the flat
         lock/pin masks below ([nedges + 1] entries) *)
  lw_lockr : int array;  (* per requirement: lanes locking it right *)
  lw_pinw : int array;   (* per requirement: lanes pinning it wrong *)
  lw_pinr : int array;   (* per requirement: lanes pinning it right *)
  lw_touched : bool array;
      (* per edge: its requirement masks are live for this batch (an
         untouched edge's masks are all zero and never read) *)
  lw_touched_list : int array;
  mutable lw_ntouched : int;
  lw_stack : int array;
  lw_inq : bool array;
  lw_rw : Lanes.t;
  lw_s_any : Lanes.t;
  lw_r_any : Lanes.t;
  lw_s_clean : Lanes.t;
  mutable lw_sp : int;            (* worklist depth *)
  lw_cone0 : Bitset.t;            (* the stacked summary's coarse cone *)
  lw_cone : Bitset.t;             (* one lane's coarse cone *)
  lw_cone_lens : int array;       (* per lane: cone size in segments *)
  lw_segs : int array;            (* per lane: accessible segments *)
  lw_bits : int array;            (* per lane: accessible bits *)
  mutable lw_k : int;             (* lanes of the last batch *)
  mutable lw_occ : int;
  mutable lw_pi_dead : int;
  mutable lw_po_dead : int;
}

let lane_workspace ctx =
  let nsegs = ctx.nsegs and nv = ctx.nv in
  let nedges = Array.length ctx.edges in
  let req_off = Array.make (nedges + 1) 0 in
  Array.iteri
    (fun ei e -> req_off.(ei + 1) <- req_off.(ei) + Array.length e.e_shadow_reqs)
    ctx.edges;
  let nreqs = req_off.(nedges) in
  {
    lw_hard_block = Array.make nsegs 0;
    lw_corrupt_vertex = Array.make nsegs 0;
    lw_kill_write = Array.make nsegs 0;
    lw_kill_read = Array.make nsegs 0;
    lw_writable = Array.make nsegs 0;
    lw_corrupt_e = Array.make nedges 0;
    lw_dead_e = Array.make nedges 0;
    lw_steer = Array.make nedges 0;
    lw_req_off = req_off;
    lw_lockr = Array.make nreqs 0;
    lw_pinw = Array.make nreqs 0;
    lw_pinr = Array.make nreqs 0;
    lw_touched = Array.make nedges false;
    lw_touched_list = Array.make nedges 0;
    lw_ntouched = 0;
    lw_stack = Array.make nv 0;
    lw_inq = Array.make nv false;
    lw_rw = Lanes.create nv;
    lw_s_any = Lanes.create nv;
    lw_r_any = Lanes.create nv;
    lw_s_clean = Lanes.create nv;
    lw_sp = 0;
    lw_cone0 = Bitset.create nv;
    lw_cone = Bitset.create nv;
    lw_cone_lens = Array.make lane_width 0;
    lw_segs = Array.make lane_width 0;
    lw_bits = Array.make lane_width 0;
    lw_k = 0;
    lw_occ = 0;
    lw_pi_dead = 0;
    lw_po_dead = 0;
  }

(* The lane sweep's pieces are top-level functions over the workspace,
   and every loop is a [for] or [while] over flat arrays: nothing in a
   sweep allocates beyond its result record, whatever the network size
   (DESIGN.md §20). *)

(* Lane masks of one summary, OR-ed in at lane word [bit]. *)
let rec or_segs a bit = function
  | [] -> ()
  | i :: rest ->
      a.(i) <- a.(i) lor bit;
      or_segs a bit rest

let or_row a bit rows r =
  for k = rows.off.(r) to rows.off.(r + 1) - 1 do
    let ei = rows.idx.(k) in
    a.(ei) <- a.(ei) lor bit
  done

let rec or_rows a bit rows ~shift = function
  | [] -> ()
  | r :: rest ->
      or_row a bit rows (r + shift);
      or_rows a bit rows ~shift rest

(* Marks edge [ei]'s requirement masks live for this batch (zeroing them
   on first touch); returns their offset. *)
let touch ws ei =
  let req_off = ws.lw_req_off in
  if not ws.lw_touched.(ei) then begin
    ws.lw_touched.(ei) <- true;
    ws.lw_touched_list.(ws.lw_ntouched) <- ei;
    ws.lw_ntouched <- ws.lw_ntouched + 1;
    for r = req_off.(ei) to req_off.(ei + 1) - 1 do
      ws.lw_lockr.(r) <- 0;
      ws.lw_pinw.(r) <- 0;
      ws.lw_pinr.(r) <- 0
    done
  end;
  req_off.(ei)

let has_input muxes m k =
  let found = ref false in
  for j = 0 to Array.length muxes - 1 do
    let m', k' = muxes.(j) in
    if m' = m && k' = k then found := true
  done;
  !found

let rec fold_inputs ctx base ws bit = function
  | [] -> ()
  | (m, k) :: rest ->
      let rows = base.b_mux_edges in
      for x = rows.off.(m) to rows.off.(m + 1) - 1 do
        let ei = rows.idx.(x) in
        if has_input ctx.edges.(ei).e_muxes m k then
          ws.lw_corrupt_e.(ei) <- ws.lw_corrupt_e.(ei) lor bit
      done;
      fold_inputs ctx base ws bit rest

let rec fold_locks ctx base ws bit = function
  | [] -> ()
  | (m, b, v) :: rest ->
      let rows = base.b_mux_edges in
      for x = rows.off.(m) to rows.off.(m + 1) - 1 do
        let ei = rows.idx.(x) in
        let e = ctx.edges.(ei) in
        (* A lock to the wrong value kills the lane's edge outright (the
           scalar check scans every addressed port, shadow-driven or
           not). *)
        let ports = e.e_addr_ports in
        let wrong = ref false in
        for p = 0 to Array.length ports - 1 do
          let m', b', required = ports.(p) in
          if m' = m && b' = b && required <> v then wrong := true
        done;
        if !wrong then ws.lw_dead_e.(ei) <- ws.lw_dead_e.(ei) lor bit;
        (* A lock to the required value waives the hosted requirement on
           that port. *)
        let off = touch ws ei in
        let reqs = e.e_shadow_reqs in
        for r = 0 to Array.length reqs - 1 do
          let (m', b'), _, _, required, _ = reqs.(r) in
          if m' = m && b' = b && required = v then
            ws.lw_lockr.(off + r) <- ws.lw_lockr.(off + r) lor bit
        done
      done;
      fold_locks ctx base ws bit rest

let rec fold_pins ctx base ws bit = function
  | [] -> ()
  | (cseg, cbit, v) :: rest ->
      let rows = base.b_host_edges_all in
      for x = rows.off.(cseg) to rows.off.(cseg + 1) - 1 do
        let ei = rows.idx.(x) in
        let off = touch ws ei in
        let reqs = ctx.edges.(ei).e_shadow_reqs in
        for r = 0 to Array.length reqs - 1 do
          let _, cseg', cbit', required, _ = reqs.(r) in
          if cseg' = cseg && cbit' = cbit then
            if v <> required then
              ws.lw_pinw.(off + r) <- ws.lw_pinw.(off + r) lor bit
            else ws.lw_pinr.(off + r) <- ws.lw_pinr.(off + r) lor bit
        done
      done;
      fold_pins ctx base ws bit rest

let fold_summary ctx base ws bit (sm : Fault.summary) =
  or_segs ws.lw_hard_block bit sm.Fault.sm_hard_block;
  or_segs ws.lw_corrupt_vertex bit sm.Fault.sm_corrupt_vertex;
  or_segs ws.lw_kill_write bit sm.Fault.sm_kill_write;
  or_segs ws.lw_kill_read bit sm.Fault.sm_kill_read;
  or_rows ws.lw_corrupt_e bit ctx.in_adj ~shift:2 sm.Fault.sm_corrupt_in;
  or_rows ws.lw_corrupt_e bit ctx.out_adj ~shift:2 sm.Fault.sm_corrupt_out;
  or_rows ws.lw_corrupt_e bit base.b_mux_edges ~shift:0 sm.Fault.sm_mux_out;
  fold_inputs ctx base ws bit sm.Fault.sm_mux_in;
  fold_locks ctx base ws bit sm.Fault.sm_locked_addr;
  fold_pins ctx base ws bit sm.Fault.sm_stuck_shadow;
  if sm.Fault.sm_pi_dead then ws.lw_pi_dead <- ws.lw_pi_dead lor bit;
  if sm.Fault.sm_po_dead then ws.lw_po_dead <- ws.lw_po_dead lor bit

(* [edge_steerable] lane-wise, under the current writability words. *)
let steer_word ctx ws ei =
  let occ = ws.lw_occ and writable_w = ws.lw_writable in
  let reqs = ctx.edges.(ei).e_shadow_reqs in
  let s = ref (occ land lnot ws.lw_dead_e.(ei)) in
  if not ws.lw_touched.(ei) then
    for r = 0 to Array.length reqs - 1 do
      let _, cseg, _, _, reset_matches = reqs.(r) in
      if not reset_matches then s := !s land writable_w.(cseg)
    done
  else begin
    let off = ws.lw_req_off.(ei) in
    for r = 0 to Array.length reqs - 1 do
      let _, cseg, _, _, reset_matches = reqs.(r) in
      s :=
        !s
        land (ws.lw_lockr.(off + r)
             lor (lnot ws.lw_pinw.(off + r)
                 land
                 if reset_matches then occ
                 else ws.lw_pinr.(off + r) lor writable_w.(cseg)))
    done
  end;
  !s

(* Word-parallel worklist traversals.  A vertex re-enters the worklist
   whenever its word grows, so each pass settles all lanes at once. *)
let push ws v =
  if not ws.lw_inq.(v) then begin
    ws.lw_inq.(v) <- true;
    ws.lw_stack.(ws.lw_sp) <- v;
    ws.lw_sp <- ws.lw_sp + 1
  end

let pop ws =
  ws.lw_sp <- ws.lw_sp - 1;
  let v = ws.lw_stack.(ws.lw_sp) in
  ws.lw_inq.(v) <- false;
  v

let shift_mask ws v = if v >= 2 then lnot ws.lw_hard_block.(seg_of_v v) else -1

let through_mask ws v =
  if v >= 2 then lnot ws.lw_corrupt_vertex.(seg_of_v v) else -1

(* Forward traversal from scan-in into [lanes], started at [start]:
   [clean] selects [reach_from_pi ~clean:true] (membership needs clean
   data INTO the vertex and its shiftability; extension beyond a vertex
   additionally needs its through-cleanness), otherwise the any-data
   reach, where steering is the only gate. *)
let lane_forward ctx ws lanes start ~clean =
  let out_adj = ctx.out_adj in
  Lanes.clear lanes;
  ws.lw_sp <- 0;
  if start <> 0 then begin
    ignore (Lanes.or_in lanes v_pi start);
    push ws v_pi
  end;
  while ws.lw_sp > 0 do
    let u = pop ws in
    let x = Lanes.get lanes u in
    let x = if clean then x land through_mask ws u else x in
    if x <> 0 then
      for k = out_adj.off.(u) to out_adj.off.(u + 1) - 1 do
        let ei = out_adj.idx.(k) in
        let v = ctx.e_dst.(ei) in
        if v <> v_po then begin
          let add = x land ws.lw_steer.(ei) in
          let add =
            if clean then
              add land lnot ws.lw_corrupt_e.(ei) land shift_mask ws v
            else add
          in
          if add <> 0 && Lanes.or_in lanes v add <> 0 then push ws v
        end
      done
  done

(* Backward traversal to scan-out: the any-data co-reach ([coreach_to_po
   ~clean:false]) or, with [clean], the clean one. *)
let lane_backward ctx ws lanes start ~clean =
  let in_adj = ctx.in_adj in
  Lanes.clear lanes;
  ws.lw_sp <- 0;
  if start <> 0 then begin
    ignore (Lanes.or_in lanes v_po start);
    push ws v_po
  end;
  while ws.lw_sp > 0 do
    let v = pop ws in
    let x = Lanes.get lanes v in
    for k = in_adj.off.(v) to in_adj.off.(v + 1) - 1 do
      let ei = in_adj.idx.(k) in
      let u = ctx.e_src.(ei) in
      if u <> v_pi then begin
        let add = x land ws.lw_steer.(ei) in
        let add =
          if clean then
            add land lnot ws.lw_corrupt_e.(ei) land shift_mask ws u
            land through_mask ws u
          else add
        in
        if add <> 0 && Lanes.or_in lanes u add <> 0 then push ws u
      end
    done
  done

(* One lane sweep into [ws]: on return [lw_writable], [lw_r_any],
   [lw_s_clean], the effect masks, [lw_po_dead] and [lw_cone_lens] hold
   the batch's settled state, from which [lane_verdicts] and
   [lane_counts] read the per-lane answers. *)
let lane_sweep ctx ws stk (sms : Fault.summary array) =
  let base = stk.s_base in
  let k = Array.length sms in
  if k = 0 || k > lane_width then
    invalid_arg "Engine.lane_sweep: batch size";
  (match stk.s_sm with
  | Some s0 when s0.Fault.sm_glitch_shadow <> [] ->
      invalid_arg "Engine.lane_sweep: glitch stacked base (scalar only)"
  | _ -> ());
  for l = 0 to k - 1 do
    if sms.(l).Fault.sm_glitch_shadow <> [] then
      invalid_arg "Engine.lane_sweep: glitch summary (scalar only)"
  done;
  if Array.length ws.lw_writable <> ctx.nsegs
     || Array.length ws.lw_stack <> ctx.nv
     || Array.length ws.lw_steer <> Array.length ctx.edges
  then invalid_arg "Engine.lane_sweep: workspace of another context";
  let occ = Lanes.lane_mask k in
  let nsegs = ctx.nsegs in
  let nedges = Array.length ctx.edges in
  ws.lw_k <- k;
  ws.lw_occ <- occ;
  (* Per-lane static effect masks: bit L set = the effect holds in lane
     L (the word transposition of [effects]). *)
  Array.fill ws.lw_hard_block 0 nsegs 0;
  Array.fill ws.lw_corrupt_vertex 0 nsegs 0;
  Array.fill ws.lw_kill_write 0 nsegs 0;
  Array.fill ws.lw_kill_read 0 nsegs 0;
  Array.fill ws.lw_corrupt_e 0 nedges 0;
  ws.lw_pi_dead <- 0;
  ws.lw_po_dead <- 0;
  for ei = 0 to nedges - 1 do
    ws.lw_dead_e.(ei) <- (if ctx.edges.(ei).e_dead then occ else 0)
  done;
  (* Sparse per-(edge, requirement) pin/lock masks, live only for the
     edges the batch's locks or pins touch. *)
  for t = 0 to ws.lw_ntouched - 1 do
    ws.lw_touched.(ws.lw_touched_list.(t)) <- false
  done;
  ws.lw_ntouched <- 0;
  (* The stacked summary holds in EVERY lane; each delta in its own. *)
  (match stk.s_sm with None -> () | Some s0 -> fold_summary ctx base ws occ s0);
  for l = 0 to k - 1 do
    fold_summary ctx base ws (1 lsl l) sms.(l)
  done;
  (* Writability seeds: stacked writable everywhere, each lane's
     union-cone cleared.  The cone of the union of the stacked and delta
     summaries is the same cone [analyze_delta_on] restricts its
     fixpoint to, so each seed is at or below its lane's combined least
     fixpoint.  That cone is the stacked summary's cone plus the delta's:
     the first is cleared from every lane at once, and each lane walks
     only the part of its own cone outside it. *)
  let writable_w = ws.lw_writable in
  let stk_writable = stk.s_verdict.writable in
  for i = 0 to nsegs - 1 do
    writable_w.(i) <- (if stk_writable.(i) then occ else 0)
  done;
  let cv = ws.lw_cone and cone0 = ws.lw_cone0 in
  let n0 = ref 0 in
  (match stk.s_sm with
  | None -> Bitset.clear cone0
  | Some s0 ->
      coarse_cone_into ctx base cone0 s0;
      for i = 0 to nsegs - 1 do
        if Bitset.mem cone0 (v_of_seg i) then begin
          writable_w.(i) <- 0;
          incr n0
        end
      done);
  for l = 0 to k - 1 do
    let clear = lnot (1 lsl l) in
    coarse_cone_into ctx base cv sms.(l);
    Bitset.andn_into cv cone0;
    let n = ref !n0 in
    let v = ref (Bitset.next cv 2) in
    while !v >= 0 do
      let i = seg_of_v !v in
      incr n;
      writable_w.(i) <- writable_w.(i) land clear;
      v := Bitset.next cv (!v + 1)
    done;
    ws.lw_cone_lens.(l) <- !n
  done;
  let steer = ws.lw_steer in
  for ei = 0 to nedges - 1 do
    steer.(ei) <- steer_word ctx ws ei
  done;
  let hosts = base.b_host_edges_nonreset in
  let promoted = ref 0 in
  let rounds = ref 0 in
  let not_pi = lnot ws.lw_pi_dead in
  let changed = ref true in
  while !changed do
    changed := false;
    incr rounds;
    lane_forward ctx ws ws.lw_rw (occ land not_pi) ~clean:true;
    lane_backward ctx ws ws.lw_s_any occ ~clean:false;
    for i = 0 to nsegs - 1 do
      let nw =
        Lanes.get ws.lw_rw (v_of_seg i)
        land Lanes.get ws.lw_s_any (v_of_seg i)
        land lnot ws.lw_kill_write.(i)
        land not_pi
        land lnot writable_w.(i)
        land occ
      in
      if nw <> 0 then begin
        writable_w.(i) <- writable_w.(i) lor nw;
        promoted := !promoted lor nw;
        (* Only the not-reset-matching hosted requirements consult the
           host's writability — refresh exactly their edges. *)
        for x = hosts.off.(i) to hosts.off.(i + 1) - 1 do
          let ei = hosts.idx.(x) in
          steer.(ei) <- steer_word ctx ws ei
        done;
        changed := true
      end
    done
  done;
  (* Final traversals under the settled steering: any-data forward
     reach (ignores dead ports), clean backward co-reach. *)
  lane_forward ctx ws ws.lw_r_any occ ~clean:false;
  lane_backward ctx ws ws.lw_s_clean (occ land lnot ws.lw_po_dead) ~clean:true;
  {
    ls_batches = 1;
    ls_lanes = k;
    ls_masked = Lanes.popcount (occ land lnot !promoted);
    ls_fast = 0;
    ls_rounds = !rounds;
  }

(* Segment [i]'s accessibility word after a sweep: lane L set iff the
   segment is writable and readable in lane L. *)
let lane_accessible_word ws i =
  let v = v_of_seg i in
  ws.lw_writable.(i)
  land Lanes.get ws.lw_r_any v
  land Lanes.get ws.lw_s_clean v
  land lnot ws.lw_kill_read.(i)
  land lnot ws.lw_corrupt_vertex.(i)
  land lnot ws.lw_po_dead
  land ws.lw_occ

let lane_verdicts ctx ws =
  let nsegs = ctx.nsegs in
  let not_po = lnot ws.lw_po_dead in
  Array.init ws.lw_k (fun l ->
      let bit = 1 lsl l in
      let writable =
        Array.init nsegs (fun i -> ws.lw_writable.(i) land bit <> 0)
      in
      let readable =
        Array.init nsegs (fun i ->
            let v = v_of_seg i in
            Lanes.get ws.lw_r_any v
            land Lanes.get ws.lw_s_clean v
            land lnot ws.lw_kill_read.(i)
            land lnot ws.lw_corrupt_vertex.(i)
            land not_po land bit
            <> 0)
      in
      let accessible =
        Array.init nsegs (fun i -> writable.(i) && readable.(i))
      in
      ({ writable; readable; accessible }, ws.lw_cone_lens.(l)))

let analyze_lane_batch_on ctx stk sms =
  let ws = lane_workspace ctx in
  let stats = lane_sweep ctx ws stk sms in
  (lane_verdicts ctx ws, stats)

(* Per-lane accessible counts straight from the lane words: start every
   lane at the stacked verdict's counts and walk only the segments whose
   accessibility word differs from the stacked one, crediting or
   debiting each differing lane.  [f l segs bits cone] receives lane
   [l]'s counts and cone size; no per-lane array is built. *)
let lane_batch_counts ctx ws stk sms f =
  let stats = lane_sweep ctx ws stk sms in
  let k = ws.lw_k and occ = ws.lw_occ in
  let segs = ws.lw_segs and bits = ws.lw_bits in
  Array.fill segs 0 k stk.s_segs;
  Array.fill bits 0 k stk.s_bits;
  let stk_acc = stk.s_verdict.accessible in
  for i = 0 to ctx.nsegs - 1 do
    let was = stk_acc.(i) in
    let d = lane_accessible_word ws i lxor (if was then occ else 0) in
    if d <> 0 then begin
      let ds = if was then -1 else 1 in
      let db = ds * Netlist.seg_len ctx.net i in
      for l = 0 to k - 1 do
        if d land (1 lsl l) <> 0 then begin
          segs.(l) <- segs.(l) + ds;
          bits.(l) <- bits.(l) + db
        end
      done
    end
  done;
  for l = 0 to k - 1 do
    f l segs.(l) bits.(l) ws.lw_cone_lens.(l)
  done;
  stats

(* ---- pair probes: exact taints and interaction regions ----

   The double-fault factorization needs, per fault class, (a) the EXACT
   set of segments whose verdict differs from the baseline (the tight
   cone — the coarse one is usually the whole network on scan
   topologies), and (b) a certificate region such that two classes with
   disjoint regions compose POINTWISE: every traversal under both faults
   is the AND of the single-fault traversals, hence every verdict bit is
   the AND of the single-fault verdict bits.

   The taint comes for free by diffing the class's delta verdict against
   the baseline.  The delta also hands back the settled per-edge
   steerability/corruption caches, i.e. the exact faulty state — so the
   exact set of KILLED live edges (including the ones that died because a
   steering host lost its writability, transitively) is a linear scan,
   and the four access traversals under the fault are four cheap BFS over
   those caches.

   The region certifies non-interaction by induction along each
   traversal: for a vertex surviving both faults separately, one of its
   surviving in-edges must also survive the other fault — unless that
   edge was damaged by it (endpoints are in the region) or its tail lost
   the other traversal while the head survived (the head is then in the
   region as a traversal BOUNDARY).  So the region contains

   - both endpoints of every live edge the fault killed or corrupted,
   - the live neighborhoods of blocked / data-corrupting segments,
   - per traversal kind, every surviving vertex adjacent to a vertex
     that lost the traversal (the boundary — NOT the lost interior, so a
     trunk fault that wipes a whole co-reach cone exposes only the rim),
   - both endpoints of every live edge one of whose not-reset-matching
     steering requirements the fault PINS to its required value: such a
     pin changes nothing alone (the host is baseline-writable, else the
     probe refuses), but it can keep the edge alive when the OTHER fault
     kills the host's writability, making the combination strictly
     better than the AND.

   Purely local kill_write / kill_read summaries get an EMPTY region:
   they touch no traversal, their verdict change is already a pointwise
   conjunction, and it composes with any other fault.

   Note the taint is deliberately NOT part of the region: two faults may
   taint the same segment (say both kill its readability through distant
   damage) and still compose pointwise.  The pair sweep therefore
   combines counts with lost-list arithmetic rather than splicing.

   Disjoint regions alone do NOT suffice: writability is a least
   fixpoint, and two faults can each destroy the other's last FOUNDED
   support while every segment stays writable under either fault alone —
   fault i kills segment a's canonical derivation (a re-routes through an
   edge hosted by b), fault j kills b's (b re-routes through an edge
   hosted by a); under both, the two re-routes support only each other
   and the least fixpoint drops both, with no damage and no traversal
   boundary anywhere near a or b.  W_i AND W_j is a post-fixpoint of the
   combined steering operator but not the least one.

   The probe therefore also reports which segments became FRAGILE: still
   writable, but their baseline-canonical certificate (the founded
   prefix/suffix forest recorded in the baseline) was damaged, so their
   writability rests on a re-route whose foundedness the region argument
   cannot see.  A segment that keeps its canonical certificate under
   fault i AND under fault j keeps it under both (the certificate is
   shared and its hosts recurse at strictly smaller certificate rank),
   so it stays writable in the combined least fixpoint.

   For the fragile segments themselves the probe materializes a founded
   certificate under ITS OWN fault (the faulty fixpoint owns one — its
   rounds strictly decrease) and publishes the certificate paths' vertex
   footprint [pr_supp] and the set of steering hosts they rest on
   [pr_rhosts].  Such a re-route survives the PARTNER fault j too when
   (a) j's exact damage avoids the footprint — the certificate edges
   miss every baseline-live edge j kills or corrupts ([pr_dead_edges])
   and the certificate vertices miss every segment j blocks or turns
   corrupting ([pr_dmg]), so each re-route edge stays steerable and
   clean under j — and (b) every host stays writable under j with its
   canonical certificate intact (host not in j's writability losses and
   not in fragile_j), which by the shared-canonical argument keeps the
   host writable under BOTH.  Gating against j's exact damage rather
   than its whole region matters: region_j also collects undamaged rim
   vertices (traversal boundaries, endpoints of killed edges, pin
   guards) that a re-route may freely pass through.  Fragile hosts of
   re-routes are themselves fragile, so their own re-routes are in the
   footprint and the recursion stays founded by the faulty fixpoint's
   ranks.

   Hence the pair gate (checked in Metric): regions disjoint, each
   fault's [pr_supp_edges] disjoint from the partner's [pr_dead_edges],
   each fault's [pr_supp] disjoint from the partner's [pr_dmg], and
   each fault's [pr_rhosts] disjoint from both the partner's fragile
   set and the partner's writability losses — then W_combined =
   W_i AND W_j, the combined edge deaths are the union of the
   single-fault deaths, and the boundary induction above applies to
   every traversal. *)

type probe = {
  pr_verdict : verdict;
  pr_cone : Bitset.t;
  pr_region : Bitset.t;
  pr_fragile : Bitset.t;
  pr_supp : Bitset.t;
  pr_supp_edges : Bitset.t;
  pr_rhosts : Bitset.t;
  pr_dead_edges : Bitset.t;
  pr_dmg : Bitset.t;
  pr_coarse : bool;
}

let seg_bitset ctx cv =
  let cs = Bitset.create ctx.nsegs in
  for i = 0 to ctx.nsegs - 1 do
    if Bitset.mem cv (v_of_seg i) then Bitset.add cs i
  done;
  cs

let probe ctx base (sm : Fault.summary) =
  let local segs =
    (* Pure interface kills: no edge, no traversal and no certificate is
       touched (a locally killed segment hosts no not-reset-matching
       requirement), so nothing is fragile. *)
    let v, _ = analyze_delta ctx base sm in
    {
      pr_verdict = v;
      pr_cone = Bitset.of_list ctx.nsegs segs;
      pr_region = Bitset.create ctx.nv;
      pr_fragile = Bitset.create ctx.nsegs;
      pr_supp = Bitset.create ctx.nv;
      pr_supp_edges = Bitset.create (Array.length ctx.edges);
      pr_rhosts = Bitset.create ctx.nsegs;
      pr_dead_edges = Bitset.create (Array.length ctx.edges);
      pr_dmg = Bitset.create ctx.nv;
      pr_coarse = false;
    }
  in
  let coarse () =
    let v, _ = analyze_delta ctx base sm in
    let cv = Bitset.create ctx.nv in
    coarse_cone_into ctx base cv sm;
    let full n = let b = Bitset.create n in Bitset.fill b; b in
    { pr_verdict = v; pr_cone = seg_bitset ctx cv;
      pr_region = full ctx.nv; pr_fragile = full ctx.nsegs;
      pr_supp = full ctx.nv;
      pr_supp_edges = full (Array.length ctx.edges);
      pr_rhosts = full ctx.nsegs;
      pr_dead_edges = full (Array.length ctx.edges);
      pr_dmg = full ctx.nv;
      pr_coarse = true }
  in
  if Fault.summary_benign sm then
    {
      pr_verdict = base.b_verdict;
      pr_cone = Bitset.create ctx.nsegs;
      pr_region = Bitset.create ctx.nv;
      pr_fragile = Bitset.create ctx.nsegs;
      pr_supp = Bitset.create ctx.nv;
      pr_supp_edges = Bitset.create (Array.length ctx.edges);
      pr_rhosts = Bitset.create ctx.nsegs;
      pr_dead_edges = Bitset.create (Array.length ctx.edges);
      pr_dmg = Bitset.create ctx.nv;
      pr_coarse = false;
    }
  else if sm.Fault.sm_glitch_shadow <> [] then begin
    (* Transient upsets: the verdict comes from the full fixpoint (exact
       — [analyze_delta] routes glitches there), the cone is the exact
       verdict diff, and the interaction machinery is conservatively
       voided (full region/footprints): upsets may create steering gains
       the no-gain certificate reasoning below assumes away.  Pair sweeps
       reject the transient model anyway ([Metric.evaluate_pairs]). *)
    let v, _ = analyze_delta ctx base sm in
    let cs = Bitset.create ctx.nsegs in
    let v0 = base.b_verdict in
    for i = 0 to ctx.nsegs - 1 do
      if v.writable.(i) <> v0.writable.(i) || v.readable.(i) <> v0.readable.(i)
      then Bitset.add cs i
    done;
    let full n =
      let b = Bitset.create n in
      Bitset.fill b;
      b
    in
    { pr_verdict = v; pr_cone = cs;
      pr_region = full ctx.nv; pr_fragile = full ctx.nsegs;
      pr_supp = full ctx.nv;
      pr_supp_edges = full (Array.length ctx.edges);
      pr_rhosts = full ctx.nsegs;
      pr_dead_edges = full (Array.length ctx.edges);
      pr_dmg = full ctx.nv;
      pr_coarse = true }
  end
  else if only_kill_read sm then local sm.Fault.sm_kill_read
  else if local_kill_write base sm then local sm.Fault.sm_kill_write
  else if sm.Fault.sm_pi_dead || sm.Fault.sm_po_dead || base.b_cyclic then
    coarse ()
  else begin
    let writable0 = base.b_verdict.writable in
    (* Steering-gain detection: a pin or lock matching a required address
       value whose hosting segment is NOT baseline-writable can turn a
       baseline-dead edge live, voiding the whole no-gain reasoning. *)
    let gain = ref false in
    List.iter
      (fun (s, b, v) ->
        if not writable0.(s) then
          let rows = base.b_host_edges_all in
          for x = rows.off.(s) to rows.off.(s + 1) - 1 do
            let reqs = ctx.edges.(rows.idx.(x)).e_shadow_reqs in
            for r = 0 to Array.length reqs - 1 do
              let _, cseg, cbit, required, reset_matches = reqs.(r) in
              if cseg = s && cbit = b && required = v && not reset_matches
              then gain := true
            done
          done)
      sm.Fault.sm_stuck_shadow;
    List.iter
      (fun (m, b, v) ->
        let rows = base.b_mux_edges in
        for x = rows.off.(m) to rows.off.(m + 1) - 1 do
          let reqs = ctx.edges.(rows.idx.(x)).e_shadow_reqs in
          for r = 0 to Array.length reqs - 1 do
            let (m', b'), cseg, _, required, reset_matches = reqs.(r) in
            if
              m' = m && b' = b && required = v && (not reset_matches)
              && not writable0.(cseg)
            then gain := true
          done
        done)
      sm.Fault.sm_locked_addr;
    if !gain then coarse ()
    else begin
      let eff = add_summary_effects (no_effects ctx) sm in
      let v, _, steer, corrupt = delta_full ctx (of_baseline base) sm eff in
      let nedges = Array.length ctx.edges in
      (* Exact taint: the verdict diff. *)
      let cs = Bitset.create ctx.nsegs in
      let v0 = base.b_verdict in
      for i = 0 to ctx.nsegs - 1 do
        if
          v.writable.(i) <> v0.writable.(i)
          || v.readable.(i) <> v0.readable.(i)
        then Bitset.add cs i
      done;
      (* The four access traversals under the settled faulty state.  A
         vertex is pushed once per traversal, so [stack] never
         overflows. *)
      let stack = Array.make ctx.nv 0 in
      let traverse ~fwd ~clean =
        let root = if fwd then v_pi else v_po in
        let stop = if fwd then v_po else v_pi in
        let adj = if fwd then ctx.out_adj else ctx.in_adj in
        let next = if fwd then ctx.e_dst else ctx.e_src in
        let ok = Array.make ctx.nv false in
        ok.(root) <- true;
        stack.(0) <- root;
        let sp = ref 1 in
        while !sp > 0 do
          decr sp;
          let u = stack.(!sp) in
          if not (fwd && clean && not (u = v_pi || clean_through eff u)) then
            for k = adj.off.(u) to adj.off.(u + 1) - 1 do
              let ei = adj.idx.(k) in
              if steer.(ei) && not (clean && corrupt.(ei)) then begin
                let w = next.(ei) in
                if
                  (not ok.(w))
                  && w <> stop
                  && ((not clean) || shiftable eff w)
                  && not ((not fwd) && clean && not (clean_through eff w))
                then begin
                  ok.(w) <- true;
                  stack.(!sp) <- w;
                  incr sp
                end
              end
            done
        done;
        ok
      in
      let rw = traverse ~fwd:true ~clean:true in
      let r_any = traverse ~fwd:true ~clean:false in
      let s_clean = traverse ~fwd:false ~clean:true in
      let s_any = traverse ~fwd:false ~clean:false in
      let region = Bitset.create ctx.nv in
      let add_ei ei =
        Bitset.add region ctx.e_src.(ei);
        Bitset.add region ctx.e_dst.(ei)
      in
      (* Killed or corrupted live edges — [steer] is the exact faulty
         steerability, so writability-cascade deaths are included.
         [dead_edges] keeps the edge-granular set for the partner's
         re-route check. *)
      let dead_edges = Bitset.create nedges in
      for ei = 0 to nedges - 1 do
        if base.b_steer.(ei) && ((not steer.(ei)) || corrupt.(ei)) then begin
          Bitset.add dead_edges ei;
          add_ei ei
        end
      done;
      let dmg = Bitset.create ctx.nv in
      let vertex_damage w =
        Bitset.add region w;
        Bitset.add dmg w;
        let live = base.b_live_in in
        for x = live.off.(w) to live.off.(w + 1) - 1 do
          Bitset.add region ctx.e_src.(live.idx.(x))
        done;
        let live = base.b_live_out in
        for x = live.off.(w) to live.off.(w + 1) - 1 do
          Bitset.add region ctx.e_dst.(live.idx.(x))
        done
      in
      List.iter (fun i -> vertex_damage (v_of_seg i)) sm.Fault.sm_hard_block;
      List.iter
        (fun i -> vertex_damage (v_of_seg i))
        sm.Fault.sm_corrupt_vertex;
      (* Traversal boundaries: surviving vertices adjacent (along a live
         edge) to a vertex that lost the traversal. *)
      for ei = 0 to nedges - 1 do
        if base.b_steer.(ei) then begin
          let u = ctx.e_src.(ei) and w = ctx.e_dst.(ei) in
          if base.b_live_reach.(u) && w <> v_po then begin
            if (not rw.(u)) && rw.(w) then Bitset.add region w;
            if (not r_any.(u)) && r_any.(w) then Bitset.add region w
          end;
          if base.b_live_coreach.(w) && u <> v_pi then begin
            if (not s_any.(w)) && s_any.(u) then Bitset.add region u;
            if (not s_clean.(w)) && s_clean.(u) then Bitset.add region u
          end
        end
      done;
      (* Pinned-right steering requirements on live edges (see above). *)
      List.iter
        (fun (s, b, vv) ->
          let rows = base.b_host_edges_all in
          for x = rows.off.(s) to rows.off.(s + 1) - 1 do
            let ei = rows.idx.(x) in
            if base.b_steer.(ei) then begin
              let reqs = ctx.edges.(ei).e_shadow_reqs in
              let keep = ref false in
              for r = 0 to Array.length reqs - 1 do
                let _, cseg, cbit, required, reset_matches = reqs.(r) in
                if cseg = s && cbit = b && required = vv && not reset_matches
                then keep := true
              done;
              if !keep then add_ei ei
            end
          done)
        sm.Fault.sm_stuck_shadow;
      List.iter
        (fun (m, b, vv) ->
          let rows = base.b_mux_edges in
          for x = rows.off.(m) to rows.off.(m + 1) - 1 do
            let ei = rows.idx.(x) in
            if base.b_steer.(ei) then begin
              let reqs = ctx.edges.(ei).e_shadow_reqs in
              let keep = ref false in
              for r = 0 to Array.length reqs - 1 do
                let (m', b'), _, _, required, reset_matches = reqs.(r) in
                if m' = m && b' = b && required = vv && not reset_matches then
                  keep := true
              done;
              if !keep then add_ei ei
            end
          done)
        sm.Fault.sm_locked_addr;
      (* Fragility: which segments keep their CANONICAL baseline
         certificate under the fault?  Replay the founded forest in round
         order.  [all_w] neutralizes [edge_steerable]'s host-writability
         fallback so the call checks only the syntactic conditions (dead
         edge, wrong pins, wrong locks); hosted not-reset-matching
         requirements are then handled by [hosts_ok] through the founded
         recursion — the host's own certificate must have survived
         ([pclass]), unless the fault itself pins or locks the bit to its
         required value (any pin on the bit is necessarily right here:
         wrong pins already failed the syntactic check). *)
      let all_w = Array.make ctx.nsegs true in
      let pclass = Array.make ctx.nsegs false in
      (* A pin or lock of the bit to its required value exempts it. *)
      let exempt (m, b) cseg cbit required =
        locked_to m b required eff.locked_addr
        || pin_state 0 cseg cbit required eff.stuck_shadow <> 0
      in
      let hosts_ok e =
        let ok = ref true in
        let reqs = e.e_shadow_reqs in
        for r = 0 to Array.length reqs - 1 do
          let port, cseg, cbit, required, reset_matches = reqs.(r) in
          if
            (not reset_matches)
            && (not pclass.(cseg))
            && not (exempt port cseg cbit required)
          then ok := false
        done;
        !ok
      in
      let pre_memo = Array.make ctx.nv 0 (* 0 unknown / 1 ok / 2 bad *) in
      let suf_memo = Array.make ctx.nv 0 in
      (* Iterative tree walk (certificate paths can be as long as the
         longest scan chain): ascend to the first memoized ancestor or the
         root, collecting the chain in [chain], then settle it root-side
         first.  [next] maps a tree edge to the vertex it leads to. *)
      let chain = Array.make ctx.nv 0 in
      let walk memo parent next root edge_ok v0 =
        let n = ref 0 in
        let v = ref v0 in
        while !v <> root && memo.(!v) = 0 do
          chain.(!n) <- !v;
          incr n;
          v := next.(parent.(!v))
        done;
        let ok = ref (!v = root || memo.(!v) = 1) in
        for t = !n - 1 downto 0 do
          let u = chain.(t) in
          if !ok then ok := edge_ok u parent.(u);
          memo.(u) <- (if !ok then 1 else 2)
        done;
        !ok
      in
      let nrounds = Array.length base.b_cert_rounds in
      for round = 0 to nrounds - 1 do
        Array.fill pre_memo 0 ctx.nv 0;
        Array.fill suf_memo 0 ctx.nv 0;
        let pre_tree, suf_tree = base.b_cert_rounds.(round) in
        (* Prefix edges carry clean data into the target: steerable,
           uncorrupted, destination shiftable, source passing clean. *)
        let pre_edge_ok u ei =
          let e = ctx.edges.(ei) in
          let src = ctx.e_src.(ei) in
          edge_steerable ctx eff all_w e
          && hosts_ok e
          && (not corrupt.(ei))
          && shiftable eff u
          && (src = v_pi || clean_through eff src)
        in
        (* Suffix edges only need to exist topologically: steerable. *)
        let suf_edge_ok _u ei =
          let e = ctx.edges.(ei) in
          edge_steerable ctx eff all_w e && hosts_ok e
        in
        for s = 0 to ctx.nsegs - 1 do
          if
            base.b_cert_round_of.(s) = round
            && (not eff.kill_write.(s))
            && walk pre_memo pre_tree ctx.e_src v_pi pre_edge_ok (v_of_seg s)
            && walk suf_memo suf_tree ctx.e_dst v_po suf_edge_ok (v_of_seg s)
          then pclass.(s) <- true
        done
      done;
      let fragile = Bitset.create ctx.nsegs in
      for s = 0 to ctx.nsegs - 1 do
        if v.writable.(s) && not pclass.(s) then Bitset.add fragile s
      done;
      (* Re-routed certificates: a fragile segment is still writable, so
         the FAULTY fixpoint owns a founded certificate for it.
         Materialize one (round-stratified replay of the faulty fixpoint,
         exactly like the baseline forest but under [eff] and the settled
         corruption cache) and expose its vertex and edge footprints
         [supp] / [supp_edges] plus the steering hosts [rhosts] it rests
         on.  A partner fault whose exact damage (dead_edges, dmg)
         avoids the footprint and under which every such host keeps both
         its writability and its canonical certificate cannot disturb
         the re-route — the pair gate in Metric checks exactly that,
         instead of pessimistically refusing every fragile class. *)
      let supp = Bitset.create ctx.nv in
      let supp_edges = Bitset.create nedges in
      let rhosts = Bitset.create ctx.nsegs in
      if not (Bitset.is_empty fragile) then begin
        let wf = Array.make ctx.nsegs false in
        let frounds = ref [] in
        let fround_of = Array.make ctx.nsegs (-1) in
        let progress = ref true in
        while !progress do
          progress := false;
          let enabled =
            Array.init nedges (fun ei ->
                edge_steerable ctx eff wf ctx.edges.(ei))
          in
          (* Clean forward tree from scan-in under the fault (the entry /
             extension conditions of [reach_from_pi ~clean:true]). *)
          let pre = Array.make ctx.nv (-1) in
          let seenp = Array.make ctx.nv false in
          seenp.(v_pi) <- true;
          stack.(0) <- v_pi;
          let sp = ref 1 in
          while !sp > 0 do
            decr sp;
            let u = stack.(!sp) in
            if u = v_pi || clean_through eff u then
              for k = ctx.out_adj.off.(u) to ctx.out_adj.off.(u + 1) - 1 do
                let ei = ctx.out_adj.idx.(k) in
                if enabled.(ei) && not corrupt.(ei) then begin
                  let w = ctx.e_dst.(ei) in
                  if (not seenp.(w)) && w <> v_po && shiftable eff w then begin
                    seenp.(w) <- true;
                    pre.(w) <- ei;
                    stack.(!sp) <- w;
                    incr sp
                  end
                end
              done
          done;
          (* Any-data backward tree to scan-out. *)
          let suf = Array.make ctx.nv (-1) in
          let seens = Array.make ctx.nv false in
          seens.(v_po) <- true;
          stack.(0) <- v_po;
          sp := 1;
          while !sp > 0 do
            decr sp;
            let w = stack.(!sp) in
            for k = ctx.in_adj.off.(w) to ctx.in_adj.off.(w + 1) - 1 do
              let ei = ctx.in_adj.idx.(k) in
              if enabled.(ei) then begin
                let u = ctx.e_src.(ei) in
                if (not seens.(u)) && u <> v_pi then begin
                  seens.(u) <- true;
                  suf.(u) <- ei;
                  stack.(!sp) <- u;
                  incr sp
                end
              end
            done
          done;
          let round = List.length !frounds in
          let promoted = ref false in
          for s = 0 to ctx.nsegs - 1 do
            if
              (not wf.(s))
              && (not eff.kill_write.(s))
              && pre.(v_of_seg s) >= 0
              && suf.(v_of_seg s) >= 0
            then begin
              wf.(s) <- true;
              fround_of.(s) <- round;
              promoted := true
            end
          done;
          if !promoted then begin
            frounds := (pre, suf) :: !frounds;
            progress := true
          end
        done;
        assert (wf = v.writable);
        let frounds = Array.of_list (List.rev !frounds) in
        (* A pin on the bit is necessarily to the required value: the
           certificate edge is steerable under the fault. *)
        let host_edge ei =
          let reqs = ctx.edges.(ei).e_shadow_reqs in
          for r = 0 to Array.length reqs - 1 do
            let port, cseg, cbit, required, reset_matches = reqs.(r) in
            if (not reset_matches) && not (exempt port cseg cbit required) then
              Bitset.add rhosts cseg
          done
        in
        let pre_done = Array.make ctx.nv false in
        let suf_done = Array.make ctx.nv false in
        for round = 0 to Array.length frounds - 1 do
          Array.fill pre_done 0 ctx.nv false;
          Array.fill suf_done 0 ctx.nv false;
          let pre, suf = frounds.(round) in
          for s = 0 to ctx.nsegs - 1 do
            if Bitset.mem fragile s && fround_of.(s) = round then begin
              let u = ref (v_of_seg s) in
              while !u <> v_pi && not pre_done.(!u) do
                pre_done.(!u) <- true;
                Bitset.add supp !u;
                let ei = pre.(!u) in
                Bitset.add supp_edges ei;
                host_edge ei;
                u := ctx.e_src.(ei)
              done;
              let u = ref (v_of_seg s) in
              while !u <> v_po && not suf_done.(!u) do
                suf_done.(!u) <- true;
                Bitset.add supp !u;
                let ei = suf.(!u) in
                Bitset.add supp_edges ei;
                host_edge ei;
                u := ctx.e_dst.(ei)
              done
            end
          done
        done
      end;
      { pr_verdict = v; pr_cone = cs; pr_region = region;
        pr_fragile = fragile; pr_supp = supp; pr_supp_edges = supp_edges;
        pr_rhosts = rhosts; pr_dead_edges = dead_edges; pr_dmg = dmg;
        pr_coarse = false }
    end
  end

let cone ctx base (sm : Fault.summary) =
  if Fault.summary_benign sm then None
  else if only_kill_read sm then
    Some (Bitset.of_list ctx.nsegs sm.Fault.sm_kill_read)
  else if local_kill_write base sm then
    Some (Bitset.of_list ctx.nsegs sm.Fault.sm_kill_write)
  else Some (probe ctx base sm).pr_cone

(* Secondary baseline under [sm]: the stacked state all of [sm]'s pairs
   share.  The steer/corruption caches must reflect [sm] even when the
   verdict comes from a fast path — on those paths the fault-free caches
   are still exact (kill_read touches neither; a local kill_write changes
   writability only where no not-reset-matching requirement is hosted). *)
let stack ctx base (sm : Fault.summary) =
  let stk0 = of_baseline base in
  let eff = stacked_eff ctx stk0 sm in
  if lane_fast base sm then
    let v, _ = analyze_delta_on ctx stk0 sm in
    let s_segs, s_bits = verdict_counts ctx v in
    { stk0 with s_sm = Some sm; s_eff = Some eff; s_verdict = v; s_segs; s_bits }
  else if sm.Fault.sm_glitch_shadow <> [] then
    (* Full fixpoint (no seeded delta — see [analyze_delta_on]); the
       steer/corruption caches are recomputed for every edge under the
       settled writability, so the stacked state stays exact. *)
    let v = verdict_of_effects ctx eff in
    let s_segs, s_bits = verdict_counts ctx v in
    {
      s_base = base;
      s_sm = Some sm;
      s_eff = Some eff;
      s_verdict = v;
      s_segs;
      s_bits;
      s_steer = Array.map (edge_steerable ctx eff v.writable) ctx.edges;
      s_corrupt = Array.init (Array.length ctx.edges) (edge_corrupt ctx eff);
    }
  else
    let v, _, steer, corrupt = delta_full ctx stk0 sm eff in
    let s_segs, s_bits = verdict_counts ctx v in
    {
      s_base = base;
      s_sm = Some sm;
      s_eff = Some eff;
      s_verdict = v;
      s_segs;
      s_bits;
      s_steer = steer;
      s_corrupt = corrupt;
    }

(* Read counterpart: a path through the target whose SUFFIX (target to
   scan-out) is corruption-free and shiftable, while the prefix only needs
   to exist topologically.  Same self-steering exclusion as the write
   witness. *)
let read_witness ctx fault s =
  let eff = effects_of_fault ctx fault in
  let writable = fixpoint_writable ctx eff in
  let target = v_of_seg s in
  let feasible =
    let r_any = reach_from_pi ctx eff writable ~clean:false in
    let s_clean = coreach_to_po ctx eff writable ~clean:true in
    r_any.(target) && s_clean.(target)
    && (not eff.kill_read.(s))
    && (not eff.corrupt_vertex.(s))
    && not eff.po_dead
  in
  if not feasible then None
  else begin
    (* Unlike the write witness, steering by the target's own bits is
       allowed here whenever the target is writable: the bit can be
       pre-written (a write needs no clean suffix), then the read follows.
       An unwritable target is already excluded by the fixpoint. *)
    let r_any = reach_from_pi ctx eff writable ~clean:false in
    let s_clean = coreach_to_po ctx eff writable ~clean:true in
    if not (r_any.(target) && s_clean.(target)) then None
    else begin
      let prefix_edge_ok ei =
        let u = ctx.e_src.(ei) in
        edge_steerable ctx eff writable ctx.edges.(ei)
        && (u = v_pi || r_any.(u))
      in
      let prefix_vertex_ok v = v = target || (v <> v_po && r_any.(v)) in
      let _, pre_prev, pre_edge =
        shortest_paths ctx ~src:v_pi ~edge_ok:prefix_edge_ok
          ~vertex_ok:prefix_vertex_ok
      in
      let suffix_edge_ok ei =
        let u = ctx.e_src.(ei) in
        (not (edge_corrupt ctx eff ei))
        && edge_steerable ctx eff writable ctx.edges.(ei)
        && (u = target || (s_clean.(u) && clean_through eff u))
        && shiftable eff u
      in
      let suffix_vertex_ok v =
        v = v_po || (s_clean.(v) && shiftable eff v)
      in
      let _, suf_prev, suf_edge =
        shortest_paths ctx ~src:target ~edge_ok:suffix_edge_ok
          ~vertex_ok:suffix_vertex_ok
      in
      let rec unwind prev prev_e v acc_v acc_e =
        if prev.(v) < 0 then
          if v = v_pi || v = target then Some (v :: acc_v, acc_e) else None
        else
          unwind prev prev_e prev.(v) (v :: acc_v)
            (ctx.edges.(prev_e.(v)).e_route :: acc_e)
      in
      match
        (unwind pre_prev pre_edge target [] [],
         unwind suf_prev suf_edge v_po [] [])
      with
      | Some (pre_v, pre_r), Some (_ :: suf_v, suf_r) ->
          Some { w_vertices = pre_v @ suf_v; w_routes = pre_r @ suf_r }
      | _ -> None
    end
  end
