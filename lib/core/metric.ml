module Netlist = Ftrsn_rsn.Netlist
module Fault = Ftrsn_fault.Fault
module Engine = Ftrsn_access.Engine
module Bmc = Ftrsn_bmc.Bmc
module Solver = Ftrsn_sat.Solver
module Bitset = Ftrsn_topo.Bitset

type solver_stats = {
  s_conflicts : int;
  s_decisions : int;
  s_propagations : int;
  s_restarts : int;
  s_learnt_lits : int;
  s_minimized_lits : int;
  s_reductions : int;
  s_learnt_db : int;
  s_clauses_emitted : int;
  s_nodes_reused : int;
  (* inprocessing counters; all zero with --no-inprocess *)
  s_subsumed : int;
  s_strengthened_lits : int;
  s_eliminated_vars : int;
  s_vivified_lits : int;
  s_simp_passes : int;
  (* certified-mode counters; all zero when certification was off *)
  s_cert_unsat : int;
  s_cert_lemmas : int;
  s_cert_deletes : int;
  s_cert_time : float;
}

type reduction_stats = {
  r_universe : int;
  r_classes : int;
  r_benign : int;
  r_cone_sum : int;
  r_cone_max : int;
}

type pair_stats = {
  p_classes : int;      (* fault classes in the collapsed universe *)
  p_class_pairs : int;  (* unordered class pairs examined (incl. diagonal) *)
  p_diagonal : int;     (* same-class pairs: answered by the single verdict *)
  p_disjoint : int;     (* non-interacting pairs: pointwise-AND counting *)
  p_stacked : int;      (* interacting pairs: delta on a secondary baseline *)
  p_stacks : int;       (* secondary baselines built *)
}

type result = {
  worst_segments : float;
  avg_segments : float;
  worst_bits : float;
  avg_bits : float;
  faults : int;
  total_weight : int;
  steals : int;
  solver : solver_stats option;
  reduction : reduction_stats option;
  lanes : Engine.lane_stats option;
  pairs : pair_stats option;
  pair_lanes : Engine.lane_stats option;
}

(* Typed rejection for requests outside an evaluator's semantic scope
   (transient double faults: two glitches are not a set-wise union of
   summaries).  Distinct from [Invalid_argument] — which stays reserved
   for caller bugs like empty fault lists — so the service layer can map
   it to a stable error variant instead of an internal error. *)
exception Unsupported of string

let merge_solver a b =
  match (a, b) with
  | None, s | s, None -> s
  | Some x, Some y ->
      Some
        {
          s_conflicts = x.s_conflicts + y.s_conflicts;
          s_decisions = x.s_decisions + y.s_decisions;
          s_propagations = x.s_propagations + y.s_propagations;
          s_restarts = x.s_restarts + y.s_restarts;
          s_learnt_lits = x.s_learnt_lits + y.s_learnt_lits;
          s_minimized_lits = x.s_minimized_lits + y.s_minimized_lits;
          s_reductions = x.s_reductions + y.s_reductions;
          s_learnt_db = x.s_learnt_db + y.s_learnt_db;
          s_clauses_emitted = x.s_clauses_emitted + y.s_clauses_emitted;
          s_nodes_reused = x.s_nodes_reused + y.s_nodes_reused;
          s_subsumed = x.s_subsumed + y.s_subsumed;
          s_strengthened_lits = x.s_strengthened_lits + y.s_strengthened_lits;
          s_eliminated_vars = x.s_eliminated_vars + y.s_eliminated_vars;
          s_vivified_lits = x.s_vivified_lits + y.s_vivified_lits;
          s_simp_passes = x.s_simp_passes + y.s_simp_passes;
          s_cert_unsat = x.s_cert_unsat + y.s_cert_unsat;
          s_cert_lemmas = x.s_cert_lemmas + y.s_cert_lemmas;
          s_cert_deletes = x.s_cert_deletes + y.s_cert_deletes;
          s_cert_time = x.s_cert_time +. y.s_cert_time;
        }

let merge_lanes a b =
  match (a, b) with
  | None, l | l, None -> l
  | Some x, Some y -> Some (Engine.lane_stats_add x y)

(* Integer accumulation of per-fault accessible counts.  All fields are
   exact integers folded with commutative operations (min / sum), so the
   final result is bit-identical however the faults are partitioned or
   interleaved across domains — the property that lets the dynamic
   scheduler reorder work freely and the collapsed classes stand in for
   their members.  The single float division happens once at the end. *)
type iacc = {
  mutable a_min_segs : int;
  mutable a_min_bits : int;
  mutable a_sum_segs : int;  (* sum of weight * accessible segments *)
  mutable a_sum_bits : int;  (* sum of weight * accessible bits *)
  mutable a_weight : int;
  mutable a_count : int;
}

let iacc_create () =
  {
    a_min_segs = max_int;
    a_min_bits = max_int;
    a_sum_segs = 0;
    a_sum_bits = 0;
    a_weight = 0;
    a_count = 0;
  }

let iacc_add acc ~w ~n ~segs ~bits =
  if segs < acc.a_min_segs then acc.a_min_segs <- segs;
  if bits < acc.a_min_bits then acc.a_min_bits <- bits;
  acc.a_sum_segs <- acc.a_sum_segs + (w * segs);
  acc.a_sum_bits <- acc.a_sum_bits + (w * bits);
  acc.a_weight <- acc.a_weight + w;
  acc.a_count <- acc.a_count + n

let iacc_merge a b =
  a.a_min_segs <- min a.a_min_segs b.a_min_segs;
  a.a_min_bits <- min a.a_min_bits b.a_min_bits;
  a.a_sum_segs <- a.a_sum_segs + b.a_sum_segs;
  a.a_sum_bits <- a.a_sum_bits + b.a_sum_bits;
  a.a_weight <- a.a_weight + b.a_weight;
  a.a_count <- a.a_count + b.a_count

let iacc_result ?(pairs = None) ?(lanes = None) ?(pair_lanes = None) ~what
    ~nsegs ~nbits ~steals ~solver ~reduction acc =
  if acc.a_count = 0 then invalid_arg (what ^ ": empty fault list");
  let fsegs = float_of_int nsegs and fbits = float_of_int nbits in
  let fweight = float_of_int acc.a_weight in
  {
    worst_segments = float_of_int acc.a_min_segs /. fsegs;
    avg_segments = float_of_int acc.a_sum_segs /. (fweight *. fsegs);
    worst_bits = float_of_int acc.a_min_bits /. fbits;
    avg_bits = float_of_int acc.a_sum_bits /. (fweight *. fbits);
    faults = acc.a_count;
    total_weight = acc.a_weight;
    steals;
    solver;
    reduction;
    lanes;
    pairs;
    pair_lanes;
  }

(* ---- dynamic work-stealing scheduler ----

   One shared atomic cursor over the item array; every domain claims the
   next unclaimed item until exhaustion, so an expensive item (a trunk
   fault, a slow SAT query) delays only the domain it runs on while the
   others drain the rest of the queue.  An item counts as stolen when it
   lands on a different domain than the static ceil-chunk split would
   have assigned.  [init] builds each domain's private worker state
   (engine context or SAT session), [step] folds one item into it and
   [finish] extracts the partial result; partials merge exactly because
   the accumulators are integers. *)
let steal_map ~domains items ~init ~step ~finish =
  let n = Array.length items in
  let next = Atomic.make 0 in
  let chunk = if domains <= 1 then max n 1 else (n + domains - 1) / domains in
  let run d () =
    let st = init d in
    let steals = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then continue_ := false
      else begin
        if i / chunk <> d then incr steals;
        step st items.(i)
      end
    done;
    (finish st, !steals)
  in
  if domains <= 1 then [ run 0 () ]
  else
    List.map Domain.join
      (List.init domains (fun d -> Domain.spawn (run d)))

let count_verdict net v =
  let segs = ref 0 and bits = ref 0 in
  Array.iteri
    (fun i ok ->
      if ok then begin
        incr segs;
        bits := !bits + Netlist.seg_len net i
      end)
    v.Engine.accessible;
  (!segs, !bits)

let count_bmc net vs =
  let segs = ref 0 and bits = ref 0 in
  Array.iteri
    (fun i v ->
      match v with
      | Bmc.Accessible _ ->
          incr segs;
          bits := !bits + Netlist.seg_len net i
      | Bmc.Inaccessible -> ())
    vs;
  (!segs, !bits)

let solver_of_session sess =
  let st = Bmc.Session.stats sess in
  let cu, cl, cd, ct =
    match st.Bmc.Session.cert with
    | None -> (0, 0, 0, 0.0)
    | Some c ->
        ( c.Bmc.Session.cert_unsat, c.Bmc.Session.cert_lemmas,
          c.Bmc.Session.cert_deletes, c.Bmc.Session.cert_time )
  in
  Some
    {
      s_conflicts = st.Bmc.Session.conflicts;
      s_decisions = st.Bmc.Session.decisions;
      s_propagations = st.Bmc.Session.propagations;
      s_restarts = st.Bmc.Session.restarts;
      s_learnt_lits = st.Bmc.Session.learnt_lits;
      s_minimized_lits = st.Bmc.Session.minimized_lits;
      s_reductions = st.Bmc.Session.reductions;
      s_learnt_db = st.Bmc.Session.learnt_db;
      s_clauses_emitted = st.Bmc.Session.clauses_emitted;
      s_nodes_reused = st.Bmc.Session.nodes_reused;
      s_subsumed = st.Bmc.Session.subsumed;
      s_strengthened_lits = st.Bmc.Session.strengthened_lits;
      s_eliminated_vars = st.Bmc.Session.eliminated_vars;
      s_vivified_lits = st.Bmc.Session.vivified_lits;
      s_simp_passes = st.Bmc.Session.simp_passes;
      s_cert_unsat = cu;
      s_cert_lemmas = cl;
      s_cert_deletes = cd;
      s_cert_time = ct;
    }

(* Per-class data shared by both exhaustive pair engines (filled by their
   phase 1; the full definition is documented at the pair sweep below).
   Declared here so the warm per-netlist state can cache it. *)
type pair_prep = {
  pq_sms : Fault.summary array;
  pq_cones : Bitset.t array;
  pq_regions : Bitset.t array;
  pq_wlost : Bitset.t array;
  pq_fragile : Bitset.t array;
  pq_supp : Bitset.t array;
  pq_supp_edges : Bitset.t array;
  pq_dead_edges : Bitset.t array;
  pq_dmg : Bitset.t array;
  pq_rhosts : Bitset.t array;
  pq_members : int array;
  pq_weight : int array;
  pq_sq : int array;
  pq_segs : int array;
  pq_bits : int array;
  pq_acc : Bitset.t array;
  pq_lost : int array array;
  pq_len : int array;
}

(* ---- warm per-netlist state ----

   The unit of reuse behind the service pool (Ftrsn_service.Pool): the
   expensive per-netlist artifacts — structural context, fault-free
   baseline, the full-universe class collapse, the exhaustive-pair
   phase-1 probe tables, and idle incremental BMC sessions — built once
   and shared by every subsequent evaluation of the same netlist.  All
   cached artifacts are deterministic functions of the netlist, so warm
   results are bit-identical to cold ones; only solver statistics (which
   accumulate across the queries a reused session served) differ.

   Thread-safe: one mutex guards construction and the session free list,
   so concurrent evaluations of the same netlist share artifacts instead
   of racing to rebuild them.  Sessions are checked out exclusively and
   returned when the evaluation finishes. *)
(* ---- memoized secondary-baseline (stack) cache ----

   The lane-parallel pair sweep builds each interacting row's stacked
   baseline ONCE and sweeps lane batches of second summaries against it.
   Because the steal units are lane batches (not whole rows), several
   items of the same row — and, across domains, of neighbouring rows —
   need the same stack: a small LRU-bounded, single-flight cache keyed
   by first-class index serves them.  The steal cursor claims items in
   array order, so the working set at any instant is about one stack per
   domain and [stack_cache_cap] is generous; a warm state keeps the
   per-model cache across evaluations, so repeated exhaustive sweeps
   skip the stack builds the way they already skip phase 1. *)

type stack_slot = Stk_built of Engine.stacked | Stk_building

type stack_cache = {
  sc_lock : Mutex.t;
  sc_cond : Condition.t;  (* signalled when a build completes or fails *)
  sc_cap : int;
  mutable sc_tick : int;  (* LRU clock *)
  sc_tbl : (int, stack_slot * int ref) Hashtbl.t;
}

let stack_cache_cap = 64

let stack_cache () =
  {
    sc_lock = Mutex.create ();
    sc_cond = Condition.create ();
    sc_cap = stack_cache_cap;
    sc_tick = 0;
    sc_tbl = Hashtbl.create 64;
  }

(* [stack_cached sc build i] returns class [i]'s secondary baseline and
   whether this call actually built it (the caller's [ps_stacks]
   attribution).  Single-flight: a concurrent request for a stack being
   built waits on the condition variable instead of duplicating the
   fixpoint; eviction only ever removes settled entries. *)
let stack_cached sc build i =
  Mutex.lock sc.sc_lock;
  let rec get () =
    match Hashtbl.find_opt sc.sc_tbl i with
    | Some (Stk_built s, tick) ->
        sc.sc_tick <- sc.sc_tick + 1;
        tick := sc.sc_tick;
        Mutex.unlock sc.sc_lock;
        (s, false)
    | Some (Stk_building, _) ->
        Condition.wait sc.sc_cond sc.sc_lock;
        get ()
    | None ->
        Hashtbl.replace sc.sc_tbl i (Stk_building, ref 0);
        Mutex.unlock sc.sc_lock;
        let s =
          try build i
          with e ->
            Mutex.lock sc.sc_lock;
            Hashtbl.remove sc.sc_tbl i;
            Condition.broadcast sc.sc_cond;
            Mutex.unlock sc.sc_lock;
            raise e
        in
        Mutex.lock sc.sc_lock;
        sc.sc_tick <- sc.sc_tick + 1;
        Hashtbl.replace sc.sc_tbl i (Stk_built s, ref sc.sc_tick);
        if Hashtbl.length sc.sc_tbl > sc.sc_cap then begin
          let victim = ref (-1) and best = ref max_int in
          Hashtbl.iter
            (fun k (slot, tick) ->
              match slot with
              | Stk_built _ when k <> i && !tick < !best ->
                  victim := k;
                  best := !tick
              | _ -> ())
            sc.sc_tbl;
          if !victim >= 0 then Hashtbl.remove sc.sc_tbl !victim
        end;
        Condition.broadcast sc.sc_cond;
        Mutex.unlock sc.sc_lock;
        (s, true)
  in
  get ()

type warm = {
  w_net : Netlist.t;
  w_lock : Mutex.t;
  mutable w_ctx : Engine.ctx option;
  mutable w_base : Engine.baseline option;
  mutable w_model : Bmc.t option;
  mutable w_classes : (Fault.model * Fault.clas array) list;
      (* one collapsed full universe per fault model; models never share a
         slot, so a bridge evaluation can't serve select classes *)
  mutable w_pair_prep : (Fault.model * (Fault.clas array * pair_prep)) list;
  mutable w_pair_stacks : (Fault.model * stack_cache) list;
      (* per-model secondary-baseline caches for the full universe,
         shared with [w_pair_prep]'s phase-1 tables: the cached class
         indices refer to the cached class array *)
  mutable w_idle : (bool * Bmc.Session.t) list;  (* (certified, session) *)
}

let warm net =
  {
    w_net = net;
    w_lock = Mutex.create ();
    w_ctx = None;
    w_base = None;
    w_model = None;
    w_classes = [];
    w_pair_prep = [];
    w_pair_stacks = [];
    w_idle = [];
  }

let locked w f =
  Mutex.lock w.w_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.w_lock) f

let warm_netlist w = w.w_net

let warm_ctx w =
  locked w (fun () ->
      match w.w_ctx with
      | Some c -> c
      | None ->
          let c = Engine.make_ctx w.w_net in
          w.w_ctx <- Some c;
          c)

let warm_baseline w =
  let ctx = warm_ctx w in
  locked w (fun () ->
      match w.w_base with
      | Some b -> b
      | None ->
          let b = Engine.baseline ctx in
          w.w_base <- Some b;
          b)

let warm_classes w ~model =
  locked w (fun () ->
      match List.assoc_opt model w.w_classes with
      | Some c -> c
      | None ->
          let c =
            Array.of_list
              (Fault.collapse w.w_net (Fault.universe ~model w.w_net))
          in
          w.w_classes <- (model, c) :: w.w_classes;
          c)

let warm_model w =
  locked w (fun () ->
      match w.w_model with
      | Some m -> m
      | None ->
          let m = Bmc.create w.w_net in
          w.w_model <- Some m;
          m)

let warm_session w ~certify =
  let model = warm_model w in
  locked w (fun () ->
      let rec take acc = function
        | [] -> (None, List.rev acc)
        | (c, s) :: rest when c = certify -> (Some s, List.rev_append acc rest)
        | x :: rest -> take (x :: acc) rest
      in
      match take [] w.w_idle with
      | Some s, rest ->
          w.w_idle <- rest;
          s
      | None, _ -> Bmc.Session.create ~certify model)

let warm_release w sess =
  locked w (fun () ->
      w.w_idle <- (Bmc.Session.certified sess, sess) :: w.w_idle)

let warm_session_stats w =
  locked w (fun () ->
      List.map (fun (cert, s) -> (cert, Bmc.Session.stats s)) w.w_idle)

(* Resolution of per-evaluation resources against an optional warm state:
   without one, behave exactly as before (build fresh, discard). *)
let ctx_of warm net =
  match warm with Some w -> warm_ctx w | None -> Engine.make_ctx net

let base_of warm ctx =
  match warm with Some w -> warm_baseline w | None -> Engine.baseline ctx

let classes_of warm ~full ~model net faults =
  match warm with
  | Some w when full -> warm_classes w ~model
  | _ -> Array.of_list (Fault.collapse net faults)

let session_of ?(inprocess = true) warm ~certify net =
  let sess =
    match warm with
    | Some w -> warm_session w ~certify
    | None -> Bmc.Session.create ~certify (Bmc.create net)
  in
  (* Pooled sessions may carry the previous caller's setting; (re)apply
     the ablation switch on every checkout so it is per-evaluation. *)
  Solver.set_inprocess (Bmc.Session.solver sess) inprocess;
  sess

let release_session warm sess =
  match warm with Some w -> warm_release w sess | None -> ()

let check_warm warm net what =
  match warm with
  | Some w when w.w_net != net ->
      invalid_arg (what ^ ": warm state built for a different netlist")
  | _ -> ()

(* Per-domain partial of the collapsed paths: accumulator plus the cone
   statistics the domain observed. *)
type red_state = {
  rs_acc : iacc;
  mutable rs_cone_sum : int;
  mutable rs_cone_max : int;
  mutable rs_lanes : Engine.lane_stats option;
      (* lane-batch statistics this domain observed; [None] on the
         evaluation paths that don't run lane sweeps (BMC) *)
}

let red_state () =
  { rs_acc = iacc_create (); rs_cone_sum = 0; rs_cone_max = 0; rs_lanes = None }

let red_note rs cone =
  rs.rs_cone_sum <- rs.rs_cone_sum + cone;
  if cone > rs.rs_cone_max then rs.rs_cone_max <- cone

let red_lanes rs st = rs.rs_lanes <- merge_lanes rs.rs_lanes (Some st)

let finish_partials ~what ~net ~universe ~classes ~benign partials =
  let acc = iacc_create () in
  let steals = ref 0 and cone_sum = ref 0 and cone_max = ref 0 in
  let solver = ref None and lanes = ref None in
  List.iter
    (fun ((rs, sv), st) ->
      iacc_merge acc rs.rs_acc;
      steals := !steals + st;
      cone_sum := !cone_sum + rs.rs_cone_sum;
      if rs.rs_cone_max > !cone_max then cone_max := rs.rs_cone_max;
      lanes := merge_lanes !lanes rs.rs_lanes;
      solver := merge_solver !solver sv)
    partials;
  let reduction =
    Some
      {
        r_universe = universe;
        r_classes = classes;
        r_benign = benign;
        r_cone_sum = !cone_sum;
        r_cone_max = !cone_max;
      }
  in
  iacc_result ~lanes:!lanes ~what ~nsegs:(Netlist.num_segments net)
    ~nbits:(Netlist.total_bits net) ~steals:!steals ~solver:!solver ~reduction
    acc

let class_counts classes =
  Array.fold_left
    (fun (total, benign) (c : Fault.clas) ->
      let members = List.length c.Fault.cls_members in
      ( total + members,
        if Fault.summary_benign c.Fault.cls_summary then benign + members
        else benign ))
    (0, 0) classes

(* ---- the structural sweep scheduler ----

   Both structural sweeps ask one question — the counts of many
   summaries against one stacked base — so they share one plan and one
   step.  A row is such a base: the fault-free one ([Engine.of_baseline])
   for the single-fault sweep, one secondary baseline per interacting
   first class for the pair sweep.  [Engine.lane_plan] splits a row's
   columns into lane batches of up to [Engine.lane_width] summaries
   sharing one seeded fixpoint and the classes the scalar fast paths
   answer in O(1), folded in chunks.  One batch or one chunk is one
   steal unit: batch-granular, so stealing never shreds a fixpoint and a
   heavy row's batches spread across domains.  The accumulators are
   integers, so the result is bit-identical however the items land. *)
type sweep_item = {
  si_row : int;
  si_fast : bool;       (* fast-path columns, else one lane batch *)
  si_cols : int array;  (* indices into the sweep's summary array *)
}

let fast_chunk = 256

(* The items of every [(row, cols)]: its lane batches, then its fast
   columns in chunks of [fast_chunk], rows in list order. *)
let sweep_items base sms rows =
  let items = ref [] in
  let add si_row si_fast si_cols =
    items := { si_row; si_fast; si_cols } :: !items
  in
  List.iter
    (fun (row, cols) ->
      let fast, batches =
        Engine.lane_plan base (Array.map (fun j -> sms.(j)) cols)
      in
      List.iter (fun b -> add row false (Array.map (Array.get cols) b)) batches;
      let fast = Array.of_list fast in
      let n = Array.length fast in
      for c = 0 to ((n + fast_chunk - 1) / fast_chunk) - 1 do
        let lo = c * fast_chunk in
        add row true
          (Array.init (min fast_chunk (n - lo)) (fun t -> cols.(fast.(lo + t))))
      done)
    rows;
  Array.of_list (List.rev !items)

(* One steal unit against its row's base [stk]: the fast paths count
   from the stacked counts, a batch from the lane words in the worker's
   reused workspace [ws], and every column's counts go to
   [add col segs bits cone] — no verdict array is built.  Returns the
   unit's lane statistics. *)
let sweep_step ctx ws stk sms it add =
  if it.si_fast then begin
    Array.iter
      (fun j ->
        let segs, bits, cone = Engine.delta_counts ctx stk sms.(j) in
        add j segs bits cone)
      it.si_cols;
    { Engine.lane_stats_zero with Engine.ls_fast = Array.length it.si_cols }
  end
  else
    Engine.lane_batch_counts ctx ws stk
      (Array.map (fun j -> sms.(j)) it.si_cols)
      (fun l segs bits cone -> add it.si_cols.(l) segs bits cone)

(* The sweep keeps only the summaries and two int arrays of the classes:
   a cold evaluation collapses without member lists
   ({!Fault.collapse_counts}) and builds the engine tables afterwards, so
   the fault universe is dead before the context and baseline exist,
   which lowers the peak working set (DESIGN.md §19). *)
let evaluate_reduced_structural ~domains ?warm ~full ~model net faults =
  let sms, weights, members =
    match warm with
    | Some w when full ->
        let classes = warm_classes w ~model in
        ( Array.map (fun c -> c.Fault.cls_summary) classes,
          Array.map (fun c -> c.Fault.cls_weight) classes,
          Array.map (fun c -> List.length c.Fault.cls_members) classes )
    | _ -> Fault.collapse_counts net faults
  in
  let nclasses = Array.length sms in
  let universe = Array.fold_left ( + ) 0 members in
  let benign = ref 0 in
  Array.iteri
    (fun i sm -> if Fault.summary_benign sm then benign := !benign + members.(i))
    sms;
  let benign = !benign in
  let ctx = ctx_of warm net in
  let base = base_of warm ctx in
  let stk = Engine.of_baseline base in
  let items = sweep_items base sms [ (0, Array.init nclasses Fun.id) ] in
  let partials =
    steal_map ~domains items
      ~init:(fun _ -> (red_state (), Engine.lane_workspace ctx))
      ~step:(fun (rs, ws) it ->
        red_lanes rs
          (sweep_step ctx ws stk sms it (fun i segs bits cone ->
               red_note rs cone;
               iacc_add rs.rs_acc ~w:weights.(i) ~n:members.(i) ~segs ~bits)))
      ~finish:(fun (rs, _) -> (rs, None))
  in
  finish_partials ~what:"Metric.evaluate" ~net ~universe
    ~classes:nclasses ~benign partials

(* The BMC variant: per-domain incremental session, fault-free verdicts
   established once per session, then each non-benign class re-checks only
   the targets inside its cone ([Session.check_targets ~only]) with the
   fault-free verdict spliced in for the rest.  The structural baseline
   supplies the cones; the SAT solver supplies the verdicts. *)
let evaluate_reduced_bmc ~domains ~certify ~inprocess ?warm ~full ~model net
    faults =
  let ctx = ctx_of warm net in
  let base = base_of warm ctx in
  let classes = classes_of warm ~full ~model net faults in
  let universe, benign = class_counts classes in
  let nsegs = Netlist.num_segments net in
  let targets = List.init nsegs Fun.id in
  let partials =
    steal_map ~domains classes
      ~init:(fun _ ->
        let sess = session_of ~inprocess warm ~certify net in
        let base_vs = Bmc.Session.check_targets_base sess targets in
        (sess, base_vs, red_state ()))
      ~step:(fun (sess, base_vs, rs) (c : Fault.clas) ->
        let n = List.length c.Fault.cls_members in
        if Fault.summary_benign c.Fault.cls_summary then begin
          red_note rs 0;
          let segs, bits = count_bmc net base_vs in
          iacc_add rs.rs_acc ~w:c.Fault.cls_weight ~n ~segs ~bits
        end
        else begin
          let cone =
            match Engine.cone ctx base c.Fault.cls_summary with
            | Some cs -> cs
            | None -> Bitset.create nsegs (* unreachable: benign handled *)
          in
          red_note rs (Bitset.cardinal cone);
          let vs =
            Bmc.Session.check_targets sess ~fault:c.Fault.cls_rep
              ~only:(Bitset.mem cone)
              ~fallback:(fun t -> base_vs.(t))
              targets
          in
          let segs, bits = count_bmc net vs in
          iacc_add rs.rs_acc ~w:c.Fault.cls_weight ~n ~segs ~bits
        end)
      ~finish:(fun (sess, _, rs) ->
        let sv = solver_of_session sess in
        release_session warm sess;
        (rs, sv))
  in
  finish_partials ~what:"Metric.evaluate" ~net ~universe
    ~classes:(Array.length classes) ~benign partials

let evaluate_brute_structural ~domains ?warm net faults =
  let items = Array.of_list faults in
  (* With a warm state the (read-only during analysis) context is shared
     across domains instead of rebuilt per domain. *)
  let shared = Option.map warm_ctx warm in
  let partials =
    steal_map ~domains items
      ~init:(fun _ ->
        ( (match shared with Some c -> c | None -> Engine.make_ctx net),
          iacc_create () ))
      ~step:(fun (ctx, acc) f ->
        let v = Engine.analyze ctx (Some f) in
        let segs, bits = count_verdict net v in
        iacc_add acc ~w:(Fault.weight net f) ~n:1 ~segs ~bits)
      ~finish:(fun (_, acc) -> acc)
  in
  let acc = iacc_create () in
  let steals = ref 0 in
  List.iter
    (fun (a, st) ->
      iacc_merge acc a;
      steals := !steals + st)
    partials;
  iacc_result ~what:"Metric.evaluate" ~nsegs:(Netlist.num_segments net)
    ~nbits:(Netlist.total_bits net) ~steals:!steals ~solver:None
    ~reduction:None acc

let evaluate_brute_bmc ~domains ~certify ~inprocess ?warm net faults =
  let items = Array.of_list faults in
  let nsegs = Netlist.num_segments net in
  let targets = List.init nsegs Fun.id in
  let partials =
    steal_map ~domains items
      ~init:(fun _ ->
        (session_of ~inprocess warm ~certify net, iacc_create ()))
      ~step:(fun (sess, acc) f ->
        let vs = Bmc.Session.check_targets sess ~fault:f targets in
        let segs, bits = count_bmc net vs in
        iacc_add acc ~w:(Fault.weight net f) ~n:1 ~segs ~bits)
      ~finish:(fun (sess, acc) ->
        let sv = solver_of_session sess in
        release_session warm sess;
        (acc, sv))
  in
  let acc = iacc_create () in
  let steals = ref 0 and solver = ref None in
  List.iter
    (fun ((a, sv), st) ->
      iacc_merge acc a;
      steals := !steals + st;
      solver := merge_solver !solver sv)
    partials;
  iacc_result ~what:"Metric.evaluate" ~nsegs ~nbits:(Netlist.total_bits net)
    ~steals:!steals ~solver:!solver ~reduction:None acc

let sample_faults sample faults =
  match sample with
  | None -> faults
  | Some k when k <= 1 -> faults
  | Some k ->
      List.filteri
        (fun i f ->
          i mod k = 0
          ||
          match f.Fault.site with
          | Fault.Primary_in | Fault.Primary_out -> true
          | _ -> false)
        faults

let evaluate ?sample ?(domains = 1) ?(engine = `Structural) ?(reduce = true)
    ?(certify = false) ?(inprocess = true) ?(model = Fault.Stuck) ?warm net =
  if certify && engine <> `Bmc then
    invalid_arg "Metric.evaluate: ~certify:true requires ~engine:`Bmc";
  check_warm warm net "Metric.evaluate";
  let full = match sample with None -> true | Some k -> k <= 1 in
  let faults = sample_faults sample (Fault.universe ~model net) in
  match (engine, reduce) with
  | `Structural, true ->
      evaluate_reduced_structural ~domains ?warm ~full ~model net faults
  | `Structural, false -> evaluate_brute_structural ~domains ?warm net faults
  | `Bmc, true ->
      evaluate_reduced_bmc ~domains ~certify ~inprocess ?warm ~full ~model net
        faults
  | `Bmc, false ->
      evaluate_brute_bmc ~domains ~certify ~inprocess ?warm net faults

(* ---- double-fault sweeps ----

   A pair verdict depends only on the two faults' canonical summaries, so
   the exhaustive sweep runs over unordered CLASS pairs with product
   weights instead of fault pairs.  Per class pair (i, j):

   - diagonal (i = j): duplicated semantic effects are idempotent in both
     engines, so every member pair of the class shares the class's own
     single-fault verdict — m*(m-1)/2 pairs answered by a lookup;
   - disjoint interaction regions and no mutual-support hazard
     ({!Engine.probe}'s region + fragility gate): the pair verdict is
     the pointwise AND of the two single-fault verdicts, so the pair's
     counts follow from the single-fault results and the (small) list of
     segments the partner lost — O(min lost), no fixpoint;
   - interacting regions: the first class's faulty state is computed once
     per row as a secondary baseline ({!Engine.stack}) and the second
     summaries' cone deltas run on top, lane-batched by the structural
     sweep scheduler above.

   Everything is integer-exact, so the sweep is bit-identical to the brute
   pair enumeration, sequentially and across domains. *)

(* Deterministic enumeration of every [sample]-th unordered fault pair,
   generated straight into the result array (at millions of pairs the
   intermediate list was measurable garbage). *)
let pair_items ~sample faults =
  let n = Array.length faults in
  let total = n * (n - 1) / 2 in
  let count = (total + sample - 1) / sample in
  if count = 0 then [||]
  else begin
    let items = Array.make count (faults.(0), faults.(0)) in
    let idx = ref 0 and pos = ref 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if !idx mod sample = 0 then begin
          items.(!pos) <- (faults.(i), faults.(j));
          incr pos
        end;
        incr idx
      done
    done;
    items
  end

let evaluate_pairs_brute ~sample ~domains ~engine ~certify ~inprocess ?warm
    net faults =
  let faults = Array.of_list faults in
  let items = pair_items ~sample faults in
  if Array.length items = 0 then invalid_arg "Metric.evaluate_pairs: empty";
  let nsegs = Netlist.num_segments net in
  let acc = iacc_create () in
  let steals = ref 0 and solver = ref None in
  let collect fold partials =
    List.iter
      (fun (st, s) ->
        fold st;
        steals := !steals + s)
      partials
  in
  (match engine with
  | `Structural ->
      (* The context is read-only during analysis, so the domains share
         it. *)
      let ctx = ctx_of warm net in
      steal_map ~domains items
        ~init:(fun _ -> iacc_create ())
        ~step:(fun a (fi, fj) ->
          let v = Engine.analyze_multi ctx [ fi; fj ] in
          let segs, bits = count_verdict net v in
          iacc_add a
            ~w:(Fault.weight net fi * Fault.weight net fj)
            ~n:1 ~segs ~bits)
        ~finish:Fun.id
      |> collect (fun a -> iacc_merge acc a)
  | `Bmc ->
      let targets = List.init nsegs Fun.id in
      steal_map ~domains items
        ~init:(fun _ ->
          (session_of ~inprocess warm ~certify net, iacc_create ()))
        ~step:(fun (sess, a) (fi, fj) ->
          let vs =
            Bmc.Session.check_targets_multi sess ~faults:[ fi; fj ] targets
          in
          let segs, bits = count_bmc net vs in
          iacc_add a
            ~w:(Fault.weight net fi * Fault.weight net fj)
            ~n:1 ~segs ~bits)
        ~finish:(fun (sess, a) ->
          let sv = solver_of_session sess in
          release_session warm sess;
          (a, sv))
      |> collect (fun (a, sv) ->
             iacc_merge acc a;
             solver := merge_solver !solver sv));
  iacc_result ~what:"Metric.evaluate_pairs" ~nsegs
    ~nbits:(Netlist.total_bits net) ~steals:!steals ~solver:!solver
    ~reduction:None acc

(* [pair_prep] (declared above, next to the warm state that caches it):
   per-class data shared by both exhaustive engines — summaries, member
   counts, weights, the sum of squared member weights (for the diagonal
   pair weight), and — filled in by phase 1, to disjoint indices, so the
   domains share the arrays — cones, interaction regions ([pq_regions];
   region-disjoint classes compose pointwise per Engine.probe provided
   the fragility gate also passes), writability losses ([pq_wlost]),
   fragile segments and their re-route certificate footprints
   ([pq_fragile] / [pq_supp] / [pq_supp_edges] / [pq_rhosts]), the class
   damage ([pq_dead_edges] / [pq_dmg]), accessibility counts/bitsets and
   lost-segment lists ([pq_lost]: baseline-accessible segments no longer
   accessible — every non-coarse class's accessible set is a subset of
   the baseline's, effects only remove capabilities). *)
let pair_prep_static net classes =
  let nc = Array.length classes in
  let none = Bitset.create 0 in
  {
    pq_sms = Array.map (fun c -> c.Fault.cls_summary) classes;
    pq_cones = Array.make nc none;
    pq_regions = Array.make nc none;
    pq_wlost = Array.make nc none;
    pq_fragile = Array.make nc none;
    pq_supp = Array.make nc none;
    pq_supp_edges = Array.make nc none;
    pq_dead_edges = Array.make nc none;
    pq_dmg = Array.make nc none;
    pq_rhosts = Array.make nc none;
    pq_members =
      Array.map (fun c -> List.length c.Fault.cls_members) classes;
    pq_weight = Array.map (fun c -> c.Fault.cls_weight) classes;
    pq_sq =
      Array.map
        (fun (c : Fault.clas) ->
          List.fold_left
            (fun a f ->
              let w = Fault.weight net f in
              a + (w * w))
            0 c.Fault.cls_members)
        classes;
    pq_segs = Array.make nc 0;
    pq_bits = Array.make nc 0;
    pq_acc = Array.make nc none;
    pq_lost = Array.make nc [||];
    pq_len =
      Array.init (Netlist.num_segments net) (fun i -> Netlist.seg_len net i);
  }

(* Accessibility bitset and lost list of one class, given a per-segment
   accessibility predicate. *)
let pair_prep_note pq i ~nsegs ~base_acc ~acc_of =
  let acc = Bitset.create nsegs in
  let lost = ref [] in
  for s = nsegs - 1 downto 0 do
    if acc_of s then Bitset.add acc s
    else if base_acc s then lost := s :: !lost
  done;
  pq.pq_acc.(i) <- acc;
  pq.pq_lost.(i) <- Array.of_list !lost

(* Per-domain partial of the exhaustive pair sweeps. *)
type pair_state = {
  ps_acc : iacc;
  mutable ps_diagonal : int;
  mutable ps_disjoint : int;
  mutable ps_stacked : int;
  mutable ps_stacks : int;
  mutable ps_lanes : Engine.lane_stats option;
}

let pair_state () =
  {
    ps_acc = iacc_create ();
    ps_diagonal = 0;
    ps_disjoint = 0;
    ps_stacked = 0;
    ps_stacks = 0;
    ps_lanes = None;
  }

(* Can pair (i, j) be composed pointwise?  Disjoint interaction regions
   and no mutual-support hazard (a fragile segment of one class
   surviving in the other, a support edge of one killed by the other, a
   steering host of one losing writability under the other). *)
let pair_disjoint_gates pq i j =
  Bitset.disjoint pq.pq_regions.(i) pq.pq_regions.(j)
  && Bitset.disjoint pq.pq_supp_edges.(i) pq.pq_dead_edges.(j)
  && Bitset.disjoint pq.pq_supp_edges.(j) pq.pq_dead_edges.(i)
  && Bitset.disjoint pq.pq_supp.(i) pq.pq_dmg.(j)
  && Bitset.disjoint pq.pq_supp.(j) pq.pq_dmg.(i)
  && Bitset.disjoint pq.pq_rhosts.(i) pq.pq_fragile.(j)
  && Bitset.disjoint pq.pq_rhosts.(j) pq.pq_fragile.(i)
  && Bitset.disjoint pq.pq_rhosts.(i) pq.pq_wlost.(j)
  && Bitset.disjoint pq.pq_rhosts.(j) pq.pq_wlost.(i)

(* Diagonal: every unordered pair of distinct members of class i.  The
   union of two equal summaries is engine-equivalent to the summary
   itself, so the pair verdict is the class verdict. *)
let pair_diagonal_add pq ps i =
  ps.ps_diagonal <- ps.ps_diagonal + 1;
  let m = pq.pq_members.(i) in
  let npairs = m * (m - 1) / 2 in
  if npairs > 0 then begin
    let w = (pq.pq_weight.(i) * pq.pq_weight.(i)) - pq.pq_sq.(i) in
    iacc_add ps.ps_acc ~w:(w / 2) ~n:npairs ~segs:pq.pq_segs.(i)
      ~bits:pq.pq_bits.(i)
  end

(* Disjoint pair: the pair's accessible set is the intersection of the
   two classes' — class [keep]'s count minus the partner's lost segments
   that [keep] still had.  Exact because both accessible sets are
   subsets of the baseline's (coarse classes have full regions and never
   get here). *)
let pair_disjoint_add pq ps i j =
  ps.ps_disjoint <- ps.ps_disjoint + 1;
  let keep =
    if Array.length pq.pq_lost.(j) <= Array.length pq.pq_lost.(i) then i else j
  in
  let lost = pq.pq_lost.(i + j - keep) in
  let acc = pq.pq_acc.(keep) in
  let dsegs = ref 0 and dbits = ref 0 in
  for t = 0 to Array.length lost - 1 do
    let s = lost.(t) in
    if Bitset.mem acc s then begin
      incr dsegs;
      dbits := !dbits + pq.pq_len.(s)
    end
  done;
  iacc_add ps.ps_acc ~w:(pq.pq_weight.(i) * pq.pq_weight.(j))
    ~n:(pq.pq_members.(i) * pq.pq_members.(j))
    ~segs:(pq.pq_segs.(keep) - !dsegs)
    ~bits:(pq.pq_bits.(keep) - !dbits)

(* Interacting pair (i, j) whose combined accessible counts are known. *)
let pair_interact_add pq ps i j ~segs ~bits =
  ps.ps_stacked <- ps.ps_stacked + 1;
  iacc_add ps.ps_acc
    ~w:(pq.pq_weight.(i) * pq.pq_weight.(j))
    ~n:(pq.pq_members.(i) * pq.pq_members.(j))
    ~segs ~bits

(* Row [i]'s pair arithmetic shared by both engines: the gates, the
   diagonal and the disjoint fast path (pure counting) run here exactly
   once, and the interacting column indices (ascending) are returned for
   the caller's engine.  [buf] is the worker's scratch, grown on demand
   and reused by every row, so a row allocates only its result. *)
let pair_row pq ps buf i =
  let nc = Array.length pq.pq_sms in
  pair_diagonal_add pq ps i;
  let n = ref 0 in
  for j = i + 1 to nc - 1 do
    if pair_disjoint_gates pq i j then pair_disjoint_add pq ps i j
    else begin
      if !n = Array.length !buf then begin
        let grown = Array.make (max 16 (2 * !n)) 0 in
        Array.blit !buf 0 grown 0 !n;
        buf := grown
      end;
      !buf.(!n) <- j;
      incr n
    end
  done;
  Array.sub !buf 0 !n

let finish_pair_partials ~net ~nclasses partials =
  let acc = iacc_create () in
  let steals = ref 0 and solver = ref None in
  let stats =
    ref
      {
        p_classes = nclasses;
        p_class_pairs = nclasses * (nclasses + 1) / 2;
        p_diagonal = 0;
        p_disjoint = 0;
        p_stacked = 0;
        p_stacks = 0;
      }
  in
  let pair_lanes = ref None in
  List.iter
    (fun ((ps, sv), st) ->
      iacc_merge acc ps.ps_acc;
      steals := !steals + st;
      solver := merge_solver !solver sv;
      pair_lanes := merge_lanes !pair_lanes ps.ps_lanes;
      stats :=
        {
          !stats with
          p_diagonal = !stats.p_diagonal + ps.ps_diagonal;
          p_disjoint = !stats.p_disjoint + ps.ps_disjoint;
          p_stacked = !stats.p_stacked + ps.ps_stacked;
          p_stacks = !stats.p_stacks + ps.ps_stacks;
        })
    partials;
  iacc_result ~pairs:(Some !stats) ~pair_lanes:!pair_lanes
    ~what:"Metric.evaluate_pairs" ~nsegs:(Netlist.num_segments net)
    ~nbits:(Netlist.total_bits net) ~steals:!steals ~solver:!solver
    ~reduction:None acc

(* The per-model stack cache: served from the warm state for full
   sweeps (the cached column indices refer to the warm class array,
   exactly like [w_pair_prep]), private to the evaluation otherwise. *)
let pair_stacks_of warm ~full ~model =
  match warm with
  | Some w when full ->
      locked w (fun () ->
          match List.assoc_opt model w.w_pair_stacks with
          | Some sc -> sc
          | None ->
              let sc = stack_cache () in
              w.w_pair_stacks <- (model, sc) :: w.w_pair_stacks;
              sc)
  | _ -> stack_cache ()

let evaluate_pairs_reduced_structural ~domains ?warm ~full ~model net faults =
  let ctx = ctx_of warm net in
  let base = base_of warm ctx in
  (* The phase-1 probe tables are a deterministic function of the netlist
     and the fault model (for the full universe), so a warm state serves
     them from a per-model cache and repeated exhaustive sweeps skip
     phase 1 entirely. *)
  let cached =
    match warm with
    | Some w when full ->
        locked w (fun () -> List.assoc_opt model w.w_pair_prep)
    | _ -> None
  in
  let classes, pq, prep_steals =
    match cached with
    | Some (classes, pq) -> (classes, pq, 0)
    | None ->
        let classes = classes_of warm ~full ~model net faults in
        let nc = Array.length classes in
        let nsegs = Netlist.num_segments net in
        let pq = pair_prep_static net classes in
        let base_v = Engine.baseline_verdict base in
        let base_acc s = base_v.Engine.accessible.(s) in
        (* Phase 1: per-class probes — single-fault verdict counts plus
           the exact cones and interaction regions.  Writes go to
           disjoint indices, so the domains share the arrays. *)
        let prep_partials =
          steal_map ~domains (Array.init nc Fun.id)
            ~init:(fun _ -> ())
            ~step:(fun () i ->
              let p = Engine.probe ctx base pq.pq_sms.(i) in
              pq.pq_cones.(i) <- p.Engine.pr_cone;
              pq.pq_regions.(i) <- p.Engine.pr_region;
              pq.pq_fragile.(i) <- p.Engine.pr_fragile;
              pq.pq_supp.(i) <- p.Engine.pr_supp;
              pq.pq_supp_edges.(i) <- p.Engine.pr_supp_edges;
              pq.pq_dead_edges.(i) <- p.Engine.pr_dead_edges;
              pq.pq_dmg.(i) <- p.Engine.pr_dmg;
              pq.pq_rhosts.(i) <- p.Engine.pr_rhosts;
              let v = p.Engine.pr_verdict in
              let wlost = Bitset.create nsegs in
              for s = 0 to nsegs - 1 do
                if base_v.Engine.writable.(s) && not v.Engine.writable.(s)
                then Bitset.add wlost s
              done;
              pq.pq_wlost.(i) <- wlost;
              let segs, bits = count_verdict net v in
              pq.pq_segs.(i) <- segs;
              pq.pq_bits.(i) <- bits;
              pair_prep_note pq i ~nsegs ~base_acc
                ~acc_of:(fun s -> v.Engine.accessible.(s)))
            ~finish:(fun () -> ())
        in
        let prep_steals =
          List.fold_left (fun a ((), s) -> a + s) 0 prep_partials
        in
        (match warm with
        | Some w when full ->
            locked w (fun () ->
                if not (List.mem_assoc model w.w_pair_prep) then
                  w.w_pair_prep <- (model, (classes, pq)) :: w.w_pair_prep)
        | _ -> ());
        (classes, pq, prep_steals)
  in
  let nc = Array.length classes in
  (* Phase 2a: discovery — run the disjointness gates and the pure
     counting (diagonal + disjoint) once per row, deferring the
     interacting columns.  Rows write disjoint slots of [inter], so the
     domains share the array. *)
  let inter = Array.make nc [||] in
  let partials_a =
    steal_map ~domains (Array.init nc Fun.id)
      ~init:(fun _ -> (pair_state (), ref [||]))
      ~step:(fun (ps, buf) i -> inter.(i) <- pair_row pq ps buf i)
      ~finish:(fun (ps, _) -> (ps, None))
  in
  (* Phase 2b: every interacting row is a row of the structural sweep
     scheduler over its secondary baseline, built once, on first use, by
     whichever domain gets there first. *)
  let rows =
    List.filter
      (fun (_, js) -> Array.length js > 0)
      (List.init nc (fun i -> (i, inter.(i))))
  in
  let items = sweep_items base pq.pq_sms rows in
  let sc = pair_stacks_of warm ~full ~model in
  let partials_b =
    steal_map ~domains items
      ~init:(fun _ -> (pair_state (), Engine.lane_workspace ctx))
      ~step:(fun (ps, ws) it ->
        let i = it.si_row in
        let stk, built =
          stack_cached sc (fun i -> Engine.stack ctx base pq.pq_sms.(i)) i
        in
        if built then ps.ps_stacks <- ps.ps_stacks + 1;
        let st =
          sweep_step ctx ws stk pq.pq_sms it (fun j segs bits _ ->
              pair_interact_add pq ps i j ~segs ~bits)
        in
        ps.ps_lanes <- merge_lanes ps.ps_lanes (Some st))
      ~finish:(fun (ps, _) -> (ps, None))
  in
  let r = finish_pair_partials ~net ~nclasses:nc (partials_a @ partials_b) in
  { r with steals = r.steals + prep_steals }

let evaluate_pairs_reduced_bmc ~domains ~certify ~inprocess ?warm ~full
    ~model net faults =
  let ctx = ctx_of warm net in
  let base = base_of warm ctx in
  let classes = classes_of warm ~full ~model net faults in
  let nc = Array.length classes in
  let nsegs = Netlist.num_segments net in
  let targets = List.init nsegs Fun.id in
  let pq = pair_prep_static net classes in
  let base_wrt = (Engine.baseline_verdict base).Engine.writable in
  (* Phase 1: per-class structural probes (cones and interaction regions)
     and cone-restricted SAT counts, as in the single-fault sweep.  The
     structural regions drive the factorization below — the engines agree
     on them (the cone-splice assumption the reduced single-fault BMC
     path already rests on, property-tested). *)
  let bmc_acc vs s =
    match vs.(s) with Bmc.Accessible _ -> true | Bmc.Inaccessible -> false
  in
  let prep_partials =
    steal_map ~domains (Array.init nc Fun.id)
      ~init:(fun _ ->
        let sess = session_of ~inprocess warm ~certify net in
        let base_vs = Bmc.Session.check_targets_base sess targets in
        (sess, base_vs))
      ~step:(fun (sess, base_vs) i ->
        let p = Engine.probe ctx base pq.pq_sms.(i) in
        pq.pq_cones.(i) <- p.Engine.pr_cone;
        pq.pq_regions.(i) <- p.Engine.pr_region;
        pq.pq_fragile.(i) <- p.Engine.pr_fragile;
        pq.pq_supp.(i) <- p.Engine.pr_supp;
        pq.pq_supp_edges.(i) <- p.Engine.pr_supp_edges;
        pq.pq_dead_edges.(i) <- p.Engine.pr_dead_edges;
        pq.pq_dmg.(i) <- p.Engine.pr_dmg;
        pq.pq_rhosts.(i) <- p.Engine.pr_rhosts;
        let wlost = Bitset.create nsegs in
        for s = 0 to nsegs - 1 do
          if
            base_wrt.(s)
            && not p.Engine.pr_verdict.Engine.writable.(s)
          then Bitset.add wlost s
        done;
        pq.pq_wlost.(i) <- wlost;
        let vs =
          if Fault.summary_benign pq.pq_sms.(i) then base_vs
          else
            Bmc.Session.check_targets sess ~fault:classes.(i).Fault.cls_rep
              ~only:(Bitset.mem p.Engine.pr_cone)
              ~fallback:(fun t -> base_vs.(t))
              targets
        in
        let segs, bits = count_bmc net vs in
        pq.pq_segs.(i) <- segs;
        pq.pq_bits.(i) <- bits;
        pair_prep_note pq i ~nsegs ~base_acc:(bmc_acc base_vs)
          ~acc_of:(bmc_acc vs))
      ~finish:(fun (sess, _) ->
        let sv = solver_of_session sess in
        release_session warm sess;
        sv)
  in
  let prep_steals = ref 0 and prep_solver = ref None in
  List.iter
    (fun (sv, st) ->
      prep_steals := !prep_steals + st;
      prep_solver := merge_solver !prep_solver sv)
    prep_partials;
  (* Phase 2: the row sweep; interacting pairs are SAT-checked under the
     merged fault set, restricted to the union of the two cones. *)
  let partials =
    steal_map ~domains (Array.init nc Fun.id)
      ~init:(fun _ ->
        let sess = session_of ~inprocess warm ~certify net in
        let base_vs = Bmc.Session.check_targets_base sess targets in
        (sess, base_vs, pair_state (), ref [||]))
      ~step:(fun (sess, base_vs, ps, buf) i ->
        Array.iter
          (fun j ->
            (* The restriction must be the cone of the MERGED summary:
               with tight cones the union of the two single-fault taints
               can undershoot the pair's (interaction can kill paths both
               single faults left alive). *)
            let u =
              match
                Engine.cone ctx base
                  (Fault.summary_union pq.pq_sms.(i) pq.pq_sms.(j))
              with
              | Some cs -> cs
              | None -> Bitset.create nsegs
            in
            let vs =
              Bmc.Session.check_targets_multi sess
                ~faults:
                  [ classes.(i).Fault.cls_rep; classes.(j).Fault.cls_rep ]
                ~only:(Bitset.mem u)
                ~fallback:(fun t -> base_vs.(t))
                targets
            in
            let segs, bits = count_bmc net vs in
            pair_interact_add pq ps i j ~segs ~bits)
          (pair_row pq ps buf i))
      ~finish:(fun (sess, _, ps, _) ->
        let sv = solver_of_session sess in
        release_session warm sess;
        (ps, sv))
  in
  let r = finish_pair_partials ~net ~nclasses:nc partials in
  {
    r with
    steals = r.steals + !prep_steals;
    solver = merge_solver r.solver !prep_solver;
  }

let evaluate_pairs ?(sample = 37) ?fault_sample ?(domains = 1)
    ?(engine = `Structural) ?(exhaustive = false) ?(reduce = true)
    ?(certify = false) ?(inprocess = true) ?(model = Fault.Stuck) ?warm net =
  if certify && engine <> `Bmc then
    invalid_arg "Metric.evaluate_pairs: ~certify:true requires ~engine:`Bmc";
  if model = Fault.Transient then
    raise
      (Unsupported
         "transient pairs are unsupported (two glitches are not a set-wise \
          union of summaries)");
  check_warm warm net "Metric.evaluate_pairs";
  let full = match fault_sample with None -> true | Some k -> k <= 1 in
  let faults = sample_faults fault_sample (Fault.universe ~model net) in
  if exhaustive && reduce then
    match engine with
    | `Structural ->
        evaluate_pairs_reduced_structural ~domains ?warm ~full ~model net
          faults
    | `Bmc ->
        evaluate_pairs_reduced_bmc ~domains ~certify ~inprocess ?warm ~full
          ~model net faults
  else
    let sample = if exhaustive then 1 else max 1 sample in
    evaluate_pairs_brute ~sample ~domains ~engine ~certify ~inprocess ?warm
      net faults

let pp_solver_stats fmt s =
  Format.fprintf fmt
    "@[<h>solver: %d conflicts, %d decisions, %d propagations; %d clauses emitted, %d nodes reused@]"
    s.s_conflicts s.s_decisions s.s_propagations s.s_clauses_emitted
    s.s_nodes_reused;
  if s.s_learnt_lits > 0 then
    Format.fprintf fmt
      "@,@[<h>search: %d restarts; learnt lits %d -> %d (%.1f%% minimized); %d DB reductions, %d learnts live@]"
      s.s_restarts s.s_learnt_lits
      (s.s_learnt_lits - s.s_minimized_lits)
      (100.0 *. float_of_int s.s_minimized_lits /. float_of_int s.s_learnt_lits)
      s.s_reductions s.s_learnt_db;
  if s.s_simp_passes > 0 then
    Format.fprintf fmt
      "@,@[<h>simplify: %d passes; %d subsumed, %d lits strengthened, %d vars eliminated, %d lits vivified@]"
      s.s_simp_passes s.s_subsumed s.s_strengthened_lits s.s_eliminated_vars
      s.s_vivified_lits;
  if s.s_cert_unsat > 0 || s.s_cert_lemmas > 0 then
    Format.fprintf fmt
      "@,@[<h>certified: %d UNSAT verdicts RUP-checked, %d lemmas verified, %d deletions, %.2fs in checker@]"
      s.s_cert_unsat s.s_cert_lemmas s.s_cert_deletes s.s_cert_time

let pp_reduction_stats fmt r =
  Format.fprintf fmt
    "@[<h>reduction: %d faults -> %d classes (%d benign); cone avg %.1f max %d@]"
    r.r_universe r.r_classes r.r_benign
    (if r.r_classes = 0 then 0.0
     else float_of_int r.r_cone_sum /. float_of_int r.r_classes)
    r.r_cone_max

let pp_lane_stats fmt (l : Engine.lane_stats) =
  Format.fprintf fmt
    "@[<h>lanes: %d batches (width %d), %d lanes (avg occupancy %.1f), %d settled at seed, %d fast-path classes, %d rounds@]"
    l.Engine.ls_batches Engine.lane_width l.Engine.ls_lanes
    (if l.Engine.ls_batches = 0 then 0.0
     else float_of_int l.Engine.ls_lanes /. float_of_int l.Engine.ls_batches)
    l.Engine.ls_masked l.Engine.ls_fast l.Engine.ls_rounds

let pp_pair_stats fmt p =
  Format.fprintf fmt
    "@[<h>pairs: %d classes -> %d class pairs (%d diagonal, %d disjoint, %d stacked); %d secondary baselines@]"
    p.p_classes p.p_class_pairs p.p_diagonal p.p_disjoint p.p_stacked
    p.p_stacks

let pp fmt r =
  Format.fprintf fmt
    "@[<v>segments: worst %.3f avg %.4f@,bits: worst %.3f avg %.4f@,(%d faults, weight %d)@]"
    r.worst_segments r.avg_segments r.worst_bits r.avg_bits r.faults
    r.total_weight;
  (match r.reduction with
  | None -> ()
  | Some red -> Format.fprintf fmt "@,%a" pp_reduction_stats red);
  (match r.lanes with
  | None -> ()
  | Some l -> Format.fprintf fmt "@,%a" pp_lane_stats l);
  (match r.pairs with
  | None -> ()
  | Some p -> Format.fprintf fmt "@,%a" pp_pair_stats p);
  (match r.pair_lanes with
  | None -> ()
  | Some l -> Format.fprintf fmt "@,pair %a" pp_lane_stats l);
  if r.steals > 0 then Format.fprintf fmt "@,steals: %d" r.steals;
  match r.solver with
  | None -> ()
  | Some s -> Format.fprintf fmt "@,%a" pp_solver_stats s
