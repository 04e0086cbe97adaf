(* Per-layer metrics of the traced run.  Every traced run prints every
   name below; a layer the workload does not exercise reads 0. *)

open Perfbench_harness
module Metric = Ftrsn_core.Metric
module Engine = Ftrsn_access.Engine
module Augment = Ftrsn_core.Augment
module Pipeline = Ftrsn_core.Pipeline

let pair_nets = [ "u226"; "x1331"; "q12710"; "g1023"; "q12710-ft"; "x1331-ft"; "random" ]
let exec_ops = [ "probe"; "metric"; "netinfo"; "diagnose"; "synthesize"; "pairs"; "certify" ]

(* name, unit *)
let all =
  [
    ("service.pool_hit_frac", "frac");
    ("service.pool_misses", "count");
    ("service.pool_evictions", "count");
    ("service.pool_bytes", "bytes");
    ("service.acquire_miss_ms_p50", "ms");
    ("rsn.parse_ms_p50", "ms");
  ]
  @ List.map (fun op -> ("service.exec_ms_p50." ^ op, "ms")) exec_ops
  @ [
      ("service.codec_us_p50", "us");
      ("service.wait_ms_p99_est.light", "ms");
      ("service.wait_ms_p99_est.heavy", "ms");
      ("service.busy_frac_est", "frac");
      ("service.admission_rejects", "count");
      ("harness.late_ms_p99", "ms");
      ("fault.universe_ms", "ms");
      ("fault.collapse_ms", "ms");
      ("fault.class_ratio", "frac");
      ("engine.ctx_ms", "ms");
      ("engine.lane_batches", "count");
      ("engine.lane_occupancy", "frac");
      ("engine.rounds", "count");
      ("engine.fast_frac", "frac");
      ("metric.sib_s", "s");
      ("metric.ft_s", "s");
      ("augment.solve_s", "s");
      ("augment.verify_s", "s");
      ("augment.ilp_nodes", "count");
      ("augment.ilp_cuts", "count");
      ("synthesis.run_s", "s");
      ("area.s", "s");
      ("pairs.class_pairs", "count");
      ("pairs.disjoint_frac", "frac");
      ("pairs.stacked", "count");
      ("pairs.stacks", "count");
      ("pairs.lane_occupancy", "frac");
      ("pairs.rounds", "count");
      ("metric.steals", "count");
    ]
  @ List.map (fun n -> ("pairs.sweep_s." ^ n, "s")) pair_nets
  @ [
      ("bmc.session_ms", "ms");
      ("bmc.clauses_emitted", "count");
      ("bmc.reuse_frac", "frac");
      ("sat.conflicts", "count");
      ("sat.decisions", "count");
      ("sat.propagations", "count");
      ("sat.minimized_frac", "frac");
      ("sat.simp_passes", "count");
      ("sat.eliminated_vars", "count");
      ("sat.learnt_db", "count");
      ("checker.cert_s", "s");
      ("checker.cert_frac", "frac");
      ("checker.lemmas", "count");
      ("checker.cert_unsat", "count");
      ("itc02.rsn_ms", "ms");
      ("trace.overhead_ms", "ms");
      ("trace.overhead_frac", "frac");
    ]

(* Zero-fills the names a workload did not measure; rejects unknown ones. *)
let complete values =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n all) then invalid_arg ("unknown per-layer metric " ^ n))
    values;
  List.map
    (fun (n, u) -> (n, Option.value (List.assoc_opt n values) ~default:0.0, u))
    all

let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let isum f l = float (List.fold_left (fun a x -> a + f x) 0 l)
let ms name = 1000.0 *. Trace.total name

(* Counters read from the result records of one traced pass, plus span
   totals of the layer calls. *)
let of_batch (results : (string * Metric.result) list)
    (synths : (string * Pipeline.result) list) =
  let ms_ = List.map snd results in
  let reds = List.filter_map (fun m -> m.Metric.reduction) ms_ in
  let lanes = List.filter_map (fun m -> m.Metric.lanes) ms_ in
  let pls = List.filter_map (fun m -> m.Metric.pair_lanes) ms_ in
  let prs = List.filter_map (fun m -> m.Metric.pairs) ms_ in
  let sol = List.filter_map (fun m -> m.Metric.solver) ms_ in
  let augs = List.map (fun (_, r) -> r.Pipeline.augmentation) synths in
  let classes = isum (fun r -> r.Metric.r_classes) reds in
  let occupancy ls =
    ratio
      (isum (fun l -> l.Engine.ls_lanes) ls)
      (isum (fun l -> l.Engine.ls_batches) ls *. float Engine.lane_width)
  in
  let cert_s = sum (fun s -> s.Metric.s_cert_time) sol in
  let emitted = isum (fun s -> s.Metric.s_clauses_emitted) sol in
  let reused = isum (fun s -> s.Metric.s_nodes_reused) sol in
  [
    ("fault.universe_ms", ms "fault.universe");
    ("fault.collapse_ms", ms "fault.collapse");
    ("fault.class_ratio", ratio classes (isum (fun r -> r.Metric.r_universe) reds));
    ("engine.ctx_ms", ms "engine.make_ctx");
    ("engine.lane_batches", isum (fun l -> l.Engine.ls_batches) lanes);
    ("engine.lane_occupancy", occupancy lanes);
    ("engine.rounds", isum (fun l -> l.Engine.ls_rounds) lanes);
    ("engine.fast_frac", ratio (isum (fun l -> l.Engine.ls_fast) lanes) classes);
    ("metric.sib_s", Trace.total "metric.evaluate.sib");
    ("metric.ft_s", Trace.total "metric.evaluate.ft");
    ("augment.solve_s", Trace.total "augment.solve");
    ("augment.verify_s", Trace.total "augment.verify");
    ("augment.ilp_nodes", isum (fun a -> a.Augment.ilp_nodes) augs);
    ("augment.ilp_cuts", isum (fun a -> a.Augment.ilp_cuts) augs);
    ("synthesis.run_s", Trace.total "synthesis.run");
    ("area.s", Trace.total "area.of_netlist");
    ("pairs.class_pairs", isum (fun p -> p.Metric.p_class_pairs) prs);
    ( "pairs.disjoint_frac",
      ratio (isum (fun p -> p.Metric.p_disjoint) prs) (isum (fun p -> p.Metric.p_class_pairs) prs) );
    ("pairs.stacked", isum (fun p -> p.Metric.p_stacked) prs);
    ("pairs.stacks", isum (fun p -> p.Metric.p_stacks) prs);
    ("pairs.lane_occupancy", occupancy pls);
    ("pairs.rounds", isum (fun l -> l.Engine.ls_rounds) pls);
    ("metric.steals", isum (fun m -> m.Metric.steals) ms_);
  ]
  @ List.map (fun n -> ("pairs.sweep_s." ^ n, Trace.total ("pairs.sweep." ^ n))) pair_nets
  @ [
      ("bmc.session_ms", ms "bmc.session");
      ("bmc.clauses_emitted", emitted);
      ("bmc.reuse_frac", ratio reused (reused +. emitted));
      ("sat.conflicts", isum (fun s -> s.Metric.s_conflicts) sol);
      ("sat.decisions", isum (fun s -> s.Metric.s_decisions) sol);
      ("sat.propagations", isum (fun s -> s.Metric.s_propagations) sol);
      ( "sat.minimized_frac",
        ratio (isum (fun s -> s.Metric.s_minimized_lits) sol) (isum (fun s -> s.Metric.s_learnt_lits) sol) );
      ("sat.simp_passes", isum (fun s -> s.Metric.s_simp_passes) sol);
      ("sat.eliminated_vars", isum (fun s -> s.Metric.s_eliminated_vars) sol);
      ("sat.learnt_db", isum (fun s -> s.Metric.s_learnt_db) sol);
      ("checker.cert_s", cert_s);
      ("checker.cert_frac", ratio cert_s (Trace.total "metric.evaluate.certified"));
      ("checker.lemmas", isum (fun s -> s.Metric.s_cert_lemmas) sol);
      ("checker.cert_unsat", isum (fun s -> s.Metric.s_cert_unsat) sol);
    ]
