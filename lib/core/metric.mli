(** The fault-tolerance metric (paper §III-A, evaluated in §IV-B).

    For every single stuck-at-0/1 fault in the netlist's fault universe the
    metric computes the fraction of scan segments, and of scan bits, that
    remain accessible (writable and readable), then reports the worst case
    and the fault-weighted average — the eight accessibility columns of
    Table I.

    Verdicts come from one of two engines: the structural fixpoint engine
    ({!Ftrsn_access.Engine}, the default) or the SAT-based BMC engine
    driven through incremental {!Ftrsn_bmc.Bmc.Session}s (one session per
    domain; clauses are reused across the faults a session sweeps).

    By default the fault universe is reduced before any engine runs:

    - faults with the same semantic {!Ftrsn_fault.Fault.summary} are
      collapsed into one equivalence class (the class carries the summed
      weight and member count, so the aggregates are unchanged);
    - each class verdict is computed as a cone-of-influence delta against
      the fault-free baseline — only segments the fault can disturb are
      re-analyzed (lane batches of {!Ftrsn_access.Engine.lane_batch_counts}
      on {!Ftrsn_access.Engine.of_baseline}, or
      [Bmc.Session.check_targets ~only] for the BMC engine), the
      fault-free verdict is spliced in for the rest.

    Both reductions are exact: the reduced result is bit-identical to the
    brute-force one ([~reduce:false]) in every [result] field.  All
    accumulation is integer (min / weighted sums), divided to fractions
    once at the end, so results are also independent of evaluation order —
    which lets a work-stealing scheduler distribute faults dynamically
    over domains instead of static chunking. *)

type solver_stats = {
  s_conflicts : int;
  s_decisions : int;
  s_propagations : int;
  s_restarts : int;         (** restart-budget exhaustions *)
  s_learnt_lits : int;      (** learnt literals before minimization *)
  s_minimized_lits : int;   (** literals removed by clause minimization *)
  s_reductions : int;       (** learnt-DB reduction passes *)
  s_learnt_db : int;        (** live learnt clauses at session end (summed) *)
  s_clauses_emitted : int;  (** CNF clauses emitted into the solver(s) *)
  s_nodes_reused : int;     (** emitter memo hits: nodes NOT re-emitted *)
  s_subsumed : int;         (** clauses deleted by subsumption *)
  s_strengthened_lits : int;
      (** literals removed by self-subsuming strengthening *)
  s_eliminated_vars : int;  (** variables eliminated by BVE *)
  s_vivified_lits : int;    (** literals removed by vivification *)
  s_simp_passes : int;      (** inprocessing passes (0 with [~inprocess:false]) *)
  s_cert_unsat : int;
      (** UNSAT verdicts certified by the independent RUP checker
          (certified mode only; 0 otherwise) *)
  s_cert_lemmas : int;   (** solver derivations RUP-verified (proof size) *)
  s_cert_deletes : int;  (** proof deletion events applied *)
  s_cert_time : float;
      (** CPU seconds spent RUP-verifying (lemma checks + UNSAT
          certifications; cheap mirror/delete events are untimed) *)
}
(** Cumulative SAT statistics over every session the evaluation used;
    merging partial results sums them. *)

type reduction_stats = {
  r_universe : int;  (** faults in the (sampled) universe *)
  r_classes : int;   (** equivalence classes actually evaluated *)
  r_benign : int;    (** faults whose summary is benign (one shared class) *)
  r_cone_sum : int;  (** sum over classes of cone size, in segments *)
  r_cone_max : int;  (** largest cone *)
}
(** What the reduction layer saved: [r_universe - r_classes] engine runs
    avoided by collapsing, and an average cone of
    [r_cone_sum / r_classes] segments re-analyzed per class instead of
    all of them. *)

type pair_stats = {
  p_classes : int;      (** fault classes in the collapsed universe *)
  p_class_pairs : int;
      (** unordered class pairs examined, diagonal included:
          [p_classes * (p_classes + 1) / 2] *)
  p_diagonal : int;
      (** same-class pairs — answered by the class's single-fault verdict
          (equal summaries are idempotent in both engines) *)
  p_disjoint : int;
      (** non-interacting pairs — interaction regions disjoint and the
          mutual-support gate passed, so the pair verdict is the
          pointwise AND of the single-fault verdicts and the counts
          follow arithmetically; no fixpoint or SAT query *)
  p_stacked : int;
      (** interacting pairs — a cone delta on a secondary baseline
          (structural) or a cone-restricted SAT sweep of the merged
          summary (BMC) *)
  p_stacks : int;  (** secondary baselines actually built (structural) *)
}
(** How the exhaustive double-fault sweep dispatched the class pairs;
    [p_diagonal + p_disjoint + p_stacked = p_class_pairs]. *)

type result = {
  worst_segments : float;  (** min over faults of accessible-segment fraction *)
  avg_segments : float;    (** weighted average of accessible-segment fraction *)
  worst_bits : float;
  avg_bits : float;
  faults : int;            (** faults represented (class members included) *)
  total_weight : int;      (** sum of {!Ftrsn_fault.Fault.weight} *)
  steals : int;
      (** work items executed by a different domain than the static
          ceil-chunk split would have assigned (0 when [domains = 1]) *)
  solver : solver_stats option;
      (** [Some] iff the BMC engine produced the verdicts *)
  reduction : reduction_stats option;
      (** [Some] iff the reduction layer was used ([reduce = true]) *)
  lanes : Ftrsn_access.Engine.lane_stats option;
      (** [Some] iff the lane-parallel structural path produced the
          verdicts (structural engine, [reduce = true]): batches swept,
          lanes occupied, lanes settled at their cone seed, fast-path
          classes, fixpoint rounds.  Deterministic — a function of the
          class universe, not of scheduling. *)
  pairs : pair_stats option;
      (** [Some] iff the exhaustive reduced pair sweep produced the result *)
  pair_lanes : Ftrsn_access.Engine.lane_stats option;
      (** [Some] iff the exhaustive reduced structural pair sweep
          produced the result: one entry per secondary-baseline batch
          swept by {!Ftrsn_access.Engine.lane_batch_counts}, plus the
          fast-path partner deltas in [ls_fast].  Deterministic — a
          function of the class universe and the disjointness gates, not
          of scheduling. *)
}

exception Unsupported of string
(** A request outside an evaluator's semantic scope — today only
    transient ([Fault.Transient]) double faults, whose glitch pairs are
    not a set-wise union of summaries.  Typed (rather than
    [Invalid_argument]) so the service layer can map it to a stable
    error variant and exit code. *)

(** {2 Warm per-netlist state}

    The unit of reuse behind the service pool
    ({!Ftrsn_service.Pool}, which keys one [warm] per netlist): the
    expensive per-netlist artifacts — structural context, fault-free
    baseline, the full-universe class collapse and exhaustive-pair
    phase-1 probe tables (both keyed per fault model, so evaluations of
    different models never share a slot), and idle incremental BMC
    sessions — built once
    and shared by every subsequent evaluation of the same netlist.  All
    cached artifacts are deterministic functions of the netlist, so warm
    results are bit-identical to cold ones in every verdict-derived
    field; only [result.solver] differs (a reused session's statistics
    accumulate over every query it served).

    Thread-safe: construction and the session free list are guarded by a
    mutex, so concurrent evaluations of the same netlist share artifacts
    instead of racing to rebuild them. *)

type warm

val warm : Ftrsn_rsn.Netlist.t -> warm
(** An empty warm state; artifacts are built lazily on first use. *)

val warm_netlist : warm -> Ftrsn_rsn.Netlist.t

val warm_ctx : warm -> Ftrsn_access.Engine.ctx
(** The shared structural context (built on first call). *)

val warm_baseline : warm -> Ftrsn_access.Engine.baseline
(** The shared fault-free baseline (built on first call). *)

val warm_session : warm -> certify:bool -> Ftrsn_bmc.Bmc.Session.t
(** Checks an idle incremental session out of the free list (sessions
    created certified are only handed to [certify:true] callers), or
    creates one against the shared model.  The caller has exclusive use
    until {!warm_release}. *)

val warm_release : warm -> Ftrsn_bmc.Bmc.Session.t -> unit
(** Returns a checked-out session to the free list. *)

val warm_session_stats :
  warm -> (bool * Ftrsn_bmc.Bmc.Session.stats) list
(** [(certified, stats)] of each currently idle session — the service
    [stats] query's per-session solver health. *)

val evaluate :
  ?sample:int ->
  ?domains:int ->
  ?engine:[ `Structural | `Bmc ] ->
  ?reduce:bool ->
  ?certify:bool ->
  ?inprocess:bool ->
  ?model:Ftrsn_fault.Fault.model ->
  ?warm:warm ->
  Ftrsn_rsn.Netlist.t ->
  result
(** [evaluate net] runs the accessibility analysis over the full fault
    universe of [model] (default [Stuck], the paper's single stuck-at
    universe; see {!Ftrsn_fault.Fault.model} for the bridging,
    selection-control and transient universes — all of them flow through
    the same collapse / cone / lane reduction machinery and both
    engines).  [sample:k] keeps every [k]-th fault site
    (deterministically) to bound runtime on very large networks; the
    primary scan-port faults are always retained, so the worst case of
    port-dominated networks is exact.  Sampling is applied {e before}
    collapsing, so a sampled reduced run represents exactly the sampled
    universe.  [domains:n] spreads the work over [n] OCaml 5 domains
    through the work-stealing queue; results are bit-identical to the
    sequential run.  [engine] selects the verdict engine; with [`Bmc]
    each domain drives its own incremental SAT session and the result
    carries the cumulative {!solver_stats}.  [reduce] (default [true])
    enables equivalence collapsing and cone-of-influence deltas; the
    result fields are bit-identical either way, only [reduction] and the
    runtime differ.

    [certify:true] (BMC engine only; [Invalid_argument] otherwise) runs
    every session in certified mode: an independent RUP checker verifies
    the solver's DRUP proof stream and every UNSAT verdict's final
    clause inline ({!Ftrsn_bmc.Bmc.Session.create}), raising
    [Ftrsn_bmc.Bmc.Session.Certification_failed] on any rejection; the
    proof size and checking time land in the [s_cert_*] fields of
    [result.solver].

    [inprocess:false] (BMC engine; ablation) disables SAT inprocessing on
    every session the evaluation checks out — the sessions' solvers run
    without subsumption / vivification / variable elimination, and the
    [s_simp_*] / [s_subsumed] counters stay zero.  Default on.  Verdicts
    and metric values are identical either way; only speed and the
    volatile solver counters change.

    @raise Invalid_argument ["Metric.evaluate: empty fault list"] when the
    model's universe is empty (a network without shadow bits has no
    transient faults), whatever the engine, reduction or domain count. *)

val evaluate_pairs :
  ?sample:int ->
  ?fault_sample:int ->
  ?domains:int ->
  ?engine:[ `Structural | `Bmc ] ->
  ?exhaustive:bool ->
  ?reduce:bool ->
  ?certify:bool ->
  ?inprocess:bool ->
  ?model:Ftrsn_fault.Fault.model ->
  ?warm:warm ->
  Ftrsn_rsn.Netlist.t ->
  result
(** Double-fault study (beyond the paper's single-fault scope): evaluates
    accessibility under PAIRS of simultaneous faults of the given
    [model] (default [Stuck]; [Transient] raises {!Unsupported} —
    two glitches are not the set-wise union of their summaries, which
    the pair factorization rests on), each pair
    weighted by the product of its faults' weights.

    With [exhaustive:true] (and the default [reduce:true]) the FULL pair
    universe is evaluated exactly: faults are collapsed into semantic
    classes as in {!evaluate} and the sweep runs over unordered class
    pairs — diagonal pairs reuse the class's single-fault verdict;
    non-interacting pairs (disjoint interaction regions, no
    mutual-support hazard — see {!Ftrsn_access.Engine.probe}) are
    answered arithmetically from the two single-fault verdicts, whose
    pointwise AND the pair verdict provably equals; only the remaining
    interacting pairs run an engine.  On the structural engine the
    interacting pairs are lane-parallel: pairs are grouped by first
    class, each group's secondary baseline is built once (memoized in an
    LRU-bounded stack cache, shared with the warm state's phase-1 pair
    tables on full sweeps) and up to {!Ftrsn_access.Engine.lane_width}
    second classes sweep against it per fixpoint
    ({!Ftrsn_access.Engine.lane_batch_counts}) — the single-fault
    sweep's scheduler, with the secondary baseline as the row's base.
    The BMC engine runs a cone-restricted SAT sweep of each merged
    summary.  The result is bit-identical to the brute pair enumeration
    ([reduce:false]) in every field, sequentially and for any [domains];
    [result.pairs] reports the dispatch statistics and
    [result.pair_lanes] the stacked-batch lane statistics.

    Without [exhaustive] the quadratic universe is subsampled: [sample]
    (default 37) keeps every k-th pair of a deterministic enumeration —
    the fallback for networks whose fault universe makes even the
    class-pair count intractable.  [fault_sample] additionally thins the
    fault universe itself (as [evaluate ~sample]) before pairing, in
    either mode.

    Work is distributed over [domains] at pair granularity (brute) or,
    exhaustively, lane-batch granularity by the work-stealing queue:
    the discovery pass (gates + pure counting) steals first-class rows,
    then each secondary-baseline lane batch is one steal unit — so
    stealing never shreds a batch, and a heavy row's batches spread
    across domains instead of serializing on one.  Pair costs are
    highly skewed (port and trunk faults force whole-graph
    re-analysis), which used to leave the statically-chunked first
    domain the straggler.

    [certify] behaves as in {!evaluate} (BMC engine only). *)

val steal_map :
  domains:int ->
  'a array ->
  init:(int -> 'b) ->
  step:('b -> 'a -> unit) ->
  finish:('b -> 'c) ->
  ('c * int) list
(** The work-stealing scheduler underlying every evaluator: one shared
    atomic cursor over the item array; each of [domains] domains builds
    its private state with [init domain], folds claimed items into it
    with [step] and extracts a partial with [finish].  Returns one
    [(partial, steals)] per domain, where [steals] counts items executed
    by a different domain than a static ceil-chunk split would have
    assigned (always 0 when [domains <= 1], which runs inline without
    spawning).  Exact whenever the fold is commutative — the evaluators
    use integer accumulators so their results are bit-identical to the
    sequential fold. *)

val pp : Format.formatter -> result -> unit
