(** Scan-segment accessibility in fault-free and faulty RSNs (paper
    contribution 1: "a model and an algorithm to compute scan paths in
    faulty RSNs").

    The engine decides, for every scan segment [s] and a given stuck-at
    fault, whether [s] is still {e writable} (a pattern can be shifted into
    [s] and latched) and {e readable} (the captured contents of [s] can be
    shifted out unscathed), using only reachable configurations:

    - a configuration change can only be performed through segments that
      are themselves writable, so multiplexer steering is computed as a
      least fixpoint starting from the reset configuration;
    - data faults partition the path condition: writing [s] needs a
      corruption-free prefix (scan-in up to and including [s]) and a
      shiftable suffix, reading [s] the converse;
    - a select line stuck at 0 makes a segment non-shifting, which blocks
      any path through it; stuck-at-1 select faults are recoverable (the
      segment can always be kept on the active path) and treated as
      benign;
    - TMR-protected address replicas are masked; primary scan-port faults
      are masked iff the netlist has duplicated ports.

    [accessible s = writable s && readable s]. *)

type ctx
(** Preprocessed netlist information shared across fault analyses. *)

val make_ctx : Ftrsn_rsn.Netlist.t -> ctx

val netlist : ctx -> Ftrsn_rsn.Netlist.t

val out_edges : ctx -> int -> int array
(** [out_edges ctx v] lists the edges leaving dataflow vertex [v] (edge
    indices of {!edge_routes}) in the order every traversal visits them:
    descending index.  A copy of the context's flat adjacency row. *)

val in_edges : ctx -> int -> int array
(** The edges entering [v], likewise. *)

type verdict = {
  writable : bool array;    (** per segment *)
  readable : bool array;    (** per segment *)
  accessible : bool array;  (** per segment: writable && readable *)
}

val port_masked : ctx -> int -> bool
(** Whether faults in the given mux are bypassed by the duplicated scan
    ports (§III-E-4): the mux feeds the scan-out or a direct successor of
    the scan-in, and the netlist has [dual_ports].  Exposed so that the
    BMC engine applies the identical masking rule. *)

val analyze : ctx -> Ftrsn_fault.Fault.t option -> verdict
(** [analyze ctx fault] computes the per-segment verdicts under the given
    fault ([None] = fault-free). *)

val analyze_multi : ctx -> Ftrsn_fault.Fault.t list -> verdict
(** Accessibility under a SET of simultaneous stuck-at faults — beyond the
    paper's single-fault scope; used for the double-fault experiments. *)

val accessible_count : verdict -> int
val accessible_bits : ctx -> verdict -> int

(** {2 Fault-free baseline and cone-of-influence deltas}

    Evaluating the whole fault universe repeats almost identical work per
    fault: most stuck-ats disturb only a small cone of the dataflow graph.
    {!baseline} packages the fault-free verdict together with static
    reachability and steering-dependency tables; a delta on the
    fault-free stacked state ({!of_baseline}, {!analyze_delta_on}) then
    re-runs the writability fixpoint and the final traversals only for
    segments inside the fault's cone and splices the fault-free verdict
    for the rest.  The result is bit-identical to {!analyze} — outside the
    cone the faulty least fixpoint provably coincides with the fault-free
    one — it is just computed faster. *)

type baseline
(** Fault-free verdict plus per-vertex reach/co-reach bitsets and
    per-segment / per-mux edge dependency tables for one {!ctx}.
    Immutable once built; safe to share across domains. *)

val baseline : ctx -> baseline

val baseline_verdict : baseline -> verdict
(** The fault-free verdict ({!analyze}[ ctx None]). *)

val edge_routes : ctx -> (int * int * (int * int) list) array
(** The dataflow edges as the engine indexes them: per edge index, its
    source and destination vertex (0 = scan-in, 1 = scan-out, [2 + i] =
    segment [i]) and its mux route ((mux, input) pairs, consumer first). *)

val coarse_cone :
  ctx -> baseline -> Ftrsn_fault.Fault.summary -> Ftrsn_topo.Bitset.t * int list
(** The static cone every delta and lane sweep restricts its fixpoint to:
    the dataflow vertices reached from the summary's damage through the
    reach/co-reach tables, closed under the writability cascade (a host
    segment in the cone brings in the cones of the edges its
    not-reset-matching steering bits drive), and the affected edges — the
    seed edges of the damage plus those host edges of every host in the
    cone — each listed once.  A sound over-approximation under any base
    state.  The cascade closure is precomputed per vertex in {!baseline}
    (DESIGN.md §19), so this is a union of bitsets. *)

val cone : ctx -> baseline -> Ftrsn_fault.Fault.summary -> Ftrsn_topo.Bitset.t option
(** The fault's cone of influence as a set of segment indices: an
    over-approximation of the segments whose verdict (or writability) can
    differ from the fault-free baseline.  [None] for a benign summary
    (empty cone, verdict = baseline). *)

type probe = {
  pr_verdict : verdict;
      (** the class verdict, = [analyze_delta_on ctx (of_baseline base)]'s
          (may share arrays with the baseline verdict; treat as
          immutable) *)
  pr_cone : Ftrsn_topo.Bitset.t;
      (** segment indices whose verdict differs from the fault-free
          baseline — EXACT (the verdict diff) unless [pr_coarse], then
          the static reach/co-reach over-approximation *)
  pr_region : Ftrsn_topo.Bitset.t;
      (** dataflow-vertex interaction region: endpoints of every live
          edge the fault killed, corrupted, or pinned into its required
          steering value, live neighborhoods of blocked/corrupting
          segments, and the surviving boundary of every access traversal
          the fault disturbed.  Empty for purely local kill_write /
          kill_read summaries; full when [pr_coarse]. *)
  pr_fragile : Ftrsn_topo.Bitset.t;
      (** segments that stay writable under the fault but lost their
          canonical baseline write certificate (their writability rests
          on a re-routed derivation).  Empty for purely local kill
          summaries; full when [pr_coarse]. *)
  pr_supp : Ftrsn_topo.Bitset.t;
      (** vertex footprint of the founded re-route certificates backing
          the fragile segments' writability under this fault.  Empty
          when nothing is fragile; full when [pr_coarse]. *)
  pr_supp_edges : Ftrsn_topo.Bitset.t;
      (** edge footprint of the same re-route certificates (indices into
          the dataflow edge array).  Empty when nothing is fragile; full
          when [pr_coarse]. *)
  pr_rhosts : Ftrsn_topo.Bitset.t;
      (** steering hosts (segments) the re-route certificates rest on.
          Empty when nothing is fragile; full when [pr_coarse]. *)
  pr_dead_edges : Ftrsn_topo.Bitset.t;
      (** baseline-live edges this fault kills (unsteerable under the
          faulty fixpoint) or corrupts.  Subset of the edge endpoints
          folded into [pr_region]; full when [pr_coarse]. *)
  pr_dmg : Ftrsn_topo.Bitset.t;
      (** dataflow vertices the fault makes non-shifting or corrupting
          (hard blocks and data-corrupting segments).  Subset of
          [pr_region]; full when [pr_coarse]. *)
  pr_coarse : bool;
      (** the summary defeated the region analysis (dead scan ports,
          steering-improving pins on unwritable hosts, cyclic dataflow) *)
}
(** A fault class's footprint for the double-fault factorization.  Two
    summaries compose POINTWISE — the verdict under both faults is the
    bitwise AND of the two single-fault verdicts — when (a) their
    regions are DISJOINT, (b) each summary's re-route certificates
    avoid the other's damage ([pr_supp_edges] disjoint from the other's
    [pr_dead_edges], [pr_supp] disjoint from the other's [pr_dmg]), and
    (c) each summary's [pr_rhosts] avoids both the other's [pr_fragile]
    set and the other's writability losses.  Conditions (b)+(c) rule
    out mutual support: two faults that each destroy the other's only
    founded writability derivation can deflate the combined least
    fixpoint without any shared damage region; a fragile segment's
    re-route certificate provably survives the partner when the
    partner's damage (killed/corrupted live edges, blocked/corrupting
    vertices) misses its footprint and every steering host it rests on
    keeps both its writability and its canonical certificate.  Note (b)
    checks the partner's exact damage, not its whole region: the region
    also contains undamaged rim vertices that a re-route may freely
    traverse.  Under (a)-(c) the pair's accessibility counts follow
    from the single-fault results (subtract the partner's
    lost-but-still-accessible segments) and no pair fixpoint is needed.
    NOT a splice: the two faults may well taint common segments (their
    cones need not be disjoint). *)

val probe : ctx -> baseline -> Ftrsn_fault.Fault.summary -> probe
(** The verdict, tight cone and interaction region of a summary.
    [pr_cone] agrees with {!cone} (modulo [None] vs empty). *)

(** {2 Lane-parallel batch sweeps}

    A cone delta still pays one fixpoint per class.  The lane sweep
    transposes the computation: up to {!lane_width} classes share ONE
    fixpoint — every per-vertex / per-edge predicate becomes a machine
    word whose bit L answers lane L, and word-level AND/OR/ANDN replace
    per-class boolean evaluation.  Each lane's writability is seeded
    with the baseline minus the lane's cone, so the sweep composes with
    the cone reduction; lanes whose seed is already settled never
    promote.  The per-lane verdicts are bit-identical to
    {!analyze_delta_on}'s, hence to {!analyze}'s. *)

val lane_width : int
(** Classes per batch: [Ftrsn_topo.Lanes.width] = [Sys.int_size] (63 on
    64-bit OCaml — the native int drops one tag bit). *)

type lane_stats = {
  ls_batches : int;  (** batch sweeps run *)
  ls_lanes : int;    (** lanes occupied across all batches *)
  ls_masked : int;   (** lanes settled at their cone seed (no promotion) *)
  ls_fast : int;     (** classes answered by the O(1) fast paths instead *)
  ls_rounds : int;   (** fixpoint rounds across all batches *)
}

val lane_stats_zero : lane_stats
val lane_stats_add : lane_stats -> lane_stats -> lane_stats

val lane_plan :
  baseline -> Ftrsn_fault.Fault.summary array -> int list * int array list
(** [lane_plan base sms] splits the summaries into the fast indices
    (input order) — classes {!delta_counts} answers without any traversal
    (benign, pure kill-read, local kill-write) and glitch summaries, which
    stay scalar — and the lane batches: non-fast indices grouped by
    {!Ftrsn_fault.Fault.summary_shape} — dead-port classes, whose cones
    are the whole network, batch separately — then chunked
    {!lane_width} wide in input order.  Deterministic. *)

(** {2 Stacked secondary baselines (double-fault deltas)}

    The exhaustive double-fault sweep groups pairs by first fault class:
    {!stack} computes that class's faulty state once — verdict plus the
    per-edge steering/corruption caches, the exact analogue of
    {!baseline} for a faulty base — and {!analyze_delta_on} runs the
    second summary's cone-restricted delta on top, so each interacting
    pair costs one small fixpoint instead of a full {!analyze_multi}. *)

type stacked
(** A secondary baseline: the exact state of the network under one
    summarized fault, ready to receive further deltas.  Immutable once
    built; safe to share across domains. *)

val stack : ctx -> baseline -> Ftrsn_fault.Fault.summary -> stacked
(** [stack ctx base sm] is the secondary baseline under [sm]
    (the fault-free stacked state when [sm] is benign). *)

val of_baseline : baseline -> stacked
(** The fault-free stacked state: a delta on it is the verdict under the
    delta summary alone, bit-identical to [analyze ctx (Some f)] for any
    fault [f] with that summary. *)

val analyze_delta_on :
  ctx -> stacked -> Ftrsn_fault.Fault.summary -> verdict * int
(** [analyze_delta_on ctx stk sm] is the verdict under the UNION of the
    stacked summary and [sm], bit-identical to [analyze_multi] over both
    faults, with the delta's cone size ([0] for a benign delta).  The
    returned verdict may share arrays with the stacked state; treat it
    as immutable. *)

val analyze_lane_batch_on :
  ctx ->
  stacked ->
  Ftrsn_fault.Fault.summary array ->
  (verdict * int) array * lane_stats
(** One batch of [1 .. lane_width] non-fast, non-glitch summaries swept
    against a stacked (possibly faulty) base in one shared fixpoint, read
    out as per-summary verdicts — the verdict view of the kernel
    {!lane_batch_counts} counts from.  The stacked summary's effect masks
    are folded into every lane, and each lane's writability seed is the
    stacked writable set minus the cone of the UNION of the stacked and
    delta summaries — so per summary the
    verdict and cone size are bit-identical to {!analyze_delta_on} on
    the same summary.  Raises [Invalid_argument] on an empty or oversized
    batch and on a glitchy (transient) stacked base or delta: those stay
    scalar. *)

(** {2 Allocation-free counting sweeps} *)

type lane_ws
(** A lane-batch workspace: every per-vertex, per-edge and per-segment
    array one lane sweep needs, sized for one {!ctx}.  Allocate one per
    worker and reuse it for every batch; it is mutable scratch, never to
    be shared between domains or threads. *)

val lane_workspace : ctx -> lane_ws

val lane_batch_counts :
  ctx ->
  lane_ws ->
  stacked ->
  Ftrsn_fault.Fault.summary array ->
  (int -> int -> int -> int -> unit) ->
  lane_stats
(** [lane_batch_counts ctx ws stk sms f] sweeps one batch exactly like
    {!analyze_lane_batch_on} and calls [f l segs bits cone] for every
    lane [l]: the accessible segments and bits of the lane's verdict and
    its cone size, read straight from the lane words — no verdict array
    is built.  Equal to {!accessible_count}/{!accessible_bits} of
    {!analyze_delta_on} on [sms.(l)].  [ws] must come from
    {!lane_workspace} on the same [ctx]; the batch rules and
    [Invalid_argument]s are {!analyze_lane_batch_on}'s, plus one for a
    workspace of another context. *)

val delta_counts : ctx -> stacked -> Ftrsn_fault.Fault.summary -> int * int * int
(** [(segs, bits, cone)] of {!analyze_delta_on}: accessible segments and
    bits of the verdict, and the cone size.  The benign and kill-only
    fast paths are answered from the stacked verdict's counts without
    copying any array. *)

type witness = {
  w_vertices : int list;
      (** dataflow vertices from scan-in to scan-out, through the target *)
  w_routes : (int * int) list list;
      (** per edge of the path, the chosen steering route: (mux, input)
          pairs that must be configured to sensitize the interconnect *)
}

val access_witness : ctx -> Ftrsn_fault.Fault.t option -> int -> witness option
(** [access_witness ctx fault s] is, if [s] is writable under the fault, a
    minimum-shift-length scan path through [s] with a corruption-free
    prefix and steerable muxes, together with the mux route chosen for each
    hop — the witness used for pattern retargeting in the faulty RSN. *)

val read_witness : ctx -> Ftrsn_fault.Fault.t option -> int -> witness option
(** The read counterpart of {!access_witness}: a scan path through the
    target whose suffix (target to scan-out) is corruption-free and
    shiftable, so that captured contents can be observed unscathed. *)
