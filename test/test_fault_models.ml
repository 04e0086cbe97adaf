(* Tests for the alternative fault models (bridging, selection-control,
   transient/SEU) behind the Fault.summary abstraction: universe sanity,
   brute-force per-fault oracles against both engines, bit-identity of
   the collapsed / cone-delta / lane-batched reduced paths with the
   naive enumeration, certified-mode differentials, and the pair-sweep
   contract — the PR 2–4 methodology re-run per model. *)

module Netlist = Ftrsn_rsn.Netlist
module Sib = Ftrsn_rsn.Sib
module Fault = Ftrsn_fault.Fault
module Engine = Ftrsn_access.Engine
module Bmc = Ftrsn_bmc.Bmc
module Metric = Ftrsn_core.Metric
module Pipeline = Ftrsn_core.Pipeline
module Itc02 = Ftrsn_itc02.Itc02

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* Properties in this file seed through the file-derived stream so they
   can never collide with (and shift) streams of the older test files. *)
let seed_file = "test_fault_models"

let small_sib () =
  Sib.build ~name:"small"
    [
      Sib.Sib
        {
          name = "mod1";
          inner = [ Sib.leaf ~name:"c1" ~len:3; Sib.leaf ~name:"c2" ~len:2 ];
        };
      Sib.Sib { name = "mod2"; inner = [ Sib.leaf ~name:"c3" ~len:4 ] };
    ]

let u226 () = Itc02.rsn (Option.get (Itc02.find "u226"))

(* Verdict-derived fields of a metric result: everything except the
   volatile statistics (solver counters, steals, reduction/lane shapes),
   which legitimately differ between evaluation strategies. *)
let key (r : Metric.result) =
  ( r.Metric.worst_segments,
    r.Metric.avg_segments,
    r.Metric.worst_bits,
    r.Metric.avg_bits,
    r.Metric.faults,
    r.Metric.total_weight )

let check_same_result label a b =
  if key a <> key b then
    Alcotest.fail
      (Printf.sprintf "%s:\n  left  = %s\n  right = %s" label
         (Format.asprintf "%a" Metric.pp a)
         (Format.asprintf "%a" Metric.pp b))

(* ------------------------------------------------------------------ *)
(* Universe sanity per model                                           *)

let test_bridge_universe () =
  let net = small_sib () in
  let adj = Fault.bridge_adjacencies net in
  check bool_t "adjacencies exist" true (adj <> []);
  List.iter
    (fun (a, b) ->
      check bool_t "canonical a < b" true (a < b);
      check bool_t "segment indices" true
        (a >= 0 && b < Netlist.num_segments net))
    adj;
  check int_t "deduplicated" (List.length adj)
    (List.length (List.sort_uniq compare adj));
  let u = Fault.universe ~model:Fault.Bridge net in
  check int_t "two dominance variants per adjacency" (2 * List.length adj)
    (List.length u);
  List.iter
    (fun (f : Fault.t) ->
      match f.Fault.site with
      | Fault.Bridge_segs _ -> ()
      | _ -> Alcotest.fail "non-bridge site in bridge universe")
    u

let test_select_universe () =
  let net = small_sib () in
  let u = Fault.universe ~model:Fault.Select net in
  check bool_t "non-empty" true (u <> []);
  let has_tmr net =
    Array.exists (fun (m : Netlist.mux) -> m.Netlist.mux_tmr) net.Netlist.muxes
  in
  let voters net =
    List.filter
      (fun (f : Fault.t) ->
        match f.Fault.site with Fault.Mux_voter _ -> true | _ -> false)
      (Fault.universe ~model:Fault.Select net)
  in
  check bool_t "no voter faults without TMR muxes" true
    (has_tmr net || voters net = []);
  (* The fault-tolerant synthesis triplicates mux addressing, so its
     select universe gains voter faults — all masked under single fault
     (the other two replicas out-vote the broken voter). *)
  let ft = (Pipeline.synthesize net).Pipeline.ft in
  if has_tmr ft then begin
    let vs = voters ft in
    check bool_t "FT net has voter faults" true (vs <> []);
    List.iter
      (fun f ->
        check bool_t
          (Printf.sprintf "voter fault %s is masked" (Fault.to_string ft f))
          true
          (Fault.summary_benign (Fault.summarize ft f)))
      vs
  end

let test_transient_universe () =
  List.iter
    (fun net ->
      let u = Fault.universe ~model:Fault.Transient net in
      let shadow_bits =
        Array.fold_left
          (fun acc (s : Netlist.segment) -> acc + s.Netlist.seg_shadow)
          0 net.Netlist.segs
      in
      check int_t
        (net.Netlist.net_name ^ ": one glitch per shadow bit")
        shadow_bits (List.length u);
      List.iter
        (fun (f : Fault.t) ->
          match f.Fault.site with
          | Fault.Glitch_shadow (i, b) ->
              check bool_t "upset flips away from reset" true
                (f.Fault.stuck = not net.Netlist.segs.(i).Netlist.seg_reset.(b))
          | _ -> Alcotest.fail "non-glitch site in transient universe")
        u)
    [ small_sib (); u226 () ]

(* ------------------------------------------------------------------ *)
(* Brute per-fault oracle: for every fault of every model, a fresh
   structural context and a fresh one-shot BMC instance (no collapse,
   no cone, no lane, no session reuse) must return the same per-segment
   verdicts.  This is the model-generalized form of PR 4's agreement
   sweep, with the oracle deliberately rebuilt per fault. *)

let engines_agree_brutally ?(every = 1) net model =
  let faults =
    List.filteri (fun i _ -> i mod every = 0) (Fault.universe ~model net)
  in
  List.iter
    (fun fault ->
      (* fresh everything: the oracle must not share any state *)
      let v = Engine.analyze (Engine.make_ctx net) (Some fault) in
      let t = Bmc.create net in
      for s = 0 to Netlist.num_segments net - 1 do
        let bw =
          match Bmc.check_write t ~fault ~target:s () with
          | Bmc.Accessible _ -> true
          | Bmc.Inaccessible -> false
        in
        if bw <> v.Engine.writable.(s) then
          Alcotest.fail
            (Printf.sprintf "%s/%s: writable(%s) engine=%b bmc=%b under %s"
               net.Netlist.net_name
               (Fault.model_to_string model)
               (Netlist.segment_name net s)
               v.Engine.writable.(s) bw (Fault.to_string net fault));
        let br =
          match Bmc.check_read t ~fault ~target:s () with
          | Bmc.Accessible _ -> true
          | Bmc.Inaccessible -> false
        in
        if br <> v.Engine.readable.(s) then
          Alcotest.fail
            (Printf.sprintf "%s/%s: readable(%s) engine=%b bmc=%b under %s"
               net.Netlist.net_name
               (Fault.model_to_string model)
               (Netlist.segment_name net s)
               v.Engine.readable.(s) br (Fault.to_string net fault))
      done)
    faults

let test_engines_agree_small () =
  List.iter
    (fun model -> engines_agree_brutally (small_sib ()) model)
    [ Fault.Bridge; Fault.Select; Fault.Transient ]

let test_engines_agree_small_ft () =
  let ft = (Pipeline.synthesize (small_sib ())).Pipeline.ft in
  List.iter
    (fun model -> engines_agree_brutally ~every:2 ft model)
    [ Fault.Bridge; Fault.Select; Fault.Transient ]

(* ------------------------------------------------------------------ *)
(* Reduced paths = brute enumeration, per model.  The reduced result
   (collapse + cone deltas + lane batching, sequential and 2-domain,
   both engines) must be bit-identical to the naive per-fault sweep in
   every verdict-derived field. *)

(* A model can have an empty universe on a given network (no shadow
   bits: no transient faults).  There is no metric to compare then:
   every evaluator must raise the documented error instead. *)
let empty_universe_raises ?sample net model =
  let name which =
    Printf.sprintf "%s/%s: %s on the empty universe" net.Netlist.net_name
      (Fault.model_to_string model)
      which
  in
  List.iter
    (fun (which, run) ->
      Alcotest.check_raises (name which)
        (Invalid_argument "Metric.evaluate: empty fault list")
        (fun () -> ignore (run ())))
    [
      ("brute structural", fun () -> Metric.evaluate ?sample ~model ~reduce:false net);
      ("reduced structural", fun () -> Metric.evaluate ?sample ~model net);
      ("2-domain", fun () -> Metric.evaluate ?sample ~model ~domains:2 net);
      ("reduced BMC", fun () -> Metric.evaluate ?sample ~model ~engine:`Bmc net);
      ( "brute BMC",
        fun () -> Metric.evaluate ?sample ~model ~engine:`Bmc ~reduce:false net );
    ]

let reduced_equals_brute ?sample net model =
  if Fault.universe ~model net = [] then empty_universe_raises ?sample net model
  else
  let brute = Metric.evaluate ?sample ~model ~reduce:false net in
  let reduced = Metric.evaluate ?sample ~model net in
  let name which =
    Printf.sprintf "%s/%s: %s = brute" net.Netlist.net_name
      (Fault.model_to_string model)
      which
  in
  check_same_result (name "reduced structural") brute reduced;
  check_same_result (name "2-domain")
    brute
    (Metric.evaluate ?sample ~model ~domains:2 net);
  check_same_result (name "reduced BMC")
    brute
    (Metric.evaluate ?sample ~model ~engine:`Bmc net);
  check_same_result (name "brute BMC")
    brute
    (Metric.evaluate ?sample ~model ~engine:`Bmc ~reduce:false net)

let test_reduced_equals_brute_small () =
  List.iter (fun model -> reduced_equals_brute (small_sib ()) model)
    Fault.all_models

let test_reduced_equals_brute_small_ft () =
  let ft = (Pipeline.synthesize (small_sib ())).Pipeline.ft in
  List.iter (fun model -> reduced_equals_brute ft model) Fault.all_models

let test_u226_slice () =
  (* A thinned slice of the paper's smallest SoC, per model: brute
     structural vs reduced (seq + 2 domains) vs BMC.  Sampling is
     applied before collapsing, so each comparison is over exactly the
     same sampled universe. *)
  let net = u226 () in
  List.iter
    (fun model ->
      let sample =
        match model with
        | Fault.Stuck -> 40
        | Fault.Bridge -> 8
        | Fault.Select -> 16
        | Fault.Transient -> 2
      in
      reduced_equals_brute ~sample net model)
    Fault.all_models

(* Transient-specific semantics: a single upset on this SIB tree is
   always recoverable — the glitched configuration bit stays rewritable
   and its host segment stays reachable, so a reconfiguration sequence
   restores full access.  The worst case over the transient universe is
   therefore no loss at all. *)
let test_transient_recoverable () =
  let r = Metric.evaluate ~model:Fault.Transient (small_sib ()) in
  check bool_t "worst segments = 1.0" true (r.Metric.worst_segments = 1.0);
  check bool_t "worst bits = 1.0" true (r.Metric.worst_bits = 1.0)

(* ------------------------------------------------------------------ *)
(* Random-net properties (file-derived seed stream)                    *)

let prop_models_reduced_equals_brute =
  QCheck.Test.make
    ~name:"per model: reduced/lane/parallel/BMC metric = brute (random nets)"
    ~count:4
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let net = Ftrsn_rsn.Random_net.generate ~seed ~segments:6 () in
      List.iter (fun model -> reduced_equals_brute net model)
        Fault.all_models;
      true)

(* Pinned regression for the property above: this random net has no
   shadow bits, so its transient universe is empty. *)
let test_models_empty_universe () =
  let net = Ftrsn_rsn.Random_net.generate ~seed:277396 ~segments:6 () in
  check bool_t "seed 277396: empty transient universe" true
    (Fault.universe ~model:Fault.Transient net = []);
  List.iter (fun model -> reduced_equals_brute net model) Fault.all_models

let prop_models_engines_agree =
  QCheck.Test.make
    ~name:"per model: structural = BMC per-fault verdicts (random nets)"
    ~count:4
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let net = Ftrsn_rsn.Random_net.generate ~seed ~segments:6 () in
      List.iter
        (fun model -> engines_agree_brutally ~every:3 net model)
        [ Fault.Bridge; Fault.Select; Fault.Transient ];
      true)

(* ------------------------------------------------------------------ *)
(* Certified mode per model                                            *)

let verdict_str = function
  | Bmc.Accessible n -> Printf.sprintf "accessible@%d" n
  | Bmc.Inaccessible -> "inaccessible"

let pi_stuck = { Fault.site = Fault.Primary_in; stuck = true }

(* Certified session = plain session over a model's universe; every
   UNSAT verdict's DRUP proof must pass the independent RUP checker.
   The sealing PI fault rides along to guarantee UNSAT verdicts exist on
   single-port networks even when the model's own faults are all
   recoverable (transient); on dual-port networks it is masked, and an
   inaccessible verdict may be decided statically (a kill_read/kill_write
   shortcut never reaches the solver, so it certifies nothing) — the
   counter assertions are therefore opt-out ([counters:false]) for the
   random-net property, whose real content is the verdict differential
   plus the no-rejected-proof guarantee ([Certification_failed] would
   abort the run). *)
let certified_model_agrees ?(every = 1) ?(counters = true) net model =
  let sess = Bmc.Session.create ~certify:true (Bmc.create net) in
  let plain = Bmc.Session.create (Bmc.create net) in
  let faults =
    pi_stuck
    :: List.filteri (fun i _ -> i mod every = 0) (Fault.universe ~model net)
  in
  for target = 0 to Netlist.num_segments net - 1 do
    let cv = Bmc.Session.check_faults sess ~target faults in
    let pv = Bmc.Session.check_faults plain ~target faults in
    List.iteri
      (fun i (c, p) ->
        if c <> p then
          Alcotest.fail
            (Printf.sprintf "%s/%s: target %d fault %d: certified=%s plain=%s"
               net.Netlist.net_name
               (Fault.model_to_string model)
               target i (verdict_str c) (verdict_str p)))
      (List.combine cv pv)
  done;
  match (Bmc.Session.stats sess).Bmc.Session.cert with
  | None -> Alcotest.fail "certified session must report cert stats"
  | Some c ->
      if counters then begin
        check bool_t "UNSAT verdicts were certified" true
          (c.Bmc.Session.cert_unsat > 0);
        check bool_t "proof lemmas were verified" true
          (c.Bmc.Session.cert_lemmas > 0)
      end

let test_certified_models_small () =
  List.iter
    (fun model -> certified_model_agrees (small_sib ()) model)
    [ Fault.Bridge; Fault.Select; Fault.Transient ]

let test_certified_models_u226 () =
  (* Certified = plain differential on a real ITC'02 SoC, through the
     full reduced metric path (collapse + cone-restricted certified SAT
     sweeps).  Thinned per model to keep the proof volume bounded. *)
  let net = u226 () in
  List.iter
    (fun model ->
      let sample =
        match model with
        | Fault.Stuck -> 80
        | Fault.Bridge -> 16
        | Fault.Select -> 32
        | Fault.Transient -> 4
      in
      let plain = Metric.evaluate ~sample ~model ~engine:`Bmc net in
      let certified =
        Metric.evaluate ~sample ~model ~engine:`Bmc ~certify:true net
      in
      check_same_result
        (Printf.sprintf "u226/%s: certified = plain"
           (Fault.model_to_string model))
        plain certified;
      match certified.Metric.solver with
      | None -> Alcotest.fail "BMC result must carry solver stats"
      | Some s ->
          check bool_t "certification happened" true
            (s.Metric.s_cert_unsat > 0 && s.Metric.s_cert_lemmas > 0))
    Fault.all_models

let prop_certified_models_random =
  QCheck.Test.make
    ~name:"per model: certified = plain session on random nets"
    ~count:3
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let net = Ftrsn_rsn.Random_net.generate ~seed ~segments:5 () in
      List.iter
        (fun model -> certified_model_agrees ~every:3 ~counters:false net model)
        [ Fault.Bridge; Fault.Select; Fault.Transient ];
      true)

(* ------------------------------------------------------------------ *)
(* Pair sweeps                                                         *)

let test_pairs_models () =
  let net = small_sib () in
  List.iter
    (fun model ->
      let name leg =
        Printf.sprintf "pairs %s: %s = brute" (Fault.model_to_string model) leg
      in
      let brute =
        Metric.evaluate_pairs ~exhaustive:true ~reduce:false ~model net
      in
      let reduced = Metric.evaluate_pairs ~exhaustive:true ~model net in
      check_same_result (name "lane-reduced") brute reduced;
      (* the parallel scheduler reproduces the same bits per model *)
      let par = Metric.evaluate_pairs ~exhaustive:true ~domains:3 ~model net in
      check_same_result (name "lane-reduced, 3 domains") brute par)
    [ Fault.Bridge; Fault.Select ]

let test_pairs_transient_rejected () =
  (* Two glitches are not the set-wise union of their summaries, which
     the pair factorization rests on: the model is rejected up front
     with the typed error (service maps it to the [unsupported]
     response, exit 5) rather than silently mis-evaluated. *)
  match Metric.evaluate_pairs ~model:Fault.Transient (small_sib ()) with
  | exception Metric.Unsupported _ -> ()
  | _ -> Alcotest.fail "transient pairs must raise Metric.Unsupported"

let suite =
  [
    Alcotest.test_case "bridge universe sanity" `Quick test_bridge_universe;
    Alcotest.test_case "select universe sanity (voters masked)" `Quick
      test_select_universe;
    Alcotest.test_case "transient universe sanity" `Quick
      test_transient_universe;
    Alcotest.test_case "brute oracle: engines agree (small SIB)" `Slow
      test_engines_agree_small;
    Alcotest.test_case "brute oracle: engines agree (small SIB, FT)" `Slow
      test_engines_agree_small_ft;
    Alcotest.test_case "reduced = brute (small SIB, all models)" `Quick
      test_reduced_equals_brute_small;
    Alcotest.test_case "reduced = brute (small SIB FT, all models)" `Slow
      test_reduced_equals_brute_small_ft;
    Alcotest.test_case "reduced = brute (u226 slice, all models)" `Slow
      test_u226_slice;
    Alcotest.test_case "transient faults recoverable on SIB tree" `Quick
      test_transient_recoverable;
    Testseed.to_alcotest_in ~file:seed_file prop_models_reduced_equals_brute;
    Alcotest.test_case "per model: empty universe raises (seed 277396)" `Quick
      test_models_empty_universe;
    Testseed.to_alcotest_in ~file:seed_file prop_models_engines_agree;
    Alcotest.test_case "certified = plain per model (small SIB)" `Slow
      test_certified_models_small;
    Alcotest.test_case "certified = plain per model (u226, reduced path)"
      `Slow test_certified_models_u226;
    Testseed.to_alcotest_in ~file:seed_file prop_certified_models_random;
    Alcotest.test_case "pair sweep: reduced = brute (bridge, select)" `Slow
      test_pairs_models;
    Alcotest.test_case "pair sweep: transient rejected" `Quick
      test_pairs_transient_rejected;
  ]
