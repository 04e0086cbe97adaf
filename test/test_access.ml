(* Tests for the accessibility engine and pattern retargeting: fault-free
   behaviour, per-fault-class expectations on a small SIB network, and an
   end-to-end cross-validation of engine verdicts against the CSU
   simulator. *)

module Netlist = Ftrsn_rsn.Netlist
module Config = Ftrsn_rsn.Config
module Sib = Ftrsn_rsn.Sib
module Sim = Ftrsn_rsn.Sim
module Fault = Ftrsn_fault.Fault
module Engine = Ftrsn_access.Engine
module Retarget = Ftrsn_access.Retarget

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let small_sib () =
  Sib.build ~name:"small"
    [
      Sib
        {
          name = "mod1";
          inner = [ Sib.leaf ~name:"c1" ~len:3; Sib.leaf ~name:"c2" ~len:2 ];
        };
      Sib { name = "mod2"; inner = [ Sib.leaf ~name:"c3" ~len:4 ] };
    ]

let seg_id net name =
  let found = ref (-1) in
  for i = 0 to Netlist.num_segments net - 1 do
    if Netlist.segment_name net i = name then found := i
  done;
  if !found < 0 then Alcotest.fail ("no segment named " ^ name);
  !found

let test_fault_free_all_accessible () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let v = Engine.analyze ctx None in
  check int_t "all segments accessible" (Netlist.num_segments net)
    (Engine.accessible_count v);
  check int_t "all bits accessible" (Netlist.total_bits net)
    (Engine.accessible_bits ctx v)

let test_fault_universe_size () =
  let net = small_sib () in
  let faults = Fault.universe net in
  (* Every site appears with both polarities. *)
  check bool_t "even count" true (List.length faults mod 2 = 0);
  check bool_t "non-trivial universe" true (List.length faults > 50)

let test_pi_stuck_kills_everything () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let v =
    Engine.analyze ctx (Some { Fault.site = Fault.Primary_in; stuck = true })
  in
  check int_t "nothing writable" 0 (Engine.accessible_count v)

let test_po_stuck_kills_everything () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let v =
    Engine.analyze ctx (Some { Fault.site = Fault.Primary_out; stuck = false })
  in
  check int_t "nothing readable" 0 (Engine.accessible_count v)

let test_module_sib_shadow_stuck_closed () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let mod1 = seg_id net "mod1" in
  let v =
    Engine.analyze ctx
      (Some { Fault.site = Fault.Seg_shadow_reg (mod1, 0); stuck = false })
  in
  (* mod1 cannot open: its subtree (c1.sib, c1, c2.sib, c2) is gone and
     mod1 itself loses its write interface; mod2's subtree unaffected. *)
  check bool_t "c1 inaccessible" false (v.Engine.accessible.(seg_id net "c1"));
  check bool_t "c2.sib inaccessible" false
    (v.Engine.accessible.(seg_id net "c2.sib"));
  check bool_t "mod1 write lost" false (v.Engine.writable.(mod1));
  check bool_t "c3 still accessible" true
    (v.Engine.accessible.(seg_id net "c3"));
  check bool_t "mod2 still accessible" true
    (v.Engine.accessible.(seg_id net "mod2"))

let test_module_sib_shadow_stuck_open () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let mod1 = seg_id net "mod1" in
  let v =
    Engine.analyze ctx
      (Some { Fault.site = Fault.Seg_shadow_reg (mod1, 0); stuck = true })
  in
  (* Forced open: everything except mod1's own write interface works. *)
  check bool_t "c1 accessible" true (v.Engine.accessible.(seg_id net "c1"));
  check bool_t "c3 accessible" true (v.Engine.accessible.(seg_id net "c3"));
  check bool_t "mod1 write lost" false (v.Engine.writable.(mod1))

let test_trunk_select_stuck0 () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let mod2 = seg_id net "mod2" in
  let v =
    Engine.analyze ctx
      (Some { Fault.site = Fault.Seg_select mod2; stuck = false })
  in
  (* mod2 is on the only trunk: nothing shifts through it. *)
  check int_t "complete outage" 0 (Engine.accessible_count v)

let test_leaf_select_stuck0 () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let c1 = seg_id net "c1" in
  let v =
    Engine.analyze ctx (Some { Fault.site = Fault.Seg_select c1; stuck = false })
  in
  (* Only c1 is lost: its SIB stays closed, everything else works. *)
  check bool_t "c1 lost" false (v.Engine.accessible.(c1));
  check int_t "everything else fine" (Netlist.num_segments net - 1)
    (Engine.accessible_count v)

let test_select_stuck1_benign () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let mod1 = seg_id net "mod1" in
  let v =
    Engine.analyze ctx (Some { Fault.site = Fault.Seg_select mod1; stuck = true })
  in
  check int_t "stuck-1 select is recoverable" (Netlist.num_segments net)
    (Engine.accessible_count v)

let test_mux_addr_stuck_closed () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  (* mux 0 is mod1's bypass mux (built right after mod1's subtree). *)
  let mod1 = seg_id net "mod1" in
  let the_mux =
    match Netlist.mux_on_edge net ~src:(2 + mod1) ~dst:(2 + seg_id net "mod2") with
    | Some m -> m
    | None -> Alcotest.fail "expected a mux on the bypass edge"
  in
  let v =
    Engine.analyze ctx
      (Some { Fault.site = Fault.Mux_addr (the_mux, 0); stuck = false })
  in
  (* Locked to bypass: mod1's subtree gone; mod1 itself still read/write. *)
  check bool_t "c1 lost" false (v.Engine.accessible.(seg_id net "c1"));
  check bool_t "mod1 keeps access" true (v.Engine.accessible.(mod1));
  check bool_t "mod2 side fine" true (v.Engine.accessible.(seg_id net "c3"))

let test_shift_reg_fault_on_leaf () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let c2 = seg_id net "c2" in
  let v =
    Engine.analyze ctx
      (Some { Fault.site = Fault.Seg_shift_reg c2; stuck = true })
  in
  check bool_t "c2 lost" false (v.Engine.accessible.(c2));
  check int_t "only c2 lost" (Netlist.num_segments net - 1)
    (Engine.accessible_count v)

let test_shift_reg_fault_on_trunk () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let mod1 = seg_id net "mod1" in
  let v =
    Engine.analyze ctx
      (Some { Fault.site = Fault.Seg_shift_reg mod1; stuck = true })
  in
  (* The trunk passes through mod1's register: every path is corrupted. *)
  check int_t "complete outage" 0 (Engine.accessible_count v)

let test_capture_en_kills_read_only () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let c3 = seg_id net "c3" in
  let v =
    Engine.analyze ctx
      (Some { Fault.site = Fault.Seg_capture_en c3; stuck = false })
  in
  check bool_t "write still fine" true v.Engine.writable.(c3);
  check bool_t "read lost" false v.Engine.readable.(c3);
  check bool_t "not accessible" false v.Engine.accessible.(c3)

let test_plan_write_fault_free () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let c1 = seg_id net "c1" in
  match Retarget.plan_write ctx ~target:c1 () with
  | None -> Alcotest.fail "plan must exist"
  | Some plan ->
      (* SIB depth 2: two configuration CSUs then the access CSU. *)
      check int_t "csu steps" 2 (List.length plan.Retarget.steps);
      check bool_t "target on final path" true
        (List.mem c1 plan.Retarget.access_path);
      (* Latency: reset path (2 bits) + mod1 open (4 bits) + full (7 bits),
         plus 2 cycles per CSU. *)
      check int_t "latency" (2 + 2 + (2 + 4) + (2 + 7)) plan.Retarget.cycles

let test_plan_execute_fault_free () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let c3 = seg_id net "c3" in
  match Retarget.plan_write ctx ~target:c3 () with
  | None -> Alcotest.fail "plan must exist"
  | Some plan -> (
      let pattern = [ true; false; true; true ] in
      match Retarget.execute net plan ~pattern with
      | Error e -> Alcotest.fail e
      | Ok state ->
          List.iteri
            (fun j v ->
              check bool_t
                (Printf.sprintf "pattern bit %d written" j)
                v
                state.Sim.shift.(c3).(j))
            pattern)

let test_plan_respects_fault () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let c1 = seg_id net "c1" in
  (* c2's shift register is stuck: c1 must still be writable (it sits
     before c2's SIB on the module chain or can bypass c2). *)
  let fault = { Fault.site = Fault.Seg_shift_reg (seg_id net "c2"); stuck = true } in
  match Retarget.plan_write ctx ~fault ~target:c1 () with
  | None -> Alcotest.fail "plan must exist under this fault"
  | Some plan -> (
      let pattern = [ true; true; false ] in
      match Retarget.execute net ~fault plan ~pattern with
      | Error e -> Alcotest.fail e
      | Ok state ->
          List.iteri
            (fun j v -> check bool_t "bit ok" v state.Sim.shift.(c1).(j))
            pattern)

(* End-to-end cross-validation: for every fault in the universe of the
   network and every segment the engine deems writable, plan and execute a
   write through the simulator with the fault injected, then check the
   pattern landed.  This ties the structural engine to the cycle-accurate
   semantics. *)
let engine_vs_simulator_on net =
  let ctx = Engine.make_ctx net in
  let faults = Fault.universe net in
  let tried = ref 0 in
  List.iter
    (fun fault ->
      let v = Engine.analyze ctx (Some fault) in
      for s = 0 to Netlist.num_segments net - 1 do
        if v.Engine.writable.(s) then begin
          match Retarget.plan_write ctx ~fault ~target:s () with
          | None ->
              Alcotest.fail
                (Printf.sprintf "writable %s but no plan under %s"
                   (Netlist.segment_name net s)
                   (Fault.to_string net fault))
          | Some plan -> (
              incr tried;
              let len = Netlist.seg_len net s in
              let pattern = List.init len (fun i -> i mod 2 = 0) in
              match Retarget.execute net ~fault plan ~pattern with
              | Error e ->
                  Alcotest.fail
                    (Printf.sprintf "execution failed for %s under %s: %s"
                       (Netlist.segment_name net s)
                       (Fault.to_string net fault)
                       e)
              | Ok state ->
                  List.iteri
                    (fun j expected ->
                      if state.Sim.shift.(s).(j) <> expected then
                        Alcotest.fail
                          (Printf.sprintf
                             "pattern mismatch at %s[%d] under %s"
                             (Netlist.segment_name net s)
                             j
                             (Fault.to_string net fault)))
                    pattern)
        end
      done)
    faults;
  check bool_t "exercised many write plans" true (!tried > 100)

(* Same cross-validation for READ access: every engine-readable segment
   must yield a read plan whose simulator execution returns the planted
   instrument data. *)
let engine_vs_simulator_read_on net =
  let ctx = Engine.make_ctx net in
  let faults = Fault.universe net in
  let tried = ref 0 in
  List.iter
    (fun fault ->
      let v = Engine.analyze ctx (Some fault) in
      for s = 0 to Netlist.num_segments net - 1 do
        if v.Engine.readable.(s) then begin
          match Retarget.plan_read ctx ~fault ~target:s () with
          | None ->
              Alcotest.fail
                (Printf.sprintf "readable %s but no read plan under %s"
                   (Netlist.segment_name net s)
                   (Fault.to_string net fault))
          | Some plan -> (
              incr tried;
              let len = Netlist.seg_len net s in
              let instrument = List.init len (fun i -> i mod 3 <> 1) in
              match Retarget.execute_read net ~fault plan ~instrument with
              | Error e ->
                  Alcotest.fail
                    (Printf.sprintf "read failed for %s under %s: %s"
                       (Netlist.segment_name net s)
                       (Fault.to_string net fault)
                       e)
              | Ok bits ->
                  if bits <> instrument then
                    Alcotest.fail
                      (Printf.sprintf "read mismatch at %s under %s"
                         (Netlist.segment_name net s)
                         (Fault.to_string net fault)))
        end
      done)
    faults;
  check bool_t "exercised many read plans" true (!tried > 100)

let test_engine_vs_simulator () = engine_vs_simulator_on (small_sib ())

let test_engine_vs_simulator_ft () =
  let r = Ftrsn_core.Pipeline.synthesize (small_sib ()) in
  engine_vs_simulator_on r.Ftrsn_core.Pipeline.ft

let test_engine_vs_simulator_read () =
  engine_vs_simulator_read_on (small_sib ())

let test_engine_vs_simulator_read_ft () =
  let r = Ftrsn_core.Pipeline.synthesize (small_sib ()) in
  engine_vs_simulator_read_on r.Ftrsn_core.Pipeline.ft

(* --- diagnosis --- *)

module Diagnose = Ftrsn_access.Diagnose

let test_diagnose_localizes () =
  (* For a sample of injected faults, the diagnosis candidates include the
     injected fault, and every candidate is behaviourally equivalent. *)
  let net = small_sib () in
  let universe = Fault.universe net in
  let sample = List.filteri (fun i _ -> i mod 7 = 0) universe in
  List.iter
    (fun f ->
      let observed = Diagnose.apply net ~fault:f (Diagnose.stimulus net) in
      let candidates = Diagnose.diagnose net ~observed in
      if not (List.mem f candidates) then
        Alcotest.fail
          ("injected fault not among candidates: " ^ Fault.to_string net f))
    sample

let test_diagnose_healthy () =
  (* A healthy observation matches the fault-free signature; any faults it
     also matches are behaviourally benign (metric-accessible). *)
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let healthy = Diagnose.healthy net in
  let candidates = Diagnose.diagnose net ~observed:healthy in
  List.iter
    (fun f ->
      let v = Engine.analyze ctx (Some f) in
      check int_t
        ("healthy-matching fault is benign: " ^ Fault.to_string net f)
        (Netlist.num_segments net)
        (Engine.accessible_count v))
    candidates

let test_diagnose_resolution () =
  let net = small_sib () in
  let classes = Diagnose.distinguishable_classes net in
  (* The stimulus distinguishes a significant share of the universe. *)
  check bool_t "non-trivial resolution" true (classes > 20)

let test_diagnose_trunk_break_differs () =
  (* A catastrophic trunk fault produces a signature different from a
     leaf-only fault. *)
  let net = small_sib () in
  let stim = Diagnose.stimulus net in
  let trunk =
    Diagnose.apply net
      ~fault:{ Fault.site = Fault.Seg_shift_reg 0; stuck = true }
      stim
  in
  let leaf =
    Diagnose.apply net
      ~fault:{ Fault.site = Fault.Seg_scan_in 2; stuck = true }
      stim
  in
  check bool_t "signatures differ" true (trunk <> leaf)

(* --- multi-fault analysis --- *)

let test_multi_fault_monotone () =
  (* Adding a second fault can only shrink the accessible set. *)
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let universe = Array.of_list (Fault.universe net) in
  let n = Array.length universe in
  for i = 0 to min 40 (n - 1) do
    let f1 = universe.(i) and f2 = universe.((i * 7) mod n) in
    let v1 = Engine.analyze ctx (Some f1) in
    let v12 = Engine.analyze_multi ctx [ f1; f2 ] in
    for s = 0 to Netlist.num_segments net - 1 do
      if v12.Engine.accessible.(s) && not v1.Engine.accessible.(s) then
        Alcotest.fail
          (Printf.sprintf "pair (%s, %s) resurrects %s"
             (Fault.to_string net f1) (Fault.to_string net f2)
             (Netlist.segment_name net s))
    done
  done

let test_multi_fault_singleton_equals_single () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  List.iter
    (fun f ->
      let a = Engine.analyze ctx (Some f) in
      let b = Engine.analyze_multi ctx [ f ] in
      check bool_t "singleton = single" true
        (a.Engine.accessible = b.Engine.accessible))
    (Fault.universe net)

let test_double_fault_ft_degrades_gracefully () =
  let net = small_sib () in
  let r = Ftrsn_core.Pipeline.synthesize net in
  let mo = Ftrsn_core.Metric.evaluate_pairs ~sample:5 net in
  let mf = Ftrsn_core.Metric.evaluate_pairs ~sample:5 r.Ftrsn_core.Pipeline.ft in
  check bool_t "ft much better on average under double faults" true
    (mf.Ftrsn_core.Metric.avg_segments
     > mo.Ftrsn_core.Metric.avg_segments +. 0.05)

let test_diagnose_coverage_bounds () =
  let net = small_sib () in
  let c = Diagnose.coverage net in
  check bool_t "coverage in (0.5, 1]" true (c > 0.5 && c <= 1.0)

(* --- merged retargeting --- *)

let test_merged_all_leaves () =
  (* Writing all three instruments of the small SoC merges into ONE group
     (open everything once) and beats sequential access. *)
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let targets = [ seg_id net "c1"; seg_id net "c2"; seg_id net "c3" ] in
  match Retarget.plan_write_merged ctx ~targets () with
  | None -> Alcotest.fail "merged plan must exist"
  | Some mp ->
      check int_t "one group" 1 (List.length mp.Retarget.groups);
      check bool_t "merged strictly cheaper" true
        (mp.Retarget.merged_cycles < mp.Retarget.sequential_cycles);
      let plan, ts = List.hd mp.Retarget.groups in
      check int_t "all targets in the group" 3 (List.length ts);
      (* Execute the merged access on the simulator. *)
      let patterns =
        List.map
          (fun t -> (t, List.init (Netlist.seg_len net t) (fun i -> i mod 2 = 0)))
          ts
      in
      (match Retarget.execute_merged net plan ~patterns with
      | Error e -> Alcotest.fail e
      | Ok state ->
          List.iter
            (fun (t, bits) ->
              List.iteri
                (fun j v ->
                  if state.Sim.shift.(t).(j) <> v then
                    Alcotest.fail
                      (Printf.sprintf "merged write mismatch at %s[%d]"
                         (Netlist.segment_name net t) j))
                bits)
            patterns)

let test_merged_single_target_consistent () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let c1 = seg_id net "c1" in
  match
    ( Retarget.plan_write ctx ~target:c1 (),
      Retarget.plan_write_merged ctx ~targets:[ c1 ] () )
  with
  | Some single, Some mp ->
      check int_t "one group" 1 (List.length mp.Retarget.groups);
      check int_t "same cost as single" single.Retarget.cycles
        mp.Retarget.merged_cycles
  | _ -> Alcotest.fail "plans must exist"

let test_merged_under_fault () =
  (* Merging still works around a defect. *)
  let net = small_sib () in
  let r = Ftrsn_core.Pipeline.synthesize net in
  let ft = r.Ftrsn_core.Pipeline.ft in
  let ctx = Engine.make_ctx ft in
  let fault = { Fault.site = Fault.Seg_shadow_reg (0, 0); stuck = false } in
  let targets = [ seg_id ft "c1"; seg_id ft "c3" ] in
  match Retarget.plan_write_merged ctx ~fault ~targets () with
  | None -> Alcotest.fail "merged plan under fault"
  | Some mp ->
      List.iter
        (fun (plan, ts) ->
          let patterns =
            List.map
              (fun t ->
                (t, List.init (Netlist.seg_len ft t) (fun i -> i mod 3 = 0)))
              ts
          in
          match Retarget.execute_merged ft ~fault plan ~patterns with
          | Error e -> Alcotest.fail e
          | Ok state ->
              List.iter
                (fun (t, bits) ->
                  List.iteri
                    (fun j v ->
                      if state.Sim.shift.(t).(j) <> v then
                        Alcotest.fail "merged-under-fault mismatch")
                    bits)
                patterns)
        mp.Retarget.groups

(* --- vector export --- *)

module Vectors = Ftrsn_access.Vectors

let test_hex_of_bits () =
  (* first-shifted-first [1;0;0;1] = msb-last -> binary 1001 = 9 *)
  check Alcotest.string "nibble" "9" (Vectors.hex_of_bits [ true; false; false; true ]);
  check Alcotest.string "empty" "0" (Vectors.hex_of_bits []);
  check Alcotest.string "five bits" "01"
    (Vectors.hex_of_bits [ true; false; false; false; false ]);
  check Alcotest.string "all ones byte" "FF"
    (Vectors.hex_of_bits (List.init 8 (fun _ -> true)))

let test_vectors_of_plan () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let c3 = seg_id net "c3" in
  match Retarget.plan_write ctx ~target:c3 () with
  | None -> Alcotest.fail "plan"
  | Some plan -> (
      let pattern = [ true; false; true; true ] in
      match Vectors.of_plan net plan ~pattern with
      | Error e -> Alcotest.fail e
      | Ok svf ->
          check bool_t "has SDR statements" true
            (try ignore (Str.search_forward (Str.regexp_string "SDR") svf 0); true
             with Not_found -> false);
          check bool_t "mentions target" true
            (try ignore (Str.search_forward (Str.regexp_string "c3") svf 0); true
             with Not_found -> false);
          (* One SDR per CSU. *)
          let count = ref 0 and pos = ref 0 in
          (try
             while true do
               pos := Str.search_forward (Str.regexp_string "SDR ") svf !pos + 1;
               incr count
             done
           with Not_found -> ());
          check int_t "SDR count" (List.length plan.Retarget.steps + 1) !count)

let test_vectors_roundtrip_consistent () =
  (* The TDO fields predicted by trace_execution equal a fresh replay. *)
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let c1 = seg_id net "c1" in
  match Retarget.plan_write ctx ~target:c1 () with
  | None -> Alcotest.fail "plan"
  | Some plan -> (
      let pattern = [ false; true; true ] in
      match
        ( Retarget.trace_execution net plan ~pattern,
          Retarget.trace_execution net plan ~pattern )
      with
      | Ok a, Ok b -> check bool_t "deterministic" true (a = b)
      | _ -> Alcotest.fail "trace failed")

(* Property: the lane-parallel batch sweep returns, class for class, the
   verdict of the scalar engine — on random nets, which exercise partial
   batches, mixed shapes and the fast paths together.  The classes are
   planned as the metric plans its single-fault row ([Oracle.lane_verdicts]). *)
let prop_lanes_equal_scalar =
  QCheck.Test.make
    ~name:"lane verdicts = per-class Engine.analyze (random nets)" ~count:12
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Ftrsn_rsn.Random_net.generate ~seed ~segments:(5 + (seed mod 6)) ()
      in
      let ctx = Engine.make_ctx net in
      let classes =
        Array.of_list (Fault.collapse net (Fault.universe net))
      in
      let vs, st =
        Oracle.lane_verdicts ctx (Engine.baseline ctx)
          (Array.map (fun c -> c.Fault.cls_summary) classes)
      in
      Array.length vs = Array.length classes
      && st.Engine.ls_fast + st.Engine.ls_lanes = Array.length classes
      && Array.for_all2
           (fun (v, _) c -> v = Engine.analyze ctx (Some c.Fault.cls_rep))
           vs classes)

(* Property: the lane sweep rooted at a STACKED baseline returns, class
   for class, exactly what the scalar stacked delta returns — verdict
   and cone size both.  Every class in turn plays the primary (so the
   stacked base runs through all shapes, including glitchy ones, where
   [Oracle.lane_verdicts] answers scalar), and the whole class universe
   plays the secondaries. *)
let prop_lanes_on_equal_delta_on =
  QCheck.Test.make
    ~name:"stacked lane verdicts = Engine.analyze_delta_on (random nets)"
    ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Ftrsn_rsn.Random_net.generate ~seed ~segments:(4 + (seed mod 5)) ()
      in
      let ctx = Engine.make_ctx net in
      let base = Engine.baseline ctx in
      let classes =
        Array.of_list (Fault.collapse net (Fault.universe net))
      in
      let sms =
        Array.map (fun c -> Fault.summarize net c.Fault.cls_rep) classes
      in
      (* cap the primaries to keep the quadratic sweep quick, but use a
         stride so all shapes along the universe are still visited *)
      let n = Array.length sms in
      let stride = max 1 (n / 12) in
      let ok = ref true in
      let i = ref 0 in
      while !ok && !i < n do
        let stk = Engine.stack ctx base sms.(!i) in
        let vs, st = Oracle.lane_verdicts ctx base ~primary:sms.(!i) sms in
        ok :=
          Array.length vs = n
          && st.Engine.ls_fast + st.Engine.ls_lanes = n
          && Array.for_all2
               (fun v sm -> v = Engine.analyze_delta_on ctx stk sm)
               vs sms;
        i := !i + stride
      done;
      !ok)

(* ---- cascade-closed cones and counting sweeps ---- *)

(* The per-summary cascade the engine ran before its reach tables were
   closed, kept as the oracle of [Engine.coarse_cone]: plain reach and
   co-reach tables, the seed unions, then the host rule re-applied over
   every segment until nothing changes.  Every table is rebuilt here from
   the engine's edge list and the netlist alone.  Returns the vertex cone
   and the affected edges, ascending. *)
let cascade_oracle net ctx =
  let module Bitset = Ftrsn_topo.Bitset in
  let module Digraph = Ftrsn_topo.Digraph in
  let module Order = Ftrsn_topo.Order in
  let edges = Engine.edge_routes ctx in
  let nsegs = Netlist.num_segments net in
  let nv = nsegs + 2 and nedges = Array.length edges in
  let g =
    Digraph.of_edges ~n:nv
      (Array.to_list (Array.map (fun (u, v, _) -> (u, v)) edges))
  in
  let acyclic = Order.is_acyclic g in
  let table f =
    Array.init nv (fun v ->
        if acyclic then f v
        else begin
          let b = Bitset.create nv in
          Bitset.fill b;
          b
        end)
  in
  let reach = table (fun v -> Order.reachable g ~from:v) in
  let coreach = table (fun v -> Order.co_reachable g ~to_:v) in
  let in_edges = Array.make nv [] and out_edges = Array.make nv [] in
  let mux_edges = Array.make (Netlist.num_muxes net) [] in
  let host_all = Array.make nsegs [] and host_nonreset = Array.make nsegs [] in
  let add_once a i ei = if not (List.mem ei a.(i)) then a.(i) <- ei :: a.(i) in
  Array.iteri
    (fun ei (u, v, route) ->
      add_once out_edges u ei;
      add_once in_edges v ei;
      List.iter
        (fun (m, k) ->
          add_once mux_edges m ei;
          Array.iteri
            (fun b ctrl ->
              match ctrl with
              | Netlist.Ctrl_shadow { cseg; cbit } ->
                  let required = k land (1 lsl b) <> 0 in
                  add_once host_all cseg ei;
                  if net.Netlist.segs.(cseg).Netlist.seg_reset.(cbit) <> required
                  then add_once host_nonreset cseg ei
              | _ -> ())
            net.Netlist.muxes.(m).Netlist.mux_addr)
        route)
    edges;
  fun (sm : Fault.summary) ->
    let cv = Bitset.create nv in
    let affected = Array.make nedges false in
    let mark ei = affected.(ei) <- true in
    if sm.Fault.sm_pi_dead || sm.Fault.sm_po_dead then begin
      Bitset.fill cv;
      Array.fill affected 0 nedges true
    end
    else begin
      let add_v v =
        Bitset.union_into cv reach.(v);
        Bitset.union_into cv coreach.(v)
      in
      let add_edge ei =
        mark ei;
        let u, v, _ = edges.(ei) in
        Bitset.union_into cv reach.(v);
        Bitset.union_into cv coreach.(u)
      in
      let through i = add_v (i + 2) in
      let local i = Bitset.add cv (i + 2) in
      List.iter through sm.Fault.sm_hard_block;
      List.iter through sm.Fault.sm_corrupt_vertex;
      List.iter
        (fun i ->
          through i;
          List.iter mark in_edges.(i + 2))
        sm.Fault.sm_corrupt_in;
      List.iter
        (fun i ->
          through i;
          List.iter mark out_edges.(i + 2))
        sm.Fault.sm_corrupt_out;
      List.iter local sm.Fault.sm_kill_write;
      List.iter local sm.Fault.sm_kill_read;
      List.iter (fun m -> List.iter add_edge mux_edges.(m)) sm.Fault.sm_mux_out;
      List.iter
        (fun (m, _) -> List.iter add_edge mux_edges.(m))
        sm.Fault.sm_mux_in;
      List.iter
        (fun (m, _, _) -> List.iter add_edge mux_edges.(m))
        sm.Fault.sm_locked_addr;
      List.iter
        (fun (i, _, _) -> List.iter add_edge host_all.(i))
        sm.Fault.sm_stuck_shadow;
      let applied = Array.make nsegs false in
      let continue_ = ref true in
      while !continue_ do
        continue_ := false;
        for i = 0 to nsegs - 1 do
          if
            (not applied.(i)) && host_nonreset.(i) <> [] && Bitset.mem cv (i + 2)
          then begin
            applied.(i) <- true;
            List.iter add_edge host_nonreset.(i);
            continue_ := true
          end
        done
      done
    end;
    let aff = ref [] in
    for ei = nedges - 1 downto 0 do
      if affected.(ei) then aff := ei :: !aff
    done;
    (cv, !aff)

(* Every class summary of every structural fault model, plus a strided
   sample of pairwise unions (the cones of stacked deltas). *)
let all_models = [ Fault.Stuck; Fault.Bridge; Fault.Select; Fault.Transient ]

let cone_summaries ~models net =
  let sms =
    List.concat_map
      (fun model ->
        List.map
          (fun c -> c.Fault.cls_summary)
          (Fault.collapse net (Fault.universe ~model net)))
      models
    |> Array.of_list
  in
  let n = Array.length sms in
  let stride = max 1 (n / 24) in
  let unions = ref [] in
  for i = 0 to n - 1 do
    if i mod stride = 0 then
      for j = 0 to n - 1 do
        if j mod stride = (i / stride) mod stride then
          unions := Fault.summary_union sms.(i) sms.(j) :: !unions
      done
  done;
  Array.append sms (Array.of_list !unions)

(* The first summary whose closed cone differs from the oracle's, with
   a description of the difference. *)
let cone_mismatch ?(models = all_models) net =
  let ctx = Engine.make_ctx net in
  let base = Engine.baseline ctx in
  let oracle = cascade_oracle net ctx in
  Array.fold_left
    (fun acc sm ->
      match acc with
      | Some _ -> acc
      | None ->
          let cv, aff = Engine.coarse_cone ctx base sm in
          let ocv, oaff = oracle sm in
          let sorted = List.sort compare aff in
          if not (Ftrsn_topo.Bitset.equal cv ocv) then Some "vertex cone"
          else if sorted <> oaff then Some "affected edges"
          else if List.sort_uniq compare aff <> sorted then
            Some "duplicate affected edge"
          else None)
    None (cone_summaries ~models net)

let test_closed_cone_itc02_ft () =
  List.iter
    (fun (name, models) ->
      let soc = Option.get (Ftrsn_itc02.Itc02.find name) in
      let net = Ftrsn_itc02.Itc02.rsn soc in
      let ft = (Ftrsn_core.Pipeline.synthesize net).Ftrsn_core.Pipeline.ft in
      List.iter
        (fun (what, n) ->
          check (Alcotest.option Alcotest.string)
            (Printf.sprintf "%s%s: closed cone = cascade" name what)
            None (cone_mismatch ~models n))
        [ ("", net); ("-ft", ft) ])
    [ ("u226", all_models); ("d695", [ Fault.Stuck ]) ]

let prop_closed_cone_random =
  QCheck.Test.make ~name:"closed cone = per-summary cascade (random nets)"
    ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Ftrsn_rsn.Random_net.generate ~seed ~segments:(4 + (seed mod 12)) ()
      in
      let ft =
        match Ftrsn_core.Pipeline.synthesize net with
        | r -> Some r.Ftrsn_core.Pipeline.ft
        | exception Failure _ -> None
      in
      cone_mismatch net = None
      && match ft with None -> true | Some ft -> cone_mismatch ft = None)

(* Counting sweeps against [count ∘ analyze_delta_on]: the scalar
   [delta_counts] on every summary, and [lane_batch_counts] through ONE
   workspace reused across every batch and every stacked base (fault-free
   first, then a strided sample of primaries). *)
let counts_mismatch ?(models = [ Fault.Stuck; Fault.Bridge; Fault.Select ])
    ?(primaries = 8) net =
  let ctx = Engine.make_ctx net in
  let base = Engine.baseline ctx in
  let sms =
    Array.of_list
      (List.concat_map
         (fun model ->
           List.map
             (fun c -> c.Fault.cls_summary)
             (Fault.collapse net (Fault.universe ~model net)))
         models)
  in
  let ws = Engine.lane_workspace ctx in
  let n = Array.length sms in
  let stride = max 1 (n / primaries) in
  let stacks =
    Engine.of_baseline base
    :: List.filter_map
         (fun i ->
           if i mod stride = 0 then Some (Engine.stack ctx base sms.(i)) else None)
         (List.init n Fun.id)
  in
  let _, batches = Engine.lane_plan base sms in
  let bad = ref None in
  List.iter
    (fun stk ->
      let expect =
        Array.map
          (fun sm ->
            let v, cone = Engine.analyze_delta_on ctx stk sm in
            (Engine.accessible_count v, Engine.accessible_bits ctx v, cone))
          sms
      in
      Array.iteri
        (fun i sm ->
          if !bad = None && Engine.delta_counts ctx stk sm <> expect.(i) then
            bad := Some "delta_counts")
        sms;
      List.iter
        (fun idxs ->
          let batch = Array.map (fun i -> sms.(i)) idxs in
          ignore
            (Engine.lane_batch_counts ctx ws stk batch (fun l segs bits cone ->
                 if !bad = None && (segs, bits, cone) <> expect.(idxs.(l)) then
                   bad := Some "lane_batch_counts")))
        batches)
    stacks;
  !bad

let test_counts_itc02_ft () =
  let net = Ftrsn_itc02.Itc02.rsn (Option.get (Ftrsn_itc02.Itc02.find "u226")) in
  let ft = (Ftrsn_core.Pipeline.synthesize net).Ftrsn_core.Pipeline.ft in
  let counts = counts_mismatch ~models:[ Fault.Stuck ] ~primaries:2 in
  check (Alcotest.option Alcotest.string) "u226: counts = count . analyze_delta"
    None (counts net);
  check (Alcotest.option Alcotest.string)
    "u226-ft: counts = count . analyze_delta" None (counts ft)

let prop_counts_random =
  QCheck.Test.make ~name:"class counts = count . analyze_delta (random nets)"
    ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Ftrsn_rsn.Random_net.generate ~seed ~segments:(4 + (seed mod 10)) ()
      in
      counts_mismatch net = None)

(* ---- flat adjacency and allocation-free kernels ---- *)

(* The per-vertex edge lists the engine built before its adjacency was
   flattened, kept as the oracle of [Engine.out_edges]/[in_edges]: edge
   indices prepended in ascending order, so each list is descending. *)
let list_adjacency ctx =
  let edges = Engine.edge_routes ctx in
  let nv = Netlist.num_segments (Engine.netlist ctx) + 2 in
  let out_edges = Array.make nv [] and in_edges = Array.make nv [] in
  Array.iteri
    (fun i (u, v, _) ->
      out_edges.(u) <- i :: out_edges.(u);
      in_edges.(v) <- i :: in_edges.(v))
    edges;
  (out_edges, in_edges)

(* [None] when every edge sits exactly once in its source's out-row and
   once in its destination's in-row, and every row equals the oracle's
   list, order included. *)
let csr_mismatch net =
  let ctx = Engine.make_ctx net in
  let edges = Engine.edge_routes ctx in
  let nv = Netlist.num_segments net + 2 in
  let outs = Array.init nv (Engine.out_edges ctx) in
  let ins = Array.init nv (Engine.in_edges ctx) in
  let seen_out = Array.make (Array.length edges) 0 in
  let seen_in = Array.make (Array.length edges) 0 in
  let bad = ref None in
  let fail what = if !bad = None then bad := Some what in
  Array.iteri
    (fun v row ->
      Array.iter
        (fun ei ->
          let u, _, _ = edges.(ei) in
          if u <> v then fail "out-row of another vertex";
          seen_out.(ei) <- seen_out.(ei) + 1)
        row)
    outs;
  Array.iteri
    (fun v row ->
      Array.iter
        (fun ei ->
          let _, w, _ = edges.(ei) in
          if w <> v then fail "in-row of another vertex";
          seen_in.(ei) <- seen_in.(ei) + 1)
        row)
    ins;
  if Array.exists (( <> ) 1) seen_out then fail "edge not once in out-rows";
  if Array.exists (( <> ) 1) seen_in then fail "edge not once in in-rows";
  let lo, li = list_adjacency ctx in
  if Array.map Array.of_list lo <> outs then fail "out-row order";
  if Array.map Array.of_list li <> ins then fail "in-row order";
  !bad

let prop_csr_random =
  QCheck.Test.make ~name:"flat adjacency = list adjacency (random nets, FT)"
    ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Ftrsn_rsn.Random_net.generate ~seed ~segments:(4 + (seed mod 12)) ()
      in
      csr_mismatch net = None
      &&
      match Ftrsn_core.Pipeline.synthesize net with
      | r -> csr_mismatch r.Ftrsn_core.Pipeline.ft = None
      | exception Failure _ -> true)

(* Minor words allocated by [f ()]: [Gc.minor_words] counts the calling
   domain only, so the reading is exact and deterministic. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* A reused workspace's counting sweep allocates a constant per batch
   (its stats record, 6 words), not a function of the network: checked
   on u226 and its larger FT rework, against the fault-free base and a
   stacked one.  One closure per lane would already exceed the bound.
   The batches are prebuilt, so only the sweep is measured. *)
let test_lane_alloc_guard () =
  let net =
    Ftrsn_itc02.Itc02.rsn (Option.get (Ftrsn_itc02.Itc02.find "u226"))
  in
  let ft = (Ftrsn_core.Pipeline.synthesize net).Ftrsn_core.Pipeline.ft in
  let bound = 64.0 in
  List.iter
    (fun (name, net) ->
      let ctx = Engine.make_ctx net in
      let base = Engine.baseline ctx in
      let sms =
        Array.of_list
          (List.map
             (fun c -> c.Fault.cls_summary)
             (Fault.collapse net (Fault.universe net)))
      in
      let _, plan = Engine.lane_plan base sms in
      let batches = List.map (Array.map (fun i -> sms.(i))) plan in
      let primary =
        List.find
          (fun sm -> Fault.summary_shape sm = Fault.General)
          (Array.to_list sms)
      in
      let ws = Engine.lane_workspace ctx in
      let f _ _ _ _ = () in
      List.iter
        (fun (what, stk) ->
          List.iter
            (fun b -> ignore (Engine.lane_batch_counts ctx ws stk b f))
            batches;
          let worst =
            List.fold_left
              (fun acc b ->
                max acc
                  (minor_words (fun () ->
                       ignore (Engine.lane_batch_counts ctx ws stk b f))))
              0.0 batches
          in
          check bool_t
            (Printf.sprintf "%s, %s base: %.0f minor words per batch <= %.0f"
               name what worst bound)
            true
            (batches <> [] && worst <= bound))
        [
          ("fault-free", Engine.of_baseline base);
          ("stacked", Engine.stack ctx base primary);
        ];
      let module Bitset = Ftrsn_topo.Bitset in
      let a = Bitset.create 1000 and b = Bitset.create 1000 in
      Bitset.add a 999;
      check (Alcotest.float 0.0)
        (name ^ ": Bitset.disjoint allocates nothing")
        0.0
        (minor_words (fun () ->
             for _ = 1 to 1000 do
               ignore (Sys.opaque_identity (Bitset.disjoint a b))
             done)))
    [ ("u226", net); ("u226-ft", ft) ]

(* The lane sweep's input checks, each reached through the public entry
   that feeds it: an empty and an oversized batch, a glitch summary, a
   glitchy stacked base, and a workspace of another context. *)
let test_lane_sweep_rejects () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let base = Engine.baseline ctx in
  let stk = Engine.of_baseline base in
  let find model p =
    (List.find (fun c -> p c.Fault.cls_summary)
       (Fault.collapse net (Fault.universe ~model net)))
      .Fault.cls_summary
  in
  let general =
    find Fault.Stuck (fun sm -> Fault.summary_shape sm = Fault.General)
  in
  let glitch = find Fault.Transient (fun sm -> sm.Fault.sm_glitch_shadow <> []) in
  let rejects what f =
    Alcotest.check_raises what
      (Invalid_argument ("Engine.lane_sweep: " ^ what))
      (fun () -> ignore (f ()))
  in
  rejects "batch size" (fun () -> Engine.analyze_lane_batch_on ctx stk [||]);
  rejects "batch size" (fun () ->
      Engine.analyze_lane_batch_on ctx stk
        (Array.make (Engine.lane_width + 1) general));
  rejects "glitch summary (scalar only)" (fun () ->
      Engine.analyze_lane_batch_on ctx stk [| general; glitch |]);
  rejects "glitch stacked base (scalar only)" (fun () ->
      Engine.analyze_lane_batch_on ctx (Engine.stack ctx base glitch)
        [| general |]);
  let u226 =
    Ftrsn_itc02.Itc02.rsn (Option.get (Ftrsn_itc02.Itc02.find "u226"))
  in
  rejects "workspace of another context" (fun () ->
      Engine.lane_batch_counts ctx
        (Engine.lane_workspace (Engine.make_ctx u226))
        stk [| general |]
        (fun _ _ _ _ -> ()))

let suite =
  [
    Alcotest.test_case "fault-free: all accessible" `Quick
      test_fault_free_all_accessible;
    Alcotest.test_case "fault universe" `Quick test_fault_universe_size;
    Alcotest.test_case "PI stuck kills everything" `Quick
      test_pi_stuck_kills_everything;
    Alcotest.test_case "PO stuck kills everything" `Quick
      test_po_stuck_kills_everything;
    Alcotest.test_case "module SIB stuck closed" `Quick
      test_module_sib_shadow_stuck_closed;
    Alcotest.test_case "module SIB stuck open" `Quick
      test_module_sib_shadow_stuck_open;
    Alcotest.test_case "trunk select stuck-0" `Quick test_trunk_select_stuck0;
    Alcotest.test_case "leaf select stuck-0" `Quick test_leaf_select_stuck0;
    Alcotest.test_case "select stuck-1 benign" `Quick test_select_stuck1_benign;
    Alcotest.test_case "mux address stuck (bypass)" `Quick
      test_mux_addr_stuck_closed;
    Alcotest.test_case "leaf shift-register fault" `Quick
      test_shift_reg_fault_on_leaf;
    Alcotest.test_case "trunk shift-register fault" `Quick
      test_shift_reg_fault_on_trunk;
    Alcotest.test_case "capture-enable fault" `Quick
      test_capture_en_kills_read_only;
    Alcotest.test_case "retarget: plan structure" `Quick
      test_plan_write_fault_free;
    Alcotest.test_case "retarget: execute on simulator" `Quick
      test_plan_execute_fault_free;
    Alcotest.test_case "retarget: plan around fault" `Quick
      test_plan_respects_fault;
    Alcotest.test_case "engine vs simulator (all faults)" `Slow
      test_engine_vs_simulator;
    Alcotest.test_case "engine vs simulator (all faults, FT)" `Slow
      test_engine_vs_simulator_ft;
    Alcotest.test_case "engine vs simulator, reads" `Slow
      test_engine_vs_simulator_read;
    Alcotest.test_case "engine vs simulator, reads (FT)" `Slow
      test_engine_vs_simulator_read_ft;
    Alcotest.test_case "diagnose: localizes injected faults" `Slow
      test_diagnose_localizes;
    Alcotest.test_case "diagnose: healthy matches benign only" `Slow
      test_diagnose_healthy;
    Alcotest.test_case "diagnose: resolution" `Quick test_diagnose_resolution;
    Alcotest.test_case "diagnose: trunk vs leaf signatures" `Quick
      test_diagnose_trunk_break_differs;
    Alcotest.test_case "multi-fault: monotone" `Quick test_multi_fault_monotone;
    Alcotest.test_case "multi-fault: singleton consistency" `Quick
      test_multi_fault_singleton_equals_single;
    Alcotest.test_case "double faults: FT degrades gracefully" `Slow
      test_double_fault_ft_degrades_gracefully;
    Alcotest.test_case "diagnose: coverage bounds" `Quick
      test_diagnose_coverage_bounds;
    Alcotest.test_case "merged: all leaves one group" `Quick
      test_merged_all_leaves;
    Alcotest.test_case "merged: single target consistent" `Quick
      test_merged_single_target_consistent;
    Alcotest.test_case "merged: under fault" `Quick test_merged_under_fault;
    Alcotest.test_case "vectors: hex encoding" `Quick test_hex_of_bits;
    Alcotest.test_case "vectors: SVF of plan" `Quick test_vectors_of_plan;
    Alcotest.test_case "vectors: deterministic" `Quick
      test_vectors_roundtrip_consistent;
    Testseed.to_alcotest prop_lanes_equal_scalar;
    Testseed.to_alcotest prop_lanes_on_equal_delta_on;
    Alcotest.test_case "closed cone = cascade (u226, d695, FT)" `Quick
      test_closed_cone_itc02_ft;
    Testseed.to_alcotest_in ~file:"test_access" prop_closed_cone_random;
    Alcotest.test_case "class counts = count . analyze_delta (u226, FT)" `Quick
      test_counts_itc02_ft;
    Testseed.to_alcotest_in ~file:"test_access" prop_counts_random;
    Testseed.to_alcotest_in ~file:"test_access" prop_csr_random;
    Alcotest.test_case "lane batch allocation guard (u226, FT)" `Quick
      test_lane_alloc_guard;
    Alcotest.test_case "lane sweep rejects invalid batches" `Quick
      test_lane_sweep_rejects;
  ]
