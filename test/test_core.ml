(* Tests for the synthesis core: augmentation (ILP and flow solvers),
   final synthesis, fault-tolerance metric and area model — the paper's
   pipeline end to end on small networks. *)

module Netlist = Ftrsn_rsn.Netlist
module Config = Ftrsn_rsn.Config
module Sib = Ftrsn_rsn.Sib
module Digraph = Ftrsn_topo.Digraph
module Augment = Ftrsn_core.Augment
module Synthesis = Ftrsn_core.Synthesis
module Metric = Ftrsn_core.Metric
module Area = Ftrsn_core.Area
module Pipeline = Ftrsn_core.Pipeline
module Engine = Ftrsn_access.Engine
module Retarget = Ftrsn_access.Retarget
module Fault = Ftrsn_fault.Fault
module Itc02 = Ftrsn_itc02.Itc02

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

let tiny_sib () =
  Sib.build ~name:"tiny"
    [ Sib.leaf ~name:"a" ~len:2; Sib.leaf ~name:"b" ~len:3 ]

let test_demands () =
  let net = small_sib () in
  let p = Augment.of_netlist net in
  let d_in, d_out = Augment.demands p in
  (* Root never demands in-edges; every other vertex demands one new
     physically distinct input. *)
  check int_t "root in-demand" 0 d_in.(p.Augment.root);
  check int_t "sink out-demand" 0 d_out.(p.Augment.sink);
  let total_in = Array.fold_left ( + ) 0 d_in in
  check bool_t "every non-root vertex needs a new input" true
    (total_in >= Netlist.num_segments net)

let test_ilp_flow_agree () =
  List.iter
    (fun net ->
      let p = Augment.of_netlist net in
      match (Augment.solve_ilp p, Augment.solve_flow ~window:64 p) with
      | Some ilp, Some flow ->
          check int_t
            ("solver costs agree on " ^ net.Netlist.net_name)
            ilp.Augment.cost flow.Augment.cost
      | _ -> Alcotest.fail "both solvers must find a solution")
    [ tiny_sib (); small_sib () ]

let test_augmentation_verified () =
  List.iter
    (fun net ->
      let p = Augment.of_netlist net in
      let sol = Augment.solve p in
      match Augment.verify p sol.Augment.new_edges with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ tiny_sib (); small_sib () ]

let test_augmented_two_connected () =
  let net = small_sib () in
  let p = Augment.of_netlist net in
  let sol = Augment.solve p in
  let g = Digraph.copy p.Augment.graph in
  List.iter (fun (i, j) -> Digraph.add_edge g i j) sol.Augment.new_edges;
  (* Every segment vertex now lies on two vertex-independent paths both
     ways (§III-C), except where structurally impossible. *)
  for s = 0 to Netlist.num_segments net - 1 do
    let v = 2 + s in
    if Digraph.in_degree g v >= 2 && Digraph.out_degree g v >= 2 then
      check bool_t
        (Printf.sprintf "segment %s two-connected" (Netlist.segment_name net s))
        true
        (Oracle.Menger.two_connected_through g ~root:0 ~sink:1 v)
  done

(* The pre-dominator [Augment.verify]: one Menger max-flow per vertex and
   side, same checks, same messages in the same order.  Kept as the
   oracle the dominator-tree check is compared against. *)
let menger_verify (p : Augment.problem) new_edges =
  let module Menger = Oracle.Menger in
  let g = Digraph.copy p.Augment.graph in
  List.iter (fun (i, j) -> Digraph.add_edge g i j) new_edges;
  let n = Digraph.vertex_count g in
  let d_in, d_out = Augment.demands p in
  let problems = ref [] in
  if not (Ftrsn_topo.Order.is_acyclic g) then
    problems := "augmented graph is cyclic" :: !problems;
  for v = 0 to n - 1 do
    if Digraph.in_degree g v < Digraph.in_degree p.Augment.graph v + d_in.(v)
    then
      problems := Printf.sprintf "vertex %d in-degree demand unmet" v :: !problems;
    if Digraph.out_degree g v < Digraph.out_degree p.Augment.graph v + d_out.(v)
    then
      problems :=
        Printf.sprintf "vertex %d out-degree demand unmet" v :: !problems;
    if
      v <> p.Augment.root
      && Digraph.in_degree g v >= 2
      && Menger.vertex_disjoint_paths g ~src:p.Augment.root ~dst:v < 2
    then problems := Printf.sprintf "vertex %d lacks 2 root paths" v :: !problems;
    if
      v <> p.Augment.sink
      && Digraph.out_degree g v >= 2
      && Menger.vertex_disjoint_paths g ~src:v ~dst:p.Augment.sink < 2
    then problems := Printf.sprintf "vertex %d lacks 2 sink paths" v :: !problems
  done;
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " ps)

let verify_t =
  Alcotest.result Alcotest.unit Alcotest.string

(* Every other new edge dropped: a broken augmentation whose error list
   exercises the degree and the path checks together. *)
let drop_half edges = List.filteri (fun i _ -> i mod 2 = 0) edges

let test_verify_dominator_itc02 () =
  List.iter
    (fun name ->
      let net = Itc02.rsn (Option.get (Itc02.find name)) in
      let p = Augment.of_netlist net in
      let sol = Augment.solve p in
      List.iter
        (fun (what, edges) ->
          let got = Augment.verify p edges in
          check verify_t
            (Printf.sprintf "%s %s: dominators = Menger" name what)
            (menger_verify p edges) got)
        [
          ("valid", sol.Augment.new_edges);
          ("half dropped", drop_half sol.Augment.new_edges);
          ("none", []);
        ];
      check bool_t (name ^ " valid augmentation verifies") true
        (Augment.verify p sol.Augment.new_edges = Ok ()))
    [ "u226"; "d695"; "x1331"; "q12710" ]

(* Random leveled DAGs: root 0 at level 0, sink 1 above every other
   level, forward edges only; the candidate new edges are random
   level-respecting pairs, including same-level ones in both directions,
   so some augmentations are cyclic. *)
let prop_verify_dominator_random =
  QCheck.Test.make ~name:"Augment.verify: dominators = Menger (random DAGs)"
    ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 3 + Random.State.int st 12 in
      let top = 1 + Random.State.int st 4 in
      let levels =
        Array.init n (fun v ->
            if v = 0 then 0 else if v = 1 then top + 1
            else 1 + Random.State.int st top)
      in
      let g = Digraph.create ~size_hint:n () in
      Digraph.add_vertices g n;
      let density = Random.State.float st 0.6 in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if
            u <> 1 && v <> 0 && levels.(u) < levels.(v)
            && Random.State.float st 1.0 < density
          then Digraph.add_edge g u v
        done
      done;
      let p = Augment.problem_of_graph g ~levels ~root:0 ~sink:1 in
      let extra = ref [] in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if
            u <> v && u <> 1 && v <> 0
            && levels.(v) >= levels.(u)
            && (not (Digraph.has_edge g u v))
            && Random.State.float st 1.0 < 0.25
          then extra := (u, v) :: !extra
        done
      done;
      let edges = List.rev !extra in
      List.for_all
        (fun es -> Augment.verify p es = menger_verify p es)
        [ edges; drop_half edges; [] ])

let test_synthesis_valid_and_reset_preserved () =
  let net = small_sib () in
  let r = Pipeline.synthesize net in
  check bool_t "ft validates" true (Netlist.validate r.Pipeline.ft = Ok ());
  check bool_t "select hardened" true r.Pipeline.ft.Netlist.select_hardened;
  check bool_t "dual ports" true r.Pipeline.ft.Netlist.dual_ports;
  (* Same number of segments; more muxes. *)
  check int_t "segments preserved" (Netlist.num_segments net)
    (Netlist.num_segments r.Pipeline.ft);
  check bool_t "muxes added" true
    (Netlist.num_muxes r.Pipeline.ft > Netlist.num_muxes net);
  check bool_t "all ft muxes TMR" true
    (Array.for_all (fun m -> m.Netlist.mux_tmr) r.Pipeline.ft.Netlist.muxes)

let test_ft_all_accessible_fault_free () =
  let net = small_sib () in
  let r = Pipeline.synthesize net in
  let ctx = Engine.make_ctx r.Pipeline.ft in
  let v = Engine.analyze ctx None in
  check int_t "fault-free ft fully accessible" (Netlist.num_segments net)
    (Engine.accessible_count v)

let test_ft_original_paths_still_configurable () =
  (* Every scan path configurable in the original RSN stays configurable
     in the fault-tolerant one, and fault-free retargeting uses exactly
     the original routes: same CSU count, same segments on every active
     path (paper §IV intro).  Absolute cycle counts grow only by the
     hosted control bits appended to on-path segments. *)
  let net = small_sib () in
  let r = Pipeline.synthesize net in
  let ctx_o = Engine.make_ctx net in
  let ctx_f = Engine.make_ctx r.Pipeline.ft in
  for s = 0 to Netlist.num_segments net - 1 do
    match
      ( Retarget.plan_write ctx_o ~target:s (),
        Retarget.plan_write ctx_f ~target:s () )
    with
    | Some po, Some pf ->
        check (Alcotest.list int_t)
          (Printf.sprintf "same access path for %s" (Netlist.segment_name net s))
          po.Retarget.access_path pf.Retarget.access_path;
        check int_t
          (Printf.sprintf "same CSU count for %s" (Netlist.segment_name net s))
          (List.length po.Retarget.steps)
          (List.length pf.Retarget.steps);
        (* Cycle growth bounded by the total appended control bits. *)
        let growth = Netlist.total_bits r.Pipeline.ft - Netlist.total_bits net in
        let csus = 1 + List.length po.Retarget.steps in
        check bool_t
          (Printf.sprintf "latency growth bounded for %s"
             (Netlist.segment_name net s))
          true
          (pf.Retarget.cycles <= po.Retarget.cycles + (csus * growth))
    | _ -> Alcotest.fail "plans must exist"
  done

let test_metric_original_sib () =
  let net = small_sib () in
  let m = Metric.evaluate net in
  check (Alcotest.float 1e-9) "worst case is total loss" 0.0
    m.Metric.worst_segments;
  check bool_t "average strictly between 0 and 1" true
    (m.Metric.avg_segments > 0.3 && m.Metric.avg_segments < 1.0)

let test_metric_ft () =
  let net = small_sib () in
  let r = Pipeline.synthesize net in
  let m = Metric.evaluate r.Pipeline.ft in
  let n = float_of_int (Netlist.num_segments net) in
  (* Worst case: all but one segment accessible (paper §IV-B). *)
  check bool_t
    (Printf.sprintf "ft worst >= (n-1)/n (got %.3f)" m.Metric.worst_segments)
    true
    (m.Metric.worst_segments >= (n -. 1.) /. n -. 1e-9);
  check bool_t "ft avg > 0.9" true (m.Metric.avg_segments > 0.9);
  let mo = Metric.evaluate net in
  check bool_t "ft strictly better on average" true
    (m.Metric.avg_segments > mo.Metric.avg_segments)

let test_area_ratios_shape () =
  let net = small_sib () in
  let r = Pipeline.synthesize net in
  let rt = r.Pipeline.area_ratios in
  (* On a toy 8-segment network every per-mux overhead (TMR replicas in
     particular) is large relative to the 14 instrument bits, so the
     Table I magnitudes do not apply; the scale-dependent shape checks
     live in the ITC'02 reproduction harness.  Here: everything grows, and
     the area ratio cannot exceed the worst component ratio. *)
  check bool_t "mux ratio > 2" true (rt.Area.r_mux > 2.0);
  check bool_t "bits grow" true (rt.Area.r_bits > 1.0);
  check bool_t "nets grow" true (rt.Area.r_nets > 1.0);
  check bool_t "area bounded by max component" true
    (rt.Area.r_area <= 1.05 *. Float.max rt.Area.r_mux rt.Area.r_bits)

let test_fig2_style_pipeline () =
  (* A non-SIB network with an explicit branch also synthesizes. *)
  let b = Ftrsn_rsn.Builder.create "fig2" in
  let a =
    Ftrsn_rsn.Builder.add_segment b ~shadow:2 ~name:"A" ~len:2
      ~input:Netlist.Scan_in ()
  in
  let s =
    Ftrsn_rsn.Builder.add_segment b ~name:"B" ~len:3 ~input:(Netlist.Seg a) ()
  in
  let c =
    Ftrsn_rsn.Builder.add_segment b ~name:"C" ~len:4 ~input:(Netlist.Seg s) ()
  in
  let m1 =
    Ftrsn_rsn.Builder.add_mux b ~name:"m1"
      ~inputs:[ Netlist.Seg s; Netlist.Seg c ]
      ~addr:[ Netlist.Ctrl_shadow { cseg = a; cbit = 0 } ]
      ()
  in
  let d =
    Ftrsn_rsn.Builder.add_segment b ~name:"D" ~len:2 ~input:(Netlist.Mux m1) ()
  in
  let net = Ftrsn_rsn.Builder.finish b ~out:(Netlist.Seg d) () in
  let r = Pipeline.synthesize net in
  let m = Metric.evaluate r.Pipeline.ft in
  check bool_t "fig2 ft worst: all but one" true
    (m.Metric.worst_segments >= 0.75 -. 1e-9)

(* Property: the pipeline on random SIB hierarchies always yields a valid
   FT netlist whose worst-case accessibility is all-but-one segment and
   whose reset path equals the original's. *)
let random_spec st =
  let rec gen depth budget =
    if budget <= 0 then []
    else
      let n = 1 + Random.State.int st 3 in
      List.init n (fun i ->
          if depth >= 2 || Random.State.bool st then
            Sib.leaf
              ~name:(Printf.sprintf "l%d_%d_%d" depth i (Random.State.int st 1000))
              ~len:(1 + Random.State.int st 4)
          else
            Sib.Sib
              {
                name = Printf.sprintf "g%d_%d_%d" depth i (Random.State.int st 1000);
                inner = gen (depth + 1) (budget / 2);
              })
  in
  let rec fix = function
    | Sib.Segment _ as s -> s
    | Sib.Sib { name; inner } ->
        let inner = List.map fix inner in
        let inner =
          if inner = [] then
            [ Sib.Segment { name = name ^ ".pad"; len = 1; shadow = 0 } ]
          else inner
        in
        Sib.Sib { name; inner }
  in
  List.map fix (gen 0 5)

let prop_pipeline_random_sibs =
  QCheck.Test.make ~name:"pipeline sound on random SIB hierarchies" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let specs = random_spec st in
      if specs = [] then true
      else begin
        let net = Sib.build ~name:"rand" specs in
        let r = Pipeline.synthesize net in
        let ok_valid = Netlist.validate r.Pipeline.ft = Ok () in
        let n = float_of_int (Netlist.num_segments net) in
        let m = Metric.evaluate r.Pipeline.ft in
        let ok_worst = m.Metric.worst_segments >= ((n -. 1.) /. n) -. 1e-9 in
        let ok_reset =
          Config.active_path net (Config.reset net)
          = Config.active_path r.Pipeline.ft (Config.reset r.Pipeline.ft)
        in
        ok_valid && ok_worst && ok_reset
      end)

let test_parallel_metric_exact () =
  (* Multi-domain evaluation merges to the sequential result: integer
     fields exactly, averages up to floating-point summation order. *)
  let net = small_sib () in
  let seq = Metric.evaluate net in
  let par = Metric.evaluate ~domains:3 net in
  check int_t "fault count" seq.Metric.faults par.Metric.faults;
  check int_t "weight" seq.Metric.total_weight par.Metric.total_weight;
  check (Alcotest.float 1e-12) "worst segments" seq.Metric.worst_segments
    par.Metric.worst_segments;
  check (Alcotest.float 1e-9) "avg segments" seq.Metric.avg_segments
    par.Metric.avg_segments;
  check (Alcotest.float 1e-9) "avg bits" seq.Metric.avg_bits
    par.Metric.avg_bits

(* The work-stealing scheduler is the unit of work distribution (it
   replaced the static split_chunks); its contract: one partial per
   domain, every item folded exactly once, exact results for commutative
   folds regardless of the domain count. *)
let test_steal_map () =
  let items n = Array.init n Fun.id in
  let sum ~domains n =
    Metric.steal_map ~domains (items n)
      ~init:(fun _ -> ref 0)
      ~step:(fun acc i -> acc := !acc + i)
      ~finish:(fun acc -> !acc)
  in
  let total partials = List.fold_left (fun a (s, _) -> a + s) 0 partials in
  let steals partials = List.fold_left (fun a (_, st) -> a + st) 0 partials in
  let expect = 100 * 99 / 2 in
  let seq = sum ~domains:1 100 in
  check int_t "one partial per domain (sequential)" 1 (List.length seq);
  check int_t "sequential sum exact" expect (total seq);
  check int_t "sequential run steals nothing" 0 (steals seq);
  let par = sum ~domains:3 100 in
  check int_t "one partial per domain (parallel)" 3 (List.length par);
  check int_t "parallel sum exact" expect (total par);
  let wide = sum ~domains:8 5 in
  check int_t "more domains than items" 8 (List.length wide);
  check int_t "starved domains contribute empty partials" (5 * 4 / 2)
    (total wide);
  check int_t "empty item array" 0 (total (sum ~domains:4 0));
  (* Each item is claimed exactly once: the partials partition the items. *)
  let seen =
    Metric.steal_map ~domains:3 (items 50)
      ~init:(fun _ -> ref [])
      ~step:(fun acc i -> acc := i :: !acc)
      ~finish:(fun acc -> !acc)
  in
  let all = List.concat_map fst seen |> List.sort compare in
  check (Alcotest.list int_t) "items partitioned across domains"
    (Array.to_list (items 50)) all

(* ---- fault-universe reduction properties ----

   The reduction layer (summary collapsing + cone-of-influence deltas +
   the work-stealing scheduler) claims bit-identical results; these
   properties pin that claim down against the brute-force path, for both
   engines, with exact float equality. *)

let same_result (a : Metric.result) (b : Metric.result) =
  a.Metric.worst_segments = b.Metric.worst_segments
  && a.Metric.avg_segments = b.Metric.avg_segments
  && a.Metric.worst_bits = b.Metric.worst_bits
  && a.Metric.avg_bits = b.Metric.avg_bits
  && a.Metric.faults = b.Metric.faults
  && a.Metric.total_weight = b.Metric.total_weight

let prop_reduction_exact_structural =
  QCheck.Test.make
    ~name:"reduced metric = brute force (structural, random nets)" ~count:12
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Ftrsn_rsn.Random_net.generate ~seed ~segments:(6 + (seed mod 5)) ()
      in
      same_result (Metric.evaluate net) (Metric.evaluate ~reduce:false net))

let prop_reduction_exact_bmc =
  QCheck.Test.make ~name:"reduced metric = brute force (BMC, random nets)"
    ~count:4
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Ftrsn_rsn.Random_net.generate ~seed ~segments:5 () in
      same_result
        (Metric.evaluate ~engine:`Bmc net)
        (Metric.evaluate ~engine:`Bmc ~reduce:false net))

let test_reduction_exact_bmc_sibs () =
  List.iter
    (fun net ->
      check bool_t
        (net.Netlist.net_name ^ ": bmc reduced = brute")
        true
        (same_result
           (Metric.evaluate ~engine:`Bmc net)
           (Metric.evaluate ~engine:`Bmc ~reduce:false net)))
    [ tiny_sib (); small_sib () ]

let test_reduction_exact_u226 () =
  let net = Itc02.rsn (Option.get (Itc02.find "u226")) in
  let red = Metric.evaluate net in
  let brute = Metric.evaluate ~reduce:false net in
  check bool_t "bit-identical result" true (same_result red brute);
  (match red.Metric.reduction with
  | None -> Alcotest.fail "reduced run must report reduction stats"
  | Some r ->
      check int_t "stats cover the universe" brute.Metric.faults
        r.Metric.r_universe;
      check bool_t "collapsing reduces" true
        (r.Metric.r_classes < r.Metric.r_universe);
      check bool_t "cones bounded by the segment count" true
        (r.Metric.r_cone_max <= Netlist.num_segments net));
  check bool_t "brute run has no reduction stats" true
    (brute.Metric.reduction = None);
  (* The work-stealing scheduler leaves the result bit-identical, and the
     shared cursor actually moves work across domains. *)
  let par = Metric.evaluate ~domains:3 net in
  check bool_t "parallel reduced identical" true (same_result red par);
  check bool_t "parallel brute identical" true
    (same_result brute (Metric.evaluate ~reduce:false ~domains:3 net));
  check int_t "sequential run steals nothing" 0 red.Metric.steals

let prop_collapse_weights =
  QCheck.Test.make ~name:"class weights sum to the universe weight" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Ftrsn_rsn.Random_net.generate ~seed ~segments:(4 + (seed mod 7)) ()
      in
      let universe = Fault.universe net in
      let classes = Fault.collapse net universe in
      let w = List.fold_left (fun a f -> a + Fault.weight net f) 0 universe in
      let cw = List.fold_left (fun a c -> a + c.Fault.cls_weight) 0 classes in
      let members =
        List.fold_left
          (fun a c -> a + List.length c.Fault.cls_members)
          0 classes
      in
      cw = w && members = List.length universe)

(* The collapse as it was before both views shared one class-index
   partition: a hash-table cell per class holding its member list and
   weight.  Kept as the oracle of [Fault.collapse] and
   [Fault.collapse_counts]. *)
let collapse_oracle net faults =
  let masked = Fault.port_mask_table net in
  let tbl = Hashtbl.create 256 in
  let order = ref [] in
  List.iter
    (fun f ->
      let sm = Fault.summarize ~port_masked:masked net f in
      match Hashtbl.find_opt tbl sm with
      | Some (members, w) ->
          members := f :: !members;
          w := !w + Fault.weight net f
      | None ->
          let cell = (ref [ f ], ref (Fault.weight net f)) in
          Hashtbl.add tbl sm cell;
          order := (sm, cell) :: !order)
    faults;
  List.rev_map (fun (sm, (members, w)) -> (sm, List.rev !members, !w)) !order

let collapse_views_match net model =
  let u = Fault.universe ~model net in
  let want = collapse_oracle net u in
  let got = Fault.collapse net u in
  let sms, weights, sizes = Fault.collapse_counts net u in
  List.length got = List.length want
  && List.for_all2
       (fun c (sm, members, w) ->
         c.Fault.cls_summary = sm && c.Fault.cls_members = members
         && c.Fault.cls_rep = List.hd members
         && c.Fault.cls_weight = w)
       got want
  && Array.to_list sms = List.map (fun (sm, _, _) -> sm) want
  && Array.to_list weights = List.map (fun (_, _, w) -> w) want
  && Array.to_list sizes = List.map (fun (_, m, _) -> List.length m) want

let all_models = [ Fault.Stuck; Fault.Bridge; Fault.Select; Fault.Transient ]

let prop_collapse_views =
  QCheck.Test.make ~name:"collapse and collapse_counts match the oracle"
    ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Ftrsn_rsn.Random_net.generate ~seed ~segments:(4 + (seed mod 9)) ()
      in
      List.for_all (collapse_views_match net) all_models)

let test_collapse_views_u226 () =
  let net = Itc02.rsn (Option.get (Itc02.find "u226")) in
  let ft = (Pipeline.synthesize net).Pipeline.ft in
  List.iter
    (fun (name, n) ->
      List.iter
        (fun model ->
          check bool_t
            (name ^ ": collapse views = oracle")
            true
            (collapse_views_match n model))
        all_models)
    [ ("u226", net); ("u226-ft", ft) ]

let test_metric_engines_agree () =
  (* The BMC engine, driven through incremental sessions, reproduces the
     structural metric exactly — verdict for verdict, so every float field
     coincides — and reports its solver statistics. *)
  List.iter
    (fun net ->
      let s = Metric.evaluate net in
      let b = Metric.evaluate ~engine:`Bmc net in
      let name = net.Netlist.net_name in
      check int_t (name ^ ": fault count") s.Metric.faults b.Metric.faults;
      check int_t (name ^ ": weight") s.Metric.total_weight
        b.Metric.total_weight;
      check (Alcotest.float 1e-12) (name ^ ": worst segments")
        s.Metric.worst_segments b.Metric.worst_segments;
      check (Alcotest.float 1e-12) (name ^ ": worst bits")
        s.Metric.worst_bits b.Metric.worst_bits;
      check (Alcotest.float 1e-9) (name ^ ": avg segments")
        s.Metric.avg_segments b.Metric.avg_segments;
      check (Alcotest.float 1e-9) (name ^ ": avg bits") s.Metric.avg_bits
        b.Metric.avg_bits;
      check bool_t (name ^ ": structural has no solver stats") true
        (s.Metric.solver = None);
      match b.Metric.solver with
      | None -> Alcotest.fail (name ^ ": bmc metric must report solver stats")
      | Some st ->
          check bool_t (name ^ ": clauses were emitted") true
            (st.Metric.s_clauses_emitted > 0);
          check bool_t (name ^ ": clauses were reused") true
            (st.Metric.s_nodes_reused > 0))
    [ tiny_sib (); small_sib () ]

let test_metric_bmc_parallel () =
  (* Multi-domain BMC evaluation (one session per domain) merges to the
     sequential result; solver stats accumulate across sessions. *)
  let net = tiny_sib () in
  let seq = Metric.evaluate ~engine:`Bmc net in
  let par = Metric.evaluate ~engine:`Bmc ~domains:2 net in
  check int_t "fault count" seq.Metric.faults par.Metric.faults;
  check (Alcotest.float 1e-12) "worst segments" seq.Metric.worst_segments
    par.Metric.worst_segments;
  check (Alcotest.float 1e-9) "avg segments" seq.Metric.avg_segments
    par.Metric.avg_segments;
  match par.Metric.solver with
  | None -> Alcotest.fail "parallel bmc metric must report solver stats"
  | Some st -> check bool_t "emitted > 0" true (st.Metric.s_clauses_emitted > 0)

let test_pairs_weighted_and_parallel () =
  let net = small_sib () in
  let seq = Metric.evaluate_pairs ~sample:11 net in
  (* Pair weights are the product of the member fault weights (all 1 in
     the default model, so total weight = pair count). *)
  check int_t "weight = sum of pair weight products" seq.Metric.faults
    seq.Metric.total_weight;
  check bool_t "pairs never beat the best single fault" true
    (seq.Metric.worst_segments
    <= (Metric.evaluate net).Metric.worst_segments +. 1e-12);
  let par = Metric.evaluate_pairs ~sample:11 ~domains:3 net in
  check int_t "parallel: same pair count" seq.Metric.faults par.Metric.faults;
  check int_t "parallel: same weight" seq.Metric.total_weight
    par.Metric.total_weight;
  check (Alcotest.float 1e-12) "parallel: same worst"
    seq.Metric.worst_segments par.Metric.worst_segments;
  check (Alcotest.float 1e-9) "parallel: same average"
    seq.Metric.avg_segments par.Metric.avg_segments

(* ---- exhaustive double-fault sweep properties ----

   The pair reduction (class-pair collapsing + disjoint-cone splicing +
   stacked deltas) claims bit-identical results against the brute pair
   enumeration; these properties pin that down with exact float equality,
   for both engines, sequentially and across domains. *)

let prop_pairs_exhaustive_exact_structural =
  QCheck.Test.make
    ~name:"exhaustive pair sweep = brute pairs (structural, random nets)"
    ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Ftrsn_rsn.Random_net.generate ~seed ~segments:(5 + (seed mod 4)) ()
      in
      let red = Metric.evaluate_pairs ~exhaustive:true net in
      let brute = Metric.evaluate_pairs ~exhaustive:true ~reduce:false net in
      let par = Metric.evaluate_pairs ~exhaustive:true ~domains:3 net in
      same_result red brute && same_result red par)

let prop_pairs_exhaustive_exact_bmc =
  QCheck.Test.make
    ~name:"exhaustive pair sweep = brute pairs (BMC, random nets)" ~count:2
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Ftrsn_rsn.Random_net.generate ~seed ~segments:4 () in
      let red = Metric.evaluate_pairs ~engine:`Bmc ~exhaustive:true net in
      let brute =
        Metric.evaluate_pairs ~engine:`Bmc ~exhaustive:true ~reduce:false net
      in
      let par =
        Metric.evaluate_pairs ~engine:`Bmc ~exhaustive:true ~domains:2 net
      in
      same_result red brute && same_result red par)

let test_pairs_exhaustive_u226 () =
  (* A real ITC'02 SoC, fault universe thinned to keep the brute reference
     tractable; the exhaustive sweep must match it bit for bit and report
     coherent dispatch statistics. *)
  let net = Itc02.rsn (Option.get (Itc02.find "u226")) in
  let red = Metric.evaluate_pairs ~exhaustive:true ~fault_sample:16 net in
  let brute =
    Metric.evaluate_pairs ~exhaustive:true ~reduce:false ~fault_sample:16 net
  in
  check bool_t "bit-identical to brute pairs" true (same_result red brute);
  check bool_t "brute run has no pair stats" true (brute.Metric.pairs = None);
  let par =
    Metric.evaluate_pairs ~exhaustive:true ~fault_sample:16 ~domains:3 net
  in
  check bool_t "parallel exhaustive identical" true (same_result red par);
  (* The dispatch is structural: every row is discovered, stacked and
     batched the same way whichever domain runs it. *)
  check bool_t "parallel pair dispatch identical" true
    (par.Metric.pairs = red.Metric.pairs && par.Metric.pairs <> None);
  check bool_t "parallel pair-lane stats identical" true
    (par.Metric.pair_lanes = red.Metric.pair_lanes);
  check bool_t "brute run has no pair-lane stats" true
    (brute.Metric.pair_lanes = None);
  (match red.Metric.pair_lanes with
  | None -> Alcotest.fail "lane sweep must report pair-lane stats"
  | Some l ->
      check bool_t "lane batches fire on stacked rows" true
        (l.Engine.ls_batches > 0 && l.Engine.ls_lanes > 0);
      check bool_t "lanes per batch bounded" true
        (l.Engine.ls_lanes <= l.Engine.ls_batches * Ftrsn_topo.Lanes.width
        && l.Engine.ls_masked <= l.Engine.ls_lanes));
  match red.Metric.pairs with
  | None -> Alcotest.fail "exhaustive sweep must report pair stats"
  | Some p ->
      check int_t "dispatch covers every class pair" p.Metric.p_class_pairs
        (p.Metric.p_diagonal + p.Metric.p_disjoint + p.Metric.p_stacked);
      check int_t "one diagonal pair per class" p.Metric.p_classes
        p.Metric.p_diagonal;
      check int_t "class pairs = nc*(nc+1)/2"
        (p.Metric.p_classes * (p.Metric.p_classes + 1) / 2)
        p.Metric.p_class_pairs;
      check bool_t "at most one secondary baseline per row" true
        (p.Metric.p_stacks <= p.Metric.p_classes);
      check bool_t "the fast paths fire" true
        (p.Metric.p_diagonal + p.Metric.p_disjoint > 0)

let test_pairs_disjoint_and () =
  (* The non-interacting fast path rests on: for class pairs with
     disjoint interaction regions and no mutual-support hazard (each
     class's re-route certificates avoid the other's exact damage, and
     the hosts they rest on keep their writability and canonical
     certificates under the other fault), the pair verdict is the
     pointwise AND of the two single-fault verdicts.  Check that claim
     verdict-by-verdict (not just in the counts) against analyze_multi,
     on the hand-built nets and a band of random ones, using the SAME
     gate Metric.pair_row applies. *)
  let checked = ref 0 in
  let check_net net =
    let name = net.Netlist.net_name in
    let ctx = Engine.make_ctx net in
    let base = Engine.baseline ctx in
    let nsegs = Netlist.num_segments net in
    let classes = Array.of_list (Fault.collapse net (Fault.universe net)) in
    let probes =
      Array.map (fun c -> Engine.probe ctx base c.Fault.cls_summary) classes
    in
    let bw = (Engine.baseline_verdict base).Engine.writable in
    let wlosts =
      Array.map
        (fun (p : Engine.probe) ->
          let w = Ftrsn_topo.Bitset.create nsegs in
          for s = 0 to nsegs - 1 do
            if bw.(s) && not p.Engine.pr_verdict.Engine.writable.(s) then
              Ftrsn_topo.Bitset.add w s
          done;
          w)
        probes
    in
    Array.iteri
      (fun i (pi : Engine.probe) ->
        for j = i + 1 to Array.length classes - 1 do
          let pj = probes.(j) in
          if
            Ftrsn_topo.Bitset.disjoint pi.Engine.pr_region
              pj.Engine.pr_region
            && Ftrsn_topo.Bitset.disjoint pi.Engine.pr_supp_edges
                 pj.Engine.pr_dead_edges
            && Ftrsn_topo.Bitset.disjoint pj.Engine.pr_supp_edges
                 pi.Engine.pr_dead_edges
            && Ftrsn_topo.Bitset.disjoint pi.Engine.pr_supp
                 pj.Engine.pr_dmg
            && Ftrsn_topo.Bitset.disjoint pj.Engine.pr_supp
                 pi.Engine.pr_dmg
            && Ftrsn_topo.Bitset.disjoint pi.Engine.pr_rhosts
                 pj.Engine.pr_fragile
            && Ftrsn_topo.Bitset.disjoint pj.Engine.pr_rhosts
                 pi.Engine.pr_fragile
            && Ftrsn_topo.Bitset.disjoint pi.Engine.pr_rhosts wlosts.(j)
            && Ftrsn_topo.Bitset.disjoint pj.Engine.pr_rhosts wlosts.(i)
          then begin
            incr checked;
            let pair =
              Engine.analyze_multi ctx
                [ classes.(i).Fault.cls_rep; classes.(j).Fault.cls_rep ]
            in
            let vi = pi.Engine.pr_verdict and vj = pj.Engine.pr_verdict in
            for s = 0 to nsegs - 1 do
              let row msg f =
                if
                  (f pair).(s) <> ((f vi).(s) && (f vj).(s))
                then
                  Alcotest.fail
                    (Printf.sprintf "%s: %s AND mismatch at seg %d" name msg
                       s)
              in
              row "writable" (fun (v : Engine.verdict) -> v.Engine.writable);
              row "readable" (fun v -> v.Engine.readable);
              row "accessible" (fun v -> v.Engine.accessible)
            done
          end
        done)
      probes
  in
  List.iter check_net [ tiny_sib (); small_sib () ];
  for seed = 0 to 60 do
    check_net
      (Ftrsn_rsn.Random_net.generate ~seed ~segments:(6 + (seed mod 5)) ())
  done;
  check bool_t "some non-interacting class pair exists" true (!checked > 0)

let test_report_row_and_csv () =
  let net = small_sib () in
  let row = Ftrsn_core.Report.row ~name:"small" net in
  check int_t "segments" 8 row.Ftrsn_core.Report.segments;
  check bool_t "ft better" true
    (row.Ftrsn_core.Report.ft_metric.Metric.avg_segments
     > row.Ftrsn_core.Report.orig_metric.Metric.avg_segments);
  let csv = Ftrsn_core.Report.to_csv row in
  let fields = String.split_on_char ',' csv in
  let headers = String.split_on_char ',' Ftrsn_core.Report.csv_header in
  check int_t "csv arity matches header" (List.length headers)
    (List.length fields);
  check bool_t "csv row names the soc" true (List.hd fields = "small")

let test_area_profile_sensitivity () =
  (* A different technology mapping changes the area ratio but not the
     structural columns, and both mappings agree on the ordering. *)
  let net = small_sib () in
  let r = Pipeline.synthesize net in
  let port_muxes = r.Pipeline.syn_stats.Synthesis.port_muxes in
  let with_tech t =
    Area.ratios
      ~orig:(Area.of_netlist ~technology:t net)
      ~ft:(Area.of_netlist ~technology:t ~port_muxes r.Pipeline.ft)
  in
  let d = with_tech Area.default_technology in
  let c = with_tech Area.compact_technology in
  check bool_t "mux ratio identical (structural)" true
    (abs_float (d.Area.r_mux -. c.Area.r_mux) < 1e-9);
  check bool_t "bits ratio identical (structural)" true
    (abs_float (d.Area.r_bits -. c.Area.r_bits) < 1e-9);
  check bool_t "area ratios differ but stay > 1" true
    (d.Area.r_area > 1.0 && c.Area.r_area > 1.0
    && abs_float (d.Area.r_area -. c.Area.r_area) > 1e-6)

let test_pre_flavor_pipeline () =
  (* The SIB-pre realization (mux before the register) goes through the
     whole pipeline with the same guarantees. *)
  let specs =
    [
      Sib.Sib
        {
          name = "mod1";
          inner = [ Sib.leaf ~name:"c1" ~len:3; Sib.leaf ~name:"c2" ~len:2 ];
        };
      Sib.Sib { name = "mod2"; inner = [ Sib.leaf ~name:"c3" ~len:4 ] };
    ]
  in
  let net = Sib.build ~flavor:`Pre ~name:"pre" specs in
  check bool_t "validates" true (Netlist.validate net = Ok ());
  check int_t "same counts as post" (Sib.count_segments specs)
    (Netlist.num_segments net);
  (match Config.active_path net (Config.reset net) with
  | Some path -> check int_t "reset path = module SIBs" 2 (List.length path)
  | None -> Alcotest.fail "valid reset");
  let r = Pipeline.synthesize net in
  let m = Metric.evaluate r.Pipeline.ft in
  let n = float_of_int (Netlist.num_segments net) in
  check bool_t "pre-flavor ft worst: all but one" true
    (m.Metric.worst_segments >= ((n -. 1.) /. n) -. 1e-9);
  (* Fault-free plans execute on the simulator. *)
  let ctx = Engine.make_ctx net in
  for s = 0 to Netlist.num_segments net - 1 do
    match Retarget.plan_write ctx ~target:s () with
    | None -> Alcotest.fail "plan must exist"
    | Some plan -> (
        let pattern = List.init (Netlist.seg_len net s) (fun i -> i mod 2 = 1) in
        match Retarget.execute net plan ~pattern with
        | Error e -> Alcotest.fail e
        | Ok state ->
            List.iteri
              (fun j v ->
                if state.Ftrsn_rsn.Sim.shift.(s).(j) <> v then
                  Alcotest.fail "pre-flavor write mismatch")
              pattern)
  done

let test_ablation_mechanisms_load_bearing () =
  (* Each hardening mechanism earns its keep on the small network:
     disabling dual ports or rescue lines reintroduces a total-loss fault;
     the full synthesis never loses more than one segment. *)
  let net = small_sib () in
  let worst options =
    let r = Pipeline.synthesize ~options net in
    (Metric.evaluate r.Pipeline.ft).Metric.worst_segments
  in
  let d = Synthesis.default_options in
  let n = float_of_int (Netlist.num_segments net) in
  check bool_t "full synthesis: all but one" true
    (worst d >= ((n -. 1.) /. n) -. 1e-9);
  check (Alcotest.float 1e-9) "no dual ports: total loss possible" 0.0
    (worst { d with Synthesis.opt_dual_ports = false });
  check bool_t "no rescue lines: strictly worse" true
    (worst { d with Synthesis.opt_rescue_lines = false } < worst d -. 1e-9);
  check bool_t "no TMR: strictly worse" true
    (worst { d with Synthesis.opt_tmr = false } < worst d -. 1e-9);
  (* Select hardening affects area only under the port-level select fault
     model (one site per segment). *)
  let area options =
    (Pipeline.synthesize ~options net).Pipeline.area_ratios.Area.r_area
  in
  check bool_t "select hardening costs area" true
    (area { d with Synthesis.opt_select_hardening = false } < area d)

(* Property: the exact ILP and the min-cost-flow solver agree on the
   augmentation cost for random small SIB hierarchies (the flow relaxation
   is integral and the window hides no cheaper edge). *)
let prop_ilp_flow_cost_equal =
  QCheck.Test.make ~name:"ILP cost = flow cost on random SIB nets" ~count:12
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let specs =
        List.init
          (1 + Random.State.int st 2)
          (fun i ->
            Sib.Sib
              {
                name = Printf.sprintf "g%d" i;
                inner =
                  List.init
                    (1 + Random.State.int st 2)
                    (fun j ->
                      Sib.leaf
                        ~name:(Printf.sprintf "l%d_%d" i j)
                        ~len:(1 + Random.State.int st 3));
              })
      in
      let net = Sib.build ~name:"rnd" specs in
      let p = Augment.of_netlist net in
      match (Augment.solve_ilp p, Augment.solve_flow ~window:64 p) with
      | Some ilp, Some flow -> ilp.Augment.cost = flow.Augment.cost
      | _ -> false)

let suite =
  [
    Alcotest.test_case "augmentation demands" `Quick test_demands;
    Alcotest.test_case "ilp and flow solvers agree" `Quick test_ilp_flow_agree;
    Alcotest.test_case "augmentation verifies" `Quick test_augmentation_verified;
    Alcotest.test_case "augmented graph two-connected" `Quick
      test_augmented_two_connected;
    Alcotest.test_case "verify: dominators = Menger (ITC'02)" `Quick
      test_verify_dominator_itc02;
    Testseed.to_alcotest prop_verify_dominator_random;
    Alcotest.test_case "synthesis valid, reset preserved" `Quick
      test_synthesis_valid_and_reset_preserved;
    Alcotest.test_case "ft fully accessible fault-free" `Quick
      test_ft_all_accessible_fault_free;
    Alcotest.test_case "latency preserved" `Quick
      test_ft_original_paths_still_configurable;
    Alcotest.test_case "metric: original SIB RSN" `Quick test_metric_original_sib;
    Alcotest.test_case "metric: fault-tolerant RSN" `Quick test_metric_ft;
    Alcotest.test_case "area ratio shape" `Quick test_area_ratios_shape;
    Alcotest.test_case "fig2-style pipeline" `Quick test_fig2_style_pipeline;
    Alcotest.test_case "parallel metric exact" `Quick
      test_parallel_metric_exact;
    Alcotest.test_case "steal_map contract" `Quick test_steal_map;
    Alcotest.test_case "reduction: exact on u226, parallel exact" `Quick
      test_reduction_exact_u226;
    Alcotest.test_case "reduction: BMC exact on SIB nets" `Slow
      test_reduction_exact_bmc_sibs;
    Testseed.to_alcotest prop_reduction_exact_structural;
    Testseed.to_alcotest prop_reduction_exact_bmc;
    Testseed.to_alcotest prop_collapse_weights;
    Testseed.to_alcotest prop_collapse_views;
    Alcotest.test_case "collapse views = oracle on u226 and its FT rework"
      `Quick test_collapse_views_u226;
    Alcotest.test_case "metric: engines agree" `Slow test_metric_engines_agree;
    Alcotest.test_case "metric: BMC parallel exact" `Quick
      test_metric_bmc_parallel;
    Alcotest.test_case "pairs: weighted and parallel" `Quick
      test_pairs_weighted_and_parallel;
    Testseed.to_alcotest prop_pairs_exhaustive_exact_structural;
    Testseed.to_alcotest prop_pairs_exhaustive_exact_bmc;
    Alcotest.test_case "pairs: exhaustive exact on u226" `Slow
      test_pairs_exhaustive_u226;
    Alcotest.test_case "pairs: non-interacting pointwise AND" `Quick
      test_pairs_disjoint_and;
    Alcotest.test_case "report row and CSV" `Quick test_report_row_and_csv;
    Alcotest.test_case "area profile sensitivity" `Quick
      test_area_profile_sensitivity;
    Alcotest.test_case "SIB-pre flavor pipeline" `Quick
      test_pre_flavor_pipeline;
    Alcotest.test_case "ablation: mechanisms load-bearing" `Slow
      test_ablation_mechanisms_load_bearing;
    Testseed.to_alcotest prop_pipeline_random_sibs;
    Testseed.to_alcotest prop_ilp_flow_cost_equal;
  ]
