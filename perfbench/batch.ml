(* The three in-process workloads: table1, certify and pairs.  Each is a
   fixed list of library calls (Common.item) built from seeded inputs;
   oracles that cost real time are computed once, untimed, before the
   timed loop. *)

open Common
open Perfbench_harness
module Netlist = Ftrsn_rsn.Netlist
module Random_net = Ftrsn_rsn.Random_net
module Fault = Ftrsn_fault.Fault
module Engine = Ftrsn_access.Engine
module Bmc = Ftrsn_bmc.Bmc
module Metric = Ftrsn_core.Metric
module Pipeline = Ftrsn_core.Pipeline
module Augment = Ftrsn_core.Augment
module Synthesis = Ftrsn_core.Synthesis
module Area = Ftrsn_core.Area
module Itc02 = Ftrsn_itc02.Itc02

let pass = { verdicts = 0; ok = true; why = "" }

let soc name =
  match Itc02.find name with Some s -> s | None -> failwith ("no SoC " ^ name)

let rsn s = Trace.span "itc02.rsn" (fun () -> Itc02.rsn s)

(* Attribution probes, traced runs only: the layers Metric.evaluate
   calls internally, re-run beside it so their cost can be named without
   instrumenting the program. *)
let probe_sweep_layers net =
  if !Trace.on then begin
    let u = Trace.span "fault.universe" (fun () -> Fault.universe net) in
    ignore (Trace.span "fault.collapse" (fun () -> Fault.collapse net u));
    ignore (Trace.span "engine.make_ctx" (fun () -> Engine.make_ctx net))
  end

let probe_synth_layers net =
  if !Trace.on then begin
    let p = Trace.span "augment.of_netlist" (fun () -> Augment.of_netlist net) in
    let sol = Trace.span "augment.solve" (fun () -> Augment.solve p) in
    ignore
      (Trace.span "augment.verify" (fun () -> Augment.verify p sol.Augment.new_edges));
    let ft, st =
      Trace.span "synthesis.run" (fun () ->
          Synthesis.run net ~new_edges:sol.Augment.new_edges)
    in
    ignore
      (Trace.span "area.of_netlist" (fun () ->
           ( Area.of_netlist net,
             Area.of_netlist ~port_muxes:st.Synthesis.port_muxes ft )))
  end

(* Result records read from outside the program, summed over a pass. *)
type acc = {
  mutable results : (string * Metric.result) list;
  mutable synths : (string * Pipeline.result) list;
}

let new_acc () = { results = []; synths = [] }

let same_metric (a : Metric.result) (b : Metric.result) =
  a.Metric.worst_segments = b.Metric.worst_segments
  && a.Metric.avg_segments = b.Metric.avg_segments
  && a.Metric.worst_bits = b.Metric.worst_bits
  && a.Metric.avg_bits = b.Metric.avg_bits
  && a.Metric.faults = b.Metric.faults
  && a.Metric.total_weight = b.Metric.total_weight

(* ------------------------------------------------------------------ *)
(* table1                                                               *)

(* The committed reproduction output: section title -> SoC -> tokens. *)
let read_table1 path =
  let ic = open_in path in
  let tbl = Hashtbl.create 8 in
  let section = ref "" in
  (try
     while true do
       let l = String.trim (input_line ic) in
       if String.length l > 3 && String.sub l 0 3 = "== " then section := l
       else
         match String.split_on_char ' ' l |> List.filter (( <> ) "") with
         | name :: rest when Itc02.find name <> None ->
             Hashtbl.replace tbl (!section, name) rest
         | _ -> ()
     done
   with End_of_file -> close_in ic);
  tbl

let sec_chars = "== Table I: RSN characteristics =="
let sec_sib = "== Table I: accessibility in SIB-based RSNs =="
let sec_ft = "== Table I: accessibility in fault-tolerant RSNs =="
let sec_area = "== Table I: RSN area overhead (fault-tolerant / original) =="
let sec_aug = "== Augmentation solver statistics (paper <8 min for p93791) =="

let expect tbl sec name got =
  match Hashtbl.find_opt tbl (sec, name) with
  | None -> Error (Printf.sprintf "%s: no row in %s" name sec)
  | Some want ->
      let rec prefix = function
        | [], _ -> true
        | g :: gs, w :: ws -> g = w && prefix (gs, ws)
        | _ :: _, [] -> false
      in
      if prefix (got, want) then Ok ()
      else
        Error
          (Printf.sprintf "%s %s: got [%s], table1_full.txt has [%s]" name sec
             (String.concat " " got) (String.concat " " want))

let metric_tokens (m : Metric.result) =
  [
    Printf.sprintf "%.2f" m.Metric.worst_bits;
    Printf.sprintf "%.3f" m.Metric.avg_bits;
    Printf.sprintf "%.3f" m.Metric.worst_segments;
    Printf.sprintf "%.3f" m.Metric.avg_segments;
    Printf.sprintf "(%d" m.Metric.faults;
  ]

let of_result = function Ok () -> pass | Error why -> { pass with ok = false; why }

let table1_setup () = List.map (fun s -> (s, rsn s)) Itc02.all

let table1_items ~acc nets =
  let tbl = read_table1 "table1_full.txt" in
  List.concat_map
    (fun ((s : Itc02.soc), net) ->
      let name = s.Itc02.soc_name in
      let ft = ref None in
      let synth () =
        let r = Trace.span "pipeline.synthesize" (fun () -> Pipeline.synthesize net) in
        probe_synth_layers net;
        ft := Some r.Pipeline.ft;
        fun () ->
          acc.synths <- (name, r) :: acc.synths;
          let rt = r.Pipeline.area_ratios and a = r.Pipeline.augmentation in
          of_result
            (Result.bind
               (expect tbl sec_area name
                  (List.map (Printf.sprintf "%.2f")
                     [ rt.Area.r_mux; rt.Area.r_bits; rt.Area.r_nets; rt.Area.r_area ]))
               (fun () ->
                 expect tbl sec_aug name
                   [
                     (match a.Augment.solver with `Ilp -> "ilp" | `Flow -> "flow");
                     string_of_int (List.length a.Augment.new_edges);
                     string_of_int a.Augment.cost;
                   ]))
      in
      let sweep kind sec get () =
        let n = get () in
        let m = Trace.span ("metric.evaluate." ^ kind) (fun () -> Metric.evaluate ~domains:1 n) in
        probe_sweep_layers n;
        fun () ->
          acc.results <- (kind ^ ":" ^ name, m) :: acc.results;
          let chars =
            if kind <> "sib" then Ok ()
            else if m.Metric.worst_bits <> 0.0 || m.Metric.worst_segments <> 0.0 then
              Error (name ^ ": SIB worst case is not 0")
            else
              expect tbl sec_chars name
                (List.map string_of_int
                   [
                     s.Itc02.soc_modules;
                     Netlist.max_hier net;
                     Netlist.num_muxes net;
                     Netlist.num_segments net;
                     Netlist.total_bits net;
                   ])
          in
          let r = Result.bind chars (fun () -> expect tbl sec name (metric_tokens m)) in
          { (of_result r) with verdicts = m.Metric.faults }
      in
      let sib = sweep "sib" sec_sib (fun () -> net) in
      let ft_sweep =
        sweep "ft" sec_ft (fun () ->
            match !ft with Some n -> n | None -> failwith "ft sweep before synthesis")
      in
      [ { it_name = "synth:" ^ name; it_run = synth }; { it_name = "sib:" ^ name; it_run = sib } ]
      (* p93791's FT sweep alone takes tens of seconds: left out. *)
      @ if name = "p93791" then [] else [ { it_name = "ft:" ^ name; it_run = ft_sweep } ])
    nets
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* certify and pairs                                                    *)

(* Each call evaluates a list of netlists: one ITC'02 network, or the
   whole seeded Random_net slice as a single call, so that the median
   call latency does not depend on which random netlist lands in the
   middle. *)
let slice ~seed ~salt sizes =
  let rng = Random.State.make [| seed; salt |] in
  List.map (fun segments -> Random_net.generate ~seed:(Random.State.bits rng) ~segments ()) sizes

let all_ok name checks =
  match List.find_opt (fun c -> not c.ok) checks with
  | Some c -> { c with why = name ^ ": " ^ c.why }
  | None -> { pass with verdicts = List.fold_left (fun a c -> a + c.verdicts) 0 checks }

let certify_setup ~seed () =
  let u226 = rsn (soc "u226") in
  [
    ("q12710", [ rsn (soc "q12710") ], None);
    ("u226", [ u226 ], Some 8);
    ("x1331", [ rsn (soc "x1331") ], Some 8);
    ("u226-ft", [ (Pipeline.synthesize u226).Pipeline.ft ], Some 16);
    ("random", slice ~seed ~salt:1 [ 8; 9; 10; 11; 12; 13; 14; 16 ], None);
  ]

let certify_items ~acc calls =
  List.map
    (fun (name, nets, sample) ->
      (* The oracle: the structural engine on the same sampled universe. *)
      let wants = List.map (fun net -> Metric.evaluate ?sample net) nets in
      let run () =
        let ms =
          List.map
            (fun net ->
              if !Trace.on then
                ignore
                  (Trace.span "bmc.session" (fun () ->
                       Bmc.Session.create ~certify:true (Bmc.create net)));
              Trace.span "metric.evaluate.certified" (fun () ->
                  Metric.evaluate ?sample ~engine:`Bmc ~certify:true net))
            nets
        in
        fun () ->
          all_ok name
            (List.map2
               (fun m want ->
                 acc.results <- (name, m) :: acc.results;
                 let unsat =
                   match m.Metric.solver with Some s -> s.Metric.s_cert_unsat | None -> 0
                 in
                 if not (same_metric m want) then
                   { pass with ok = false; why = "certified BMC differs from structural" }
                 else if unsat = 0 then
                   { pass with ok = false; why = "no UNSAT verdict was certified" }
                 else { pass with verdicts = m.Metric.faults })
               ms wants)
      in
      { it_name = name; it_run = run })
    calls
  |> Array.of_list

let pair_domains = 2

let pairs_setup ~seed () =
  let q12710 = rsn (soc "q12710") and x1331 = rsn (soc "x1331") in
  [
    ("u226", [ rsn (soc "u226") ]);
    ("x1331", [ x1331 ]);
    ("q12710", [ q12710 ]);
    ("g1023", [ rsn (soc "g1023") ]);
    ("q12710-ft", [ (Pipeline.synthesize q12710).Pipeline.ft ]);
    ("x1331-ft", [ (Pipeline.synthesize x1331).Pipeline.ft ]);
    ("random", slice ~seed ~salt:2 [ 12; 16; 20; 24; 28; 32; 36; 40 ]);
  ]

let pairs_items ~acc calls =
  let smallest =
    List.concat_map snd calls
    |> List.fold_left
         (fun b n -> if Netlist.num_segments n < Netlist.num_segments b then n else b)
         (List.hd (snd (List.hd calls)))
  in
  List.map
    (fun (name, nets) ->
      (* Each net's first result is the reference for its repeats; on the
         smallest net it is the brute enumeration, computed untimed. *)
      let refs =
        List.map
          (fun net ->
            ref
              (if net == smallest then
                 Some (Metric.evaluate_pairs ~exhaustive:true ~reduce:false net)
               else None))
          nets
      in
      let run () =
        let ms =
          Trace.span ("pairs.sweep." ^ name) (fun () ->
              List.map
                (fun net -> Metric.evaluate_pairs ~exhaustive:true ~domains:pair_domains net)
                nets)
        in
        fun () ->
          all_ok name
            (List.map2
               (fun m want ->
                 acc.results <- (name, m) :: acc.results;
                 let w = match !want with Some w -> w | None -> m in
                 if !want = None then want := Some m;
                 match m.Metric.pairs with
                 | None -> { pass with ok = false; why = "no pair statistics" }
                 | Some p
                   when p.Metric.p_diagonal + p.Metric.p_disjoint + p.Metric.p_stacked
                        <> p.Metric.p_class_pairs ->
                     { pass with ok = false; why = "pair dispatch does not add up" }
                 | Some _ when not (same_metric m w) ->
                     { pass with ok = false; why = "differs from brute / first run" }
                 | Some _ -> { pass with verdicts = m.Metric.faults })
               ms refs)
      in
      { it_name = name; it_run = run })
    calls
  |> Array.of_list
