module Netlist = Ftrsn_rsn.Netlist
module Sim = Ftrsn_rsn.Sim
module Digraph = Ftrsn_topo.Digraph

type model = Stuck | Bridge | Select | Transient

let all_models = [ Stuck; Bridge; Select; Transient ]

let model_to_string = function
  | Stuck -> "stuck"
  | Bridge -> "bridge"
  | Select -> "select"
  | Transient -> "transient"

let model_of_string = function
  | "stuck" -> Some Stuck
  | "bridge" -> Some Bridge
  | "select" -> Some Select
  | "transient" -> Some Transient
  | _ -> None

type site =
  | Seg_scan_in of int
  | Seg_scan_out of int
  | Seg_shift_reg of int
  | Seg_shadow_reg of int * int
  | Seg_select of int
  | Seg_capture_en of int
  | Seg_update_en of int
  | Mux_addr of int * int
  | Mux_addr_replica of int * int * int
  | Mux_data_in of int * int
  | Mux_out of int
  | Primary_in
  | Primary_out
  | Bridge_segs of int * int
  | Mux_voter of int * int * int
  | Glitch_shadow of int * int

type t = { site : site; stuck : bool }

let stuck_universe (net : Netlist.t) =
  let sites = ref [] in
  let push s = sites := s :: !sites in
  Array.iteri
    (fun i (s : Netlist.segment) ->
      push (Seg_scan_in i);
      push (Seg_scan_out i);
      (* Internal scan cells of instrument segments are outside the paper's
         fault universe ("all actual scan cells in the scan segments ...
         beyond the scope of this paper", §IV-B); register faults are
         enumerated only for pure control registers (SIBs and
         configuration segments, whose whole shift register is mirrored by
         the shadow).  Instrument segments still contribute their port
         sites, and any hosted control bits contribute shadow sites. *)
      if s.seg_shadow = s.seg_len then push (Seg_shift_reg i);
      push (Seg_select i);
      push (Seg_capture_en i);
      if s.seg_shadow > 0 then begin
        push (Seg_update_en i);
        for b = 0 to s.seg_shadow - 1 do
          push (Seg_shadow_reg (i, b))
        done
      end)
    net.segs;
  Array.iteri
    (fun m (mx : Netlist.mux) ->
      push (Mux_out m);
      (* Inputs sharing a driver are one physical port. *)
      Array.iteri
        (fun k _ ->
          if Netlist.mux_input_class net m k = k then
            push (Mux_data_in (m, k)))
        mx.mux_inputs;
      Array.iteri
        (fun b ctrl ->
          match ctrl with
          | Netlist.Ctrl_const _ -> ()
          | Netlist.Ctrl_shadow _ | Netlist.Ctrl_primary _ ->
              push (Mux_addr (m, b));
              if mx.mux_tmr then
                for r = 0 to 2 do
                  push (Mux_addr_replica (m, b, r))
                done)
        mx.mux_addr)
    net.muxes;
  push Primary_in;
  push Primary_out;
  List.concat_map
    (fun site -> [ { site; stuck = false }; { site; stuck = true } ])
    (List.rev !sites)

let is_masked (_net : Netlist.t) f =
  match f.site with
  | Mux_addr_replica _ | Mux_voter _ -> true
  | _ -> false

(* Muxes addressed by the given shadow bit. *)
let driven_muxes (net : Netlist.t) seg bit =
  let result = ref [] in
  Array.iteri
    (fun m (mx : Netlist.mux) ->
      Array.iter
        (function
          | Netlist.Ctrl_shadow { cseg; cbit } when cseg = seg && cbit = bit ->
              result := m :: !result
          | _ -> ())
        mx.mux_addr)
    net.muxes;
  !result

let tmr_protected_shadow (net : Netlist.t) seg bit =
  let driven = driven_muxes net seg bit in
  driven <> []
  && List.for_all (fun m -> net.Netlist.muxes.(m).Netlist.mux_tmr) driven

(* ---- alternative fault models ---- *)

(* Adjacent scan-segment pairs for the bridging universe: two segments are
   adjacent when one feeds the other in the dataflow graph (their scan
   wires run between the same two elements) or when both drive data
   inputs of the same multiplexer (their output wires converge on one
   routing element).  Canonicalized [a < b], deduplicated, deterministic
   order. *)
let bridge_adjacencies (net : Netlist.t) =
  let g, _ = Netlist.dataflow_graph net in
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  let add a b =
    if a <> b then begin
      let key = if a < b then (a, b) else (b, a) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        order := key :: !order
      end
    end
  in
  List.iter
    (fun (u, v) -> if u >= 2 && v >= 2 then add (u - 2) (v - 2))
    (Digraph.edges g);
  Array.iter
    (fun (mx : Netlist.mux) ->
      let segs =
        Array.to_list mx.mux_inputs
        |> List.filter_map (function Netlist.Seg i -> Some i | _ -> None)
      in
      let rec pairs = function
        | [] -> ()
        | x :: rest ->
            List.iter (add x) rest;
            pairs rest
      in
      pairs segs)
    net.muxes;
  List.rev !order

(* Both dominance variants per adjacency: stuck=false is the wired-AND
   bridge, stuck=true the wired-OR one. *)
let bridge_universe (net : Netlist.t) =
  List.concat_map
    (fun (a, b) ->
      let site = Bridge_segs (a, b) in
      [ { site; stuck = false }; { site; stuck = true } ])
    (bridge_adjacencies net)

(* Selection-control universe: the stuck-at sites that corrupt mux
   selection rather than scanned data — select/update enables, shadow
   bits that actually drive addresses, address ports and their TMR
   replicas — plus broken-voter sites (the voter forwards replica [r]
   instead of the majority). *)
let select_universe (net : Netlist.t) =
  let sites = ref [] in
  let push s = sites := s :: !sites in
  Array.iteri
    (fun i (s : Netlist.segment) ->
      push (Seg_select i);
      if s.seg_shadow > 0 then begin
        push (Seg_update_en i);
        for b = 0 to s.seg_shadow - 1 do
          if driven_muxes net i b <> [] then push (Seg_shadow_reg (i, b))
        done
      end)
    net.segs;
  Array.iteri
    (fun m (mx : Netlist.mux) ->
      Array.iteri
        (fun b ctrl ->
          match ctrl with
          | Netlist.Ctrl_const _ -> ()
          | Netlist.Ctrl_shadow _ | Netlist.Ctrl_primary _ ->
              push (Mux_addr (m, b));
              if mx.mux_tmr then
                for r = 0 to 2 do
                  push (Mux_addr_replica (m, b, r))
                done)
        mx.mux_addr)
    net.muxes;
  let stuck_pairs =
    List.concat_map
      (fun site -> [ { site; stuck = false }; { site; stuck = true } ])
      (List.rev !sites)
  in
  (* Voter faults carry no polarity: the broken voter forwards replica
     [r] verbatim, and with a single fault all three replicas hold the
     correct value, so only one variant per replica is enumerated. *)
  let voters = ref [] in
  Array.iteri
    (fun m (mx : Netlist.mux) ->
      if mx.mux_tmr then
        Array.iteri
          (fun b ctrl ->
            match ctrl with
            | Netlist.Ctrl_const _ -> ()
            | Netlist.Ctrl_shadow _ | Netlist.Ctrl_primary _ ->
                for r = 0 to 2 do
                  voters := { site = Mux_voter (m, b, r); stuck = false } :: !voters
                done)
          mx.mux_addr)
    net.muxes;
  stuck_pairs @ List.rev !voters

(* Transient (SEU) universe: one glitch per shadow bit, flipping it away
   from its reset value while the network is otherwise quiescent (the
   upset-to-reset variant is indistinguishable from the fault-free
   network).  [stuck] records the upset value. *)
let transient_universe (net : Netlist.t) =
  let faults = ref [] in
  Array.iteri
    (fun i (s : Netlist.segment) ->
      for b = 0 to s.seg_shadow - 1 do
        faults :=
          { site = Glitch_shadow (i, b); stuck = not s.seg_reset.(b) }
          :: !faults
      done)
    net.segs;
  List.rev !faults

let universe ?(model = Stuck) (net : Netlist.t) =
  match model with
  | Stuck -> stuck_universe net
  | Bridge -> bridge_universe net
  | Select -> select_universe net
  | Transient -> transient_universe net

(* Consumer dataflow vertex of each mux and the set of scan-in successor
   vertices, from the collapsed dataflow view.  Mirrors the engine's
   cached computation. *)
let port_mask_table (net : Netlist.t) =
  if not net.Netlist.dual_ports then fun _ -> false
  else begin
    let routes = Netlist.edge_routes net in
    let consumer = Array.make (Array.length net.Netlist.muxes) (-1) in
    let pi_succ = Hashtbl.create 8 in
    Hashtbl.iter
      (fun (src, dst) rs ->
        if src = 0 then Hashtbl.replace pi_succ dst ();
        List.iter
          (List.iter (fun (m', _) -> consumer.(m') <- dst))
          rs)
      routes;
    fun m -> consumer.(m) = 1 || Hashtbl.mem pi_succ consumer.(m)
  end

let port_masked_mux (net : Netlist.t) m = port_mask_table net m

let to_injection (net : Netlist.t) f =
  let v = f.stuck in
  let base = Sim.no_injection in
  match f.site with
  | Seg_scan_in i -> { base with stuck_seg_in = [ (i, v) ] }
  | Seg_scan_out i -> { base with stuck_seg_out = [ (i, v) ] }
  | Seg_shift_reg i ->
      (* A representative stage in the middle of the register. *)
      { base with stuck_shift = [ (i, net.segs.(i).seg_len / 2, v) ] }
  | Seg_shadow_reg (i, b) ->
      (* A TMR-protected bit (it drives only hardened addresses) is a
         single replica: the voted address value stays fault-free, so the
         configuration seen by the routing logic is unaffected. *)
      if tmr_protected_shadow net i b then base
      else { base with stuck_shadow = [ (i, b, v) ] }
  | Seg_select i -> { base with stuck_select = [ (i, v) ] }
  | Seg_capture_en i -> { base with stuck_capture = [ (i, v) ] }
  | Seg_update_en i -> { base with stuck_update = [ (i, v) ] }
  (* Faults bypassed by the duplicated scan ports: with the port switched,
     the faulty element is not on the used route.  The netlist does not
     model the port muxes structurally, so the faithful simulation of the
     switched configuration is the fault-free routing. *)
  | Mux_addr (m, b) ->
      if port_masked_mux net m then base
      else { base with stuck_mux_addr = [ (m, b, v) ] }
  | Mux_addr_replica _ -> base
  | Mux_data_in (m, k) ->
      if port_masked_mux net m then base
      else { base with stuck_mux_in = [ (m, k, v) ] }
  | Mux_out m ->
      if port_masked_mux net m then base
      else { base with stuck_mux_out = [ (m, v) ] }
  | Primary_in ->
      if net.Netlist.dual_ports then base else { base with stuck_pi = Some v }
  | Primary_out ->
      if net.Netlist.dual_ports then base else { base with stuck_po = Some v }
  (* Bridges and transient upsets are not expressible as static simulator
     overrides (a bridge couples two wires, a glitch is a state change,
     not a forcing); callers needing their semantics go through the
     accessibility engines, which derive them from the summary. *)
  | Bridge_segs _ | Mux_voter _ | Glitch_shadow _ -> base

let weight (_net : Netlist.t) (_f : t) = 1

(* ---- semantic summaries and equivalence collapsing ---- *)

type summary = {
  sm_hard_block : int list;
  sm_corrupt_vertex : int list;
  sm_corrupt_in : int list;
  sm_corrupt_out : int list;
  sm_kill_write : int list;
  sm_kill_read : int list;
  sm_mux_out : int list;
  sm_mux_in : (int * int) list;
  sm_locked_addr : (int * int * bool) list;
  sm_stuck_shadow : (int * int * bool) list;
  sm_glitch_shadow : (int * int * bool) list;
  sm_pi_dead : bool;
  sm_po_dead : bool;
}

let empty_summary =
  {
    sm_hard_block = [];
    sm_corrupt_vertex = [];
    sm_corrupt_in = [];
    sm_corrupt_out = [];
    sm_kill_write = [];
    sm_kill_read = [];
    sm_mux_out = [];
    sm_mux_in = [];
    sm_locked_addr = [];
    sm_stuck_shadow = [];
    sm_glitch_shadow = [];
    sm_pi_dead = false;
    sm_po_dead = false;
  }

let summary_benign sm = sm = empty_summary

(* Coarse shape of a summary's semantic effect, used to form lane
   batches: classes of the same shape tend to have similarly sized
   cones, so batching them together keeps a batch's cone union (and
   its fixpoint round count) close to each member's own. *)
type shape = Benign | Read_only | Write_only | Port_dead | General

let summary_shape sm =
  if summary_benign sm then Benign
  else if sm.sm_pi_dead || sm.sm_po_dead then Port_dead
  else if
    sm.sm_kill_read <> [] && summary_benign { sm with sm_kill_read = [] }
  then Read_only
  else if
    sm.sm_kill_write <> [] && summary_benign { sm with sm_kill_write = [] }
  then Write_only
  else General

(* Combined semantic effect of two (or more) simultaneous faults: every
   per-site list concatenates and the global kill flags disjoin.  Duplicate
   entries are harmless — both engines treat the lists as sets — so no
   deduplication is attempted. *)
let summary_union a b =
  {
    sm_hard_block = a.sm_hard_block @ b.sm_hard_block;
    sm_corrupt_vertex = a.sm_corrupt_vertex @ b.sm_corrupt_vertex;
    sm_corrupt_in = a.sm_corrupt_in @ b.sm_corrupt_in;
    sm_corrupt_out = a.sm_corrupt_out @ b.sm_corrupt_out;
    sm_kill_write = a.sm_kill_write @ b.sm_kill_write;
    sm_kill_read = a.sm_kill_read @ b.sm_kill_read;
    sm_mux_out = a.sm_mux_out @ b.sm_mux_out;
    sm_mux_in = a.sm_mux_in @ b.sm_mux_in;
    sm_locked_addr = a.sm_locked_addr @ b.sm_locked_addr;
    sm_stuck_shadow = a.sm_stuck_shadow @ b.sm_stuck_shadow;
    sm_glitch_shadow = a.sm_glitch_shadow @ b.sm_glitch_shadow;
    sm_pi_dead = a.sm_pi_dead || b.sm_pi_dead;
    sm_po_dead = a.sm_po_dead || b.sm_po_dead;
  }

let summarize ?port_masked (net : Netlist.t) f =
  let masked =
    match port_masked with Some p -> p | None -> port_mask_table net
  in
  let e = empty_summary in
  match f with
  | f when is_masked net f -> e
  | { site; stuck } -> (
      match site with
      | Seg_scan_in i -> { e with sm_corrupt_in = [ i ]; sm_kill_write = [ i ] }
      | Seg_scan_out i ->
          { e with sm_corrupt_out = [ i ]; sm_kill_read = [ i ] }
      | Seg_shift_reg i ->
          {
            e with
            sm_corrupt_vertex = [ i ];
            sm_kill_write = [ i ];
            sm_kill_read = [ i ];
          }
      | Seg_shadow_reg (i, b) ->
          if tmr_protected_shadow net i b then { e with sm_kill_write = [ i ] }
          else
            {
              e with
              sm_kill_write = [ i ];
              sm_stuck_shadow = [ (i, b, stuck) ];
            }
      | Seg_select i -> if stuck then e else { e with sm_hard_block = [ i ] }
      | Seg_capture_en i -> if stuck then e else { e with sm_kill_read = [ i ] }
      | Seg_update_en i -> if stuck then e else { e with sm_kill_write = [ i ] }
      | Mux_addr (m, b) ->
          if masked m then e else { e with sm_locked_addr = [ (m, b, stuck) ] }
      | Mux_addr_replica _ -> e
      | Mux_data_in (m, k) ->
          if masked m then e
          else { e with sm_mux_in = [ (m, Netlist.mux_input_class net m k) ] }
      | Mux_out m -> if masked m then e else { e with sm_mux_out = [ m ] }
      | Primary_in ->
          if net.Netlist.dual_ports then e else { e with sm_pi_dead = true }
      | Primary_out ->
          if net.Netlist.dual_ports then e else { e with sm_po_dead = true }
      (* A bridge between adjacent segments corrupts the data leaving
         both bridged segments whenever either toggles — under both
         dominance variants (the polarity only selects WHICH pattern is
         destroyed, not WHETHER data integrity can be relied on), so
         wired-AND and wired-OR collapse into one class per adjacency.
         The summary is exactly the union of the two segments'
         scan-out-stuck summaries: corrupt output data plus the local
         read kill, the same split both engines already implement. *)
      | Bridge_segs (a, b) ->
          { e with sm_corrupt_out = [ a; b ]; sm_kill_read = [ a; b ] }
      | Mux_voter _ -> e (* unreachable: is_masked *)
      (* A transient upset of a TMR-protected shadow bit is outvoted at
         every address port it drives and overwritten by the next update,
         so it is benign; otherwise the upset leaves the network in the
         glitched state and the verdict is a recovery-reachability
         question, delegated to the engines via [sm_glitch_shadow]. *)
      | Glitch_shadow (i, b) ->
          if tmr_protected_shadow net i b then e
          else { e with sm_glitch_shadow = [ (i, b, stuck) ] })

type clas = {
  cls_rep : t;
  cls_members : t list;
  cls_weight : int;
  cls_summary : summary;
}

(* The partition both collapse views share: the classes' summaries and
   weights, numbered in order of first appearance, and each fault's class
   index in input order.  Only the distinct summaries outlive the scan,
   and the scan reads each fault once, so a caller that drops the list
   lets its consumed prefix die during the scan. *)
let partition (net : Netlist.t) faults =
  let masked = port_mask_table net in
  let index : (summary, int) Hashtbl.t = Hashtbl.create 256 in
  let of_fault = Array.make (List.length faults) 0 in
  let sms = ref [] and n = ref 0 and weights = ref (Array.make 256 0) in
  List.iteri
    (fun k f ->
      let sm = summarize ~port_masked:masked net f in
      let c =
        match Hashtbl.find_opt index sm with
        | Some c -> c
        | None ->
            let c = !n in
            Hashtbl.add index sm c;
            sms := sm :: !sms;
            incr n;
            if c = Array.length !weights then
              weights := Array.append !weights (Array.make c 0);
            c
      in
      of_fault.(k) <- c;
      !weights.(c) <- !weights.(c) + weight net f)
    faults;
  (Array.of_list (List.rev !sms), Array.sub !weights 0 !n, of_fault)

let collapse (net : Netlist.t) faults =
  let sms, weights, of_fault = partition net faults in
  let members = Array.make (Array.length sms) [] in
  let fs = Array.of_list faults in
  for k = Array.length fs - 1 downto 0 do
    members.(of_fault.(k)) <- fs.(k) :: members.(of_fault.(k))
  done;
  List.init (Array.length sms) (fun c ->
      {
        cls_rep = List.hd members.(c);
        cls_members = members.(c);
        cls_weight = weights.(c);
        cls_summary = sms.(c);
      })

let collapse_counts (net : Netlist.t) faults =
  let sms, weights, of_fault = partition net faults in
  let sizes = Array.make (Array.length sms) 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) of_fault;
  (sms, weights, sizes)

let pp net fmt f =
  let seg i = Netlist.segment_name net i in
  let mux m = net.Netlist.muxes.(m).mux_name in
  let s =
    match f.site with
    | Seg_scan_in i -> Printf.sprintf "%s.scan-in" (seg i)
    | Seg_scan_out i -> Printf.sprintf "%s.scan-out" (seg i)
    | Seg_shift_reg i -> Printf.sprintf "%s.shift-reg" (seg i)
    | Seg_shadow_reg (i, b) -> Printf.sprintf "%s.shadow[%d]" (seg i) b
    | Seg_select i -> Printf.sprintf "%s.select" (seg i)
    | Seg_capture_en i -> Printf.sprintf "%s.capture-en" (seg i)
    | Seg_update_en i -> Printf.sprintf "%s.update-en" (seg i)
    | Mux_addr (m, b) -> Printf.sprintf "%s.addr[%d]" (mux m) b
    | Mux_addr_replica (m, b, r) ->
        Printf.sprintf "%s.addr[%d].tmr%d" (mux m) b r
    | Mux_data_in (m, k) -> Printf.sprintf "%s.in[%d]" (mux m) k
    | Mux_out m -> Printf.sprintf "%s.out" (mux m)
    | Primary_in -> "primary.scan-in"
    | Primary_out -> "primary.scan-out"
    | Bridge_segs (a, b) -> Printf.sprintf "%s~%s.bridge" (seg a) (seg b)
    | Mux_voter (m, b, r) -> Printf.sprintf "%s.addr[%d].voter%d" (mux m) b r
    | Glitch_shadow (i, b) -> Printf.sprintf "%s.shadow[%d]" (seg i) b
  in
  match f.site with
  | Bridge_segs _ ->
      Format.fprintf fmt "%s/%s" s (if f.stuck then "or" else "and")
  | Mux_voter _ -> Format.fprintf fmt "%s/pass" s
  | Glitch_shadow _ ->
      Format.fprintf fmt "%s/seu%d" s (if f.stuck then 1 else 0)
  | _ -> Format.fprintf fmt "%s/sa%d" s (if f.stuck then 1 else 0)

let to_string net f = Format.asprintf "%a" (pp net) f
