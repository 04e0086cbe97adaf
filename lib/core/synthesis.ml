module Netlist = Ftrsn_rsn.Netlist

type options = {
  opt_tmr : bool;
  opt_dual_ports : bool;
  opt_select_hardening : bool;
  opt_rescue_lines : bool;
  opt_dual_host : bool;
}

let default_options =
  {
    opt_tmr = true;
    opt_dual_ports = true;
    opt_select_hardening = true;
    opt_rescue_lines = true;
    opt_dual_host = true;
  }

type stats = {
  added_muxes : int;
  port_muxes : int;
  added_ctrl_bits : int;
  added_primary_ctrls : int;
}

(* Dataflow vertex ids: 0 = root (scan-in), 1 = sink (scan-out), 2 + i =
   segment i. *)
let seg_of_vertex v = v - 2

(* The [Seg i] node values of [net], one per segment, reusing the value
   [net] already holds where it has one: the fault-tolerant netlist then
   shares them with the original instead of holding copies. *)
let seg_nodes (net : Netlist.t) =
  let nodes = Array.make (Array.length net.segs) None in
  let note = function
    | Netlist.Seg i as n when nodes.(i) = None -> nodes.(i) <- Some n
    | _ -> ()
  in
  Array.iter (fun (s : Netlist.segment) -> note s.seg_input) net.segs;
  Array.iter (fun (m : Netlist.mux) -> Array.iter note m.mux_inputs) net.muxes;
  note net.out_src;
  Array.mapi
    (fun i n -> match n with Some n -> n | None -> Netlist.Seg i)
    nodes

let node_of_vertex seg_node v =
  if v = 0 then Netlist.Scan_in
  else if v = 1 then invalid_arg "Synthesis: sink used as edge source"
  else seg_node.(seg_of_vertex v)

let run ?(options = default_options) (net : Netlist.t) ~new_edges =
  List.iter
    (fun (u, v) ->
      if v = 0 then invalid_arg "Synthesis: edge into the root";
      if u = 1 then invalid_arg "Synthesis: edge out of the sink")
    new_edges;
  let nsegs = Array.length net.segs in
  let seg_node = seg_nodes net in
  (* Mutable working copies of the segment records. *)
  let seg_len = Array.map (fun s -> s.Netlist.seg_len) net.segs in
  let seg_shadow = Array.map (fun s -> s.Netlist.seg_shadow) net.segs in
  let seg_reset =
    Array.map (fun s -> Array.to_list s.Netlist.seg_reset) net.segs
  in
  let seg_input = Array.map (fun s -> s.Netlist.seg_input) net.segs in
  let out_src = ref net.out_src in
  let new_muxes = ref [] in
  let n_new_muxes = ref 0 in
  let added_ctrl_bits = ref 0 in
  let added_primary_ctrls = ref 0 in
  (* Allocate a control bit hosted in the segment of dataflow vertex [x],
     or a primary control input when [x] is a scan port.  Each inserted mux
     is steered from BOTH endpoints of its augmenting edge: whichever side
     of a faulty region a path must escape from or be rescued into, the
     other side hosts a writable copy of the address — this breaks the
     circular dependency "opening the edge requires writing a bit that is
     only reachable through the edge". *)
  let ctrl_hosted_at x =
    if x = 0 || x = 1 then begin
      incr added_primary_ctrls;
      Netlist.Ctrl_primary (Printf.sprintf "aug_port_%d" !added_primary_ctrls)
    end
    else begin
      let s = seg_of_vertex x in
      let bit = seg_shadow.(s) in
      seg_shadow.(s) <- seg_shadow.(s) + 1;
      seg_len.(s) <- seg_len.(s) + 1;
      seg_reset.(s) <- seg_reset.(s) @ [ false ];
      incr added_ctrl_bits;
      Netlist.Ctrl_shadow { cseg = s; cbit = bit }
    end
  in
  (* Insert one dual-steered mux per augmenting edge, cascading per target.
     The mux has four data inputs [prev; src; src; src] and two address
     bits (source-hosted, target-hosted): any non-zero address selects the
     new source, so setting EITHER bit re-routes — OR semantics realized as
     a one-hot 4:1 mux.  Input 0 is always the previous route, so the reset
     state preserves the original topology.  (With [opt_dual_host] off the
     mux degrades to a 2:1 steered from the source only.) *)
  let grouped = Hashtbl.create 16 in
  List.iter
    (fun (u, v) ->
      Hashtbl.replace grouped v (u :: Option.value ~default:[] (Hashtbl.find_opt grouped v)))
    new_edges;
  let targets = Hashtbl.fold (fun v us acc -> (v, List.rev us) :: acc) grouped [] in
  let targets = List.sort compare targets in
  List.iter
    (fun (v, sources) ->
      let current =
        ref (if v = 1 then !out_src else seg_input.(seg_of_vertex v))
      in
      List.iteri
        (fun k u ->
          let name = Printf.sprintf "aug_%d_%d" v k in
          let src = node_of_vertex seg_node u in
          let ctrl_src = ctrl_hosted_at u in
          let mux =
            if options.opt_dual_host then begin
              let ctrl_dst = ctrl_hosted_at v in
              {
                Netlist.mux_name = name;
                mux_inputs = [| !current; src; src; src |];
                mux_addr = [| ctrl_src; ctrl_dst |];
                mux_tmr = options.opt_tmr;
                mux_rescue_from = 1;
              }
            end
            else
              {
                Netlist.mux_name = name;
                mux_inputs = [| !current; src |];
                mux_addr = [| ctrl_src |];
                mux_tmr = options.opt_tmr;
                mux_rescue_from = 1;
              }
          in
          let id = Array.length net.muxes + !n_new_muxes in
          incr n_new_muxes;
          new_muxes := mux :: !new_muxes;
          current := Netlist.Mux id)
        sources;
      if v = 1 then out_src := !current
      else seg_input.(seg_of_vertex v) <- !current)
    targets;
  (* Rescue steering for the ORIGINAL 2:1 scan muxes: a hosted subtree's
     only drain runs through its host SIB's mux, whose address is the SIB
     register itself — a fault that makes the SIB unwritable would seal the
     whole subtree, and any scan-hosted copy of the address can itself land
     inside the sealed region.  Each original 2:1 mux therefore gets an
     extra TMR'd rescue address bit driven by a primary control input
     (TAP-side, like the duplicated-port switching of §III-E-4), ORed into
     the decode and realized as inputs [a; b; b; b]: asserting it forces
     the hosted route open regardless of the scan state. *)
  let rescued_originals =
    Array.mapi
      (fun m (mx : Netlist.mux) ->
        if
          options.opt_rescue_lines
          && Array.length mx.mux_inputs = 2
          && Array.length mx.mux_addr = 1
        then begin
          incr added_primary_ctrls;
          let rescue = Netlist.Ctrl_primary (Printf.sprintf "rescue_%d" m) in
          let b = mx.mux_inputs.(1) in
          {
            mx with
            Netlist.mux_inputs = [| mx.mux_inputs.(0); b; b; b |];
            mux_addr = [| mx.mux_addr.(0); rescue |];
            mux_tmr = options.opt_tmr;
            mux_rescue_from = 2;
          }
        end
        else { mx with Netlist.mux_tmr = options.opt_tmr })
      net.muxes
  in
  (* Netlists are never mutated, so segments with equal reset vectors
     share one array. *)
  let resets = Hashtbl.create 16 in
  let reset_array bits =
    match Hashtbl.find_opt resets bits with
    | Some a -> a
    | None ->
        let a = Array.of_list bits in
        Hashtbl.add resets bits a;
        a
  in
  let segs =
    Array.init nsegs (fun i ->
        {
          (net.segs.(i)) with
          Netlist.seg_len = seg_len.(i);
          seg_shadow = seg_shadow.(i);
          seg_reset = reset_array seg_reset.(i);
          seg_input = seg_input.(i);
        })
  in
  let muxes =
    Array.append rescued_originals (Array.of_list (List.rev !new_muxes))
  in
  let ft =
    {
      Netlist.net_name = net.net_name ^ "_ft";
      segs;
      muxes;
      out_src = !out_src;
      select_hardened = options.opt_select_hardening;
      dual_ports = options.opt_dual_ports;
    }
  in
  (match Netlist.validate ft with
  | Ok () -> ()
  | Error e -> invalid_arg ("Synthesis.run: invalid result: " ^ e));
  (* Duplicated-port switch muxes: one per successor of the (new) root and
     one per predecessor of the (new) sink. *)
  let port_muxes =
    if options.opt_dual_ports then begin
      let g, _ = Netlist.dataflow_graph ft in
      Ftrsn_topo.Digraph.out_degree g 0 + Ftrsn_topo.Digraph.in_degree g 1
    end
    else 0
  in
  ( ft,
    {
      added_muxes = !n_new_muxes;
      port_muxes;
      added_ctrl_bits = !added_ctrl_bits;
      added_primary_ctrls = !added_primary_ctrls;
    } )
