module Netlist = Ftrsn_rsn.Netlist
module Text = Ftrsn_rsn.Text
module Stats = Ftrsn_rsn.Stats
module Fault = Ftrsn_fault.Fault
module Retarget = Ftrsn_access.Retarget
module Vectors = Ftrsn_access.Vectors
module Diagnose = Ftrsn_access.Diagnose
module Metric = Ftrsn_core.Metric
module Pipeline = Ftrsn_core.Pipeline
module Synthesis = Ftrsn_core.Synthesis
module Area = Ftrsn_core.Area
module Bmc = Ftrsn_bmc.Bmc

let classify = function
  | Query.Pairs _ | Query.Synthesize _ -> `Heavy
  | Query.Certify { cq_pairs = true; _ } | Query.Certify { cq_sample = None; _ }
    ->
      `Heavy
  | Query.Metric { mq_engine = `Bmc; mq_sample = None; _ } -> `Heavy
  | Query.Metric _ | Query.Certify _ | Query.Probe _ | Query.Diagnose _
  | Query.Netinfo _ | Query.Stats ->
      `Light

let with_entry pool spec f =
  match Pool.acquire pool spec with
  | Error msg -> Response.error Response.Bad_request msg
  | Ok e -> Fun.protect ~finally:(fun () -> Pool.release pool e) (fun () -> f e)

let take k l = List.filteri (fun i _ -> i < k) l

(* Banded Levenshtein distance for "did you mean" suggestions on
   mistyped segment names. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) (fun j -> j) in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <-
        min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let plan_r_of_plan net target (p : Retarget.plan) =
  let name = Netlist.segment_name net in
  {
    Response.pl_target = name target;
    pl_primaries = p.Retarget.primaries;
    pl_steps =
      List.map
        (fun (st : Retarget.csu_step) ->
          ( List.map name st.Retarget.path,
            List.map (fun (s, b, v) -> (name s, b, v)) st.Retarget.writes ))
        p.Retarget.steps;
    pl_access_path = List.map name p.Retarget.access_path;
    pl_cycles = p.Retarget.cycles;
  }

let run_probe e (q : Query.probe_q) =
  let net = Pool.net e in
  match Pool.seg_index e q.Query.pb_target with
  | None ->
      let near =
        List.init (Netlist.num_segments net) (fun i ->
            let n = Netlist.segment_name net i in
            (edit_distance q.Query.pb_target n, n))
        |> List.filter (fun (d, _) ->
               d <= max 2 (String.length q.Query.pb_target / 3))
        |> List.sort compare
        |> List.filteri (fun i _ -> i < 3)
        |> List.map snd
      in
      Response.error Response.Bad_request
        (Printf.sprintf "no segment named %s%s" q.Query.pb_target
           (match near with
           | [] -> ""
           | _ ->
               Printf.sprintf " (did you mean %s?)" (String.concat ", " near)))
  | Some target -> (
      let fault =
        match q.Query.pb_fault with
        | None -> Ok None
        | Some fs -> (
            match Pool.fault_of_string ~model:q.Query.pb_model e fs with
            | Some f -> Ok (Some f)
            | None ->
                Error
                  (Printf.sprintf
                     "unknown fault %s (use names as printed by the universe, \
                      e.g. mysib.shadow[0]/sa0)"
                     fs))
      in
      match fault with
      | Error msg -> Response.error Response.Bad_request msg
      | Ok fault -> (
          let ctx = Metric.warm_ctx (Pool.warm e) in
          match Retarget.plan_write ctx ?fault ~target () with
          | None ->
              Response.error Response.Inaccessible
                "target not writable under this fault"
          | Some plan ->
              if not q.Query.pb_svf then
                Response.Plan_r (plan_r_of_plan net target plan)
              else if fault <> None then
                Response.error Response.Bad_request
                  "vector export is for fault-free plans"
              else
                let pattern =
                  List.init (Netlist.seg_len net target) (fun i -> i mod 2 = 0)
                in
                (match Vectors.of_plan net plan ~pattern with
                | Ok svf -> Response.Svf_r svf
                | Error e -> Response.error Response.Internal e)))

let run_exn pool = function
  | Query.Metric q ->
      with_entry pool q.Query.mq_net (fun e ->
          let r =
            Metric.evaluate ?sample:q.Query.mq_sample
              ~domains:q.Query.mq_domains ~engine:q.Query.mq_engine
              ~reduce:q.Query.mq_reduce ~inprocess:q.Query.mq_inprocess
              ~model:q.Query.mq_model ~warm:(Pool.warm e) (Pool.net e)
          in
          Response.Metric_r
            (Response.metric_r_of_result ~with_stats:q.Query.mq_with_stats r))
  | Query.Pairs q ->
      with_entry pool q.Query.pq_net (fun e ->
          let r =
            Metric.evaluate_pairs ?sample:q.Query.pq_pair_sample
              ?fault_sample:q.Query.pq_fault_sample
              ~domains:q.Query.pq_domains ~engine:q.Query.pq_engine
              ~exhaustive:(q.Query.pq_pair_sample = None)
              ~reduce:q.Query.pq_reduce ~inprocess:q.Query.pq_inprocess
              ~model:q.Query.pq_model
              ~warm:(Pool.warm e) (Pool.net e)
          in
          Response.Metric_r
            (Response.metric_r_of_result ~with_stats:q.Query.pq_with_stats r))
  | Query.Certify q ->
      with_entry pool q.Query.cq_net (fun e ->
          let warm = Pool.warm e in
          let net = Pool.net e in
          match
            if q.Query.cq_pairs then
              Metric.evaluate_pairs ?fault_sample:q.Query.cq_sample
                ~domains:q.Query.cq_domains ~engine:`Bmc ~exhaustive:true
                ~certify:true ~inprocess:q.Query.cq_inprocess
                ~model:q.Query.cq_model ~warm net
            else
              Metric.evaluate ?sample:q.Query.cq_sample
                ~domains:q.Query.cq_domains ~engine:`Bmc ~certify:true
                ~inprocess:q.Query.cq_inprocess ~model:q.Query.cq_model ~warm
                net
          with
          | r ->
              Response.Metric_r
                (Response.metric_r_of_result ~with_stats:q.Query.cq_with_stats
                   r)
          | exception Bmc.Session.Certification_failed msg ->
              Response.error Response.Cert_failed msg)
  | Query.Probe q -> with_entry pool q.Query.pb_net (fun e -> run_probe e q)
  | Query.Diagnose q ->
      with_entry pool q.Query.dq_net (fun e ->
          let net = Pool.net e in
          let observed =
            match q.Query.dq_signature with
            | Some lines -> Diagnose.signature_of_lines lines
            | None -> Diagnose.healthy net
          in
          let candidates = Diagnose.diagnose net ~observed in
          let candidates =
            match q.Query.dq_limit with
            | Some k -> take k candidates
            | None -> candidates
          in
          Response.Diagnose_r (List.map (Fault.to_string net) candidates))
  | Query.Synthesize q ->
      let spec = { q.Query.sq_net with Query.ns_ft = true } in
      with_entry pool spec (fun e ->
          let r = Pool.synthesis e in
          Response.Synth_r
            {
              Response.sy_added_muxes =
                r.Pipeline.syn_stats.Synthesis.added_muxes;
              sy_port_muxes = r.Pipeline.syn_stats.Synthesis.port_muxes;
              sy_added_ctrl_bits =
                r.Pipeline.syn_stats.Synthesis.added_ctrl_bits;
              sy_added_primary_ctrls =
                r.Pipeline.syn_stats.Synthesis.added_primary_ctrls;
              sy_area_ratio = r.Pipeline.area_ratios.Area.r_area;
              sy_netlist =
                (if q.Query.sq_emit then Some (Text.to_string r.Pipeline.ft)
                 else None);
            })
  | Query.Netinfo spec ->
      with_entry pool spec (fun e ->
          let net = Pool.net e in
          let s = Stats.compute net in
          Response.Netinfo_r
            {
              Response.ni_name = net.Netlist.net_name;
              ni_segments = s.Stats.segments;
              ni_muxes = s.Stats.muxes;
              ni_scan_bits = s.Stats.scan_bits;
              ni_shadow_bits = s.Stats.shadow_bits;
              ni_control_bits = s.Stats.control_bits;
              ni_primary_controls = s.Stats.primary_controls;
              ni_levels = s.Stats.levels;
              ni_reset_path_bits = s.Stats.reset_path_bits;
              ni_full_path_bits = s.Stats.full_path_bits;
            })
  | Query.Stats ->
      Response.Stats_r
        {
          Response.st_pool = Pool.stats pool;
          st_sessions = Pool.session_stats pool;
        }

let run pool q =
  try run_exn pool q with
  | Bmc.Session.Certification_failed msg ->
      Response.error Response.Cert_failed msg
  | Metric.Unsupported msg -> Response.error Response.Unsupported msg
  | e -> Response.error Response.Internal (Printexc.to_string e)
