(* ftrsn-tool: command-line utilities over RSN netlists.

   Every subcommand (except the graphviz export) is a thin front-end over
   the service query layer (Ftrsn_service): it builds a typed Query.t,
   executes it against a process-local warm pool and renders the typed
   Response.t — exactly the code path a long-running `serve` daemon runs,
   so `--json` output here is byte-identical to the corresponding serve
   response (CI diffs the two).

   Subcommands:
     stats      — netlist characteristics (netinfo query)
     dot        — emit the dataflow graph as Graphviz DOT
     harden     — fault-tolerant synthesis; prints the hardened netlist
     metric     — the fault-tolerance metric (single faults or pairs)
     certify    — the metric through the certified BMC engine
     access     — plan an access to a segment (optionally under a fault)
     diagnose   — list faults matching an observed signature
     serve      — newline-delimited JSON query loop (stdio or socket)

   Netlists are given as file paths (.icl parsed as ICL, anything else as
   the flat text format) or as "itc02:NAME" for a benchmark SoC.

   Exit codes: 0 success, 1 bad request (parse/usage/unknown name),
   2 target inaccessible, 3 certification failed, 4 admission/deadline,
   5 unsupported query (e.g. --pairs under the transient model). *)

module Netlist = Ftrsn_rsn.Netlist
module Fault = Ftrsn_fault.Fault
module Dot = Ftrsn_topo.Dot
module Augment = Ftrsn_core.Augment
module Metric = Ftrsn_core.Metric
module Json = Ftrsn_service.Json
module Query = Ftrsn_service.Query
module Response = Ftrsn_service.Response
module Pool = Ftrsn_service.Pool
module Exec = Ftrsn_service.Exec
module Server = Ftrsn_service.Server

let pool = lazy (Pool.create ())

(* Renders a response (human form), returns the exit code.  [render] only
   sees success payloads; errors are reported uniformly on stderr. *)
let finish ?(json = false) ~render resp =
  (if json then print_endline (Response.to_string resp)
   else
     match resp with
     | Response.Error_r (_, msg) -> Printf.eprintf "%s\n" msg
     | ok -> render ok);
  Response.exit_code resp

let run ?json ~render q = finish ?json ~render (Exec.run (Lazy.force pool) q)

let unexpected _ = prerr_endline "unexpected response payload"

(* ------------------------------------------------------------------ *)
(* Subcommand actions                                                  *)

let cmd_stats spec json =
  run ~json
    ~render:(function
      | Response.Netinfo_r n ->
          Printf.printf
            "%s: %d segments, %d muxes, %d scan bits, %d shadow bits\n\
             %d control bits, %d primary controls, %d levels\n\
             reset path %d bits, full path %d bits\n"
            n.Response.ni_name n.Response.ni_segments n.Response.ni_muxes
            n.Response.ni_scan_bits n.Response.ni_shadow_bits
            n.Response.ni_control_bits n.Response.ni_primary_controls
            n.Response.ni_levels n.Response.ni_reset_path_bits
            n.Response.ni_full_path_bits
      | r -> unexpected r)
    (Query.Netinfo (Query.net_spec_of_cli spec))

(* The graphviz export has no service counterpart (it is a developer
   visualisation, not a netlist query); it loads directly. *)
let cmd_dot spec augmented =
  match Pool.acquire (Lazy.force pool) (Query.net_spec_of_cli spec) with
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      1
  | Ok entry ->
      let net = Pool.net entry in
      let g, _ = Netlist.dataflow_graph net in
      let label v =
        if v = 0 then "scan-in"
        else if v = 1 then "scan-out"
        else Netlist.segment_name net (v - 2)
      in
      let highlight =
        if not augmented then []
        else (Augment.solve (Augment.of_netlist net)).Augment.new_edges
      in
      print_string
        (Dot.to_dot ~name:net.Netlist.net_name ~vertex_label:label
           ~highlight_edges:highlight g);
      Pool.release (Lazy.force pool) entry;
      0

let cmd_harden spec json =
  run ~json
    ~render:(function
      | Response.Synth_r s ->
          Option.iter print_string s.Response.sy_netlist;
          Printf.eprintf "added %d muxes, %d control bits; area x%.2f\n"
            s.Response.sy_added_muxes s.Response.sy_added_ctrl_bits
            s.Response.sy_area_ratio
      | r -> unexpected r)
    (Query.Synthesize
       { Query.sq_net = Query.net_spec_of_cli spec; sq_emit = not json })

let render_metric = function
  | Response.Metric_r m ->
      Format.printf "%a@." Metric.pp (Response.result_of_metric_r m)
  | r -> unexpected r

let pool_stats_line () =
  let p = Pool.stats (Lazy.force pool) in
  Printf.eprintf "pool: %d hits, %d misses, %d evictions, %d entries (%d KiB)\n"
    p.Response.po_hits p.Response.po_misses p.Response.po_evictions
    p.Response.po_entries
    (p.Response.po_bytes / 1024)

let cmd_metric spec sample domains engine model brute pairs no_inprocess json
    with_stats =
  let net = Query.net_spec_of_cli spec in
  (* Human output renders the full Metric.pp line (steals, solver stats),
     so it needs the volatile block; JSON keeps the deterministic default
     unless --with-stats asks otherwise. *)
  let ws = if json then with_stats else true in
  let q =
    if pairs then
      Query.Pairs
        {
          Query.pq_net = net;
          pq_fault_sample = sample;
          pq_pair_sample = None;
          pq_domains = domains;
          pq_engine = engine;
          pq_reduce = not brute;
          pq_inprocess = not no_inprocess;
          pq_lanes = true;
          pq_model = model;
          pq_with_stats = ws;
        }
    else
      Query.Metric
        {
          Query.mq_net = net;
          mq_sample = sample;
          mq_domains = domains;
          mq_engine = engine;
          mq_reduce = not brute;
          mq_inprocess = not no_inprocess;
          mq_model = model;
          mq_with_stats = ws;
        }
  in
  let code = run ~json ~render:render_metric q in
  pool_stats_line ();
  code

let cmd_certify spec sample domains model pairs no_inprocess json with_stats =
  let q =
    Query.Certify
      {
        Query.cq_net = Query.net_spec_of_cli spec;
        cq_sample = sample;
        cq_domains = domains;
        cq_pairs = pairs;
        cq_inprocess = not no_inprocess;
        cq_model = model;
        cq_with_stats = (if json then with_stats else true);
      }
  in
  run ~json
    ~render:(function
      | Response.Metric_r m ->
          let r = Response.result_of_metric_r m in
          Format.printf "%a@." Metric.pp r;
          (match r.Metric.solver with
          | Some s ->
              Printf.printf
                "certification: OK (%d UNSAT verdicts RUP-checked, %d \
                 lemmas, %d deletions, %.2fs in checker)\n"
                s.Metric.s_cert_unsat s.Metric.s_cert_lemmas
                s.Metric.s_cert_deletes s.Metric.s_cert_time
          | None -> ())
      | r -> unexpected r)
    q

let cmd_access spec target fault model svf json =
  run ~json
    ~render:(function
      | Response.Svf_r svf -> print_string svf
      | Response.Plan_r p ->
          List.iter
            (fun (name, v) -> Printf.printf "assert primary %s := %b\n" name v)
            p.Response.pl_primaries;
          List.iteri
            (fun i (path, writes) ->
              Printf.printf "CSU %d: path [%s] writes [%s]\n" i
                (String.concat "; " path)
                (String.concat "; "
                   (List.map
                      (fun (s, b, v) -> Printf.sprintf "%s[%d]:=%b" s b v)
                      writes)))
            p.Response.pl_steps;
          Printf.printf "CSU %d: access via [%s], %d cycles total\n"
            (List.length p.Response.pl_steps)
            (String.concat "; " p.Response.pl_access_path)
            p.Response.pl_cycles
      | r -> unexpected r)
    (Query.Probe
       {
         Query.pb_net = Query.net_spec_of_cli spec;
         pb_target = target;
         pb_fault = fault;
         pb_model = model;
         pb_svf = svf;
       })

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      really_input_string ic (in_channel_length ic)
      |> String.split_on_char '\n')

let cmd_diagnose spec sig_file healthy limit json =
  let signature =
    if healthy then Ok None
    else
      match sig_file with
      | None -> Error "a SIGNATURE file is required unless --healthy is given"
      | Some path -> (
          match read_lines path with
          | lines -> Ok (Some lines)
          | exception Sys_error e -> Error e)
  in
  match signature with
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      1
  | Ok signature ->
      run ~json
        ~render:(function
          | Response.Diagnose_r [] ->
              print_endline "no single stuck-at fault matches"
          | Response.Diagnose_r fs -> List.iter print_endline fs
          | r -> unexpected r)
        (Query.Diagnose
           {
             Query.dq_net = Query.net_spec_of_cli spec;
             dq_signature = signature;
             dq_limit = limit;
           })

let cmd_serve socket workers heavy_workers queue_cap deadline_ms budget_mb =
  let cfg =
    {
      Server.workers;
      heavy_workers;
      queue_cap;
      deadline =
        Option.map (fun ms -> float_of_int ms /. 1000.0) deadline_ms;
    }
  in
  let pool = Pool.create ~budget_bytes:(budget_mb * 1024 * 1024) () in
  (match socket with
  | Some path -> Server.serve_socket cfg pool path
  | None -> Server.serve_stdio cfg pool);
  0

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  let open Cmdliner in
  let spec =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NETLIST"
          ~doc:"Netlist file (.icl parsed as ICL) or itc02:NAME.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the service-layer JSON response (one line), identical to \
             the $(b,serve) response for the same query.")
  in
  let with_stats =
    Arg.(
      value & flag
      & info [ "with-stats" ]
          ~doc:
            "Include volatile statistics (steals, solver counters) in the \
             JSON response.  Off by default so responses are deterministic \
             and warm results diff clean against cold ones.")
  in
  let stats_cmd =
    Cmd.v (Cmd.info "stats" ~doc:"Netlist statistics")
      Term.(const cmd_stats $ spec $ json)
  in
  let dot_cmd =
    let augmented =
      Arg.(
        value & flag
        & info [ "augmented" ] ~doc:"Highlight the augmenting edge set.")
    in
    Cmd.v (Cmd.info "dot" ~doc:"Dataflow graph as Graphviz DOT")
      Term.(const cmd_dot $ spec $ augmented)
  in
  let harden_cmd =
    Cmd.v
      (Cmd.info "harden"
         ~doc:"Fault-tolerant synthesis; prints the hardened netlist")
      Term.(const cmd_harden $ spec $ json)
  in
  let sample =
    Arg.(
      value
      & opt (some int) None
      & info [ "sample" ] ~doc:"Every k-th fault only.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~doc:"Evaluation domains (work-stealing queue).")
  in
  let no_inprocess =
    Arg.(
      value & flag
      & info [ "no-inprocess" ]
          ~doc:
            "Disable SAT inprocessing (subsumption, vivification, bounded \
             variable elimination) on the BMC sessions; results are \
             identical, only slower.  Ablation switch.")
  in
  let model =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun m -> (Fault.model_to_string m, m))
                Fault.all_models))
          Fault.Stuck
      & info [ "model" ]
          ~doc:
            "Fault model: $(b,stuck) (single stuck-at, the default), \
             $(b,bridge) (wired-AND/OR bridges between adjacent scan \
             segments), $(b,select) (selection-control faults incl. broken \
             TMR voters), or $(b,transient) (single-event upsets of shadow \
             bits; accessibility = recoverability after the glitch).")
  in
  let metric_cmd =
    let engine =
      Arg.(
        value
        & opt (enum [ ("structural", `Structural); ("bmc", `Bmc) ]) `Structural
        & info [ "engine" ] ~doc:"Verdict engine: $(b,structural) or $(b,bmc).")
    in
    let brute =
      Arg.(
        value & flag
        & info [ "brute" ]
            ~doc:
              "Disable fault-universe reduction (collapsing + cone deltas); \
               results are identical, only slower.")
    in
    let pairs =
      Arg.(
        value & flag
        & info [ "pairs" ]
            ~doc:
              "Exhaustive double-fault sweep: every unordered fault pair, \
               exactly, via class-pair collapsing, disjoint-cone splicing \
               and stacked deltas.  $(b,--sample) then thins the fault \
               universe (not the pairs); $(b,--brute) enumerates all pairs \
               one by one.")
    in
    Cmd.v (Cmd.info "metric" ~doc:"Fault-tolerance metric")
      Term.(
        const cmd_metric $ spec $ sample $ domains $ engine $ model $ brute
        $ pairs $ no_inprocess $ json $ with_stats)
  in
  let certify_cmd =
    let pairs =
      Arg.(
        value & flag
        & info [ "pairs" ]
            ~doc:
              "Certify the exhaustive double-fault sweep instead of the \
               single-fault metric.")
    in
    Cmd.v
      (Cmd.info "certify"
         ~doc:
           "Fault-tolerance metric through the BMC engine in certified \
            mode: every solver derivation and every UNSAT verdict is \
            verified inline by an independent RUP proof checker.  Exits 3 \
            if any proof step is rejected.")
      Term.(
        const cmd_certify $ spec $ sample $ domains $ model $ pairs
        $ no_inprocess $ json $ with_stats)
  in
  let access_cmd =
    let target =
      Arg.(required & pos 1 (some string) None & info [] ~docv:"SEGMENT")
    in
    let fault =
      Arg.(
        value
        & opt (some string) None
        & info [ "fault" ]
            ~doc:"Plan around this fault (e.g. 'core.sib.shadow[0]/sa0').")
    in
    let svf =
      Arg.(
        value & flag
        & info [ "svf" ] ~doc:"Emit SVF vectors instead of a schedule.")
    in
    Cmd.v (Cmd.info "access" ~doc:"Plan a write access to a segment")
      Term.(const cmd_access $ spec $ target $ fault $ model $ svf $ json)
  in
  let diagnose_cmd =
    let sig_file =
      Arg.(value & pos 1 (some string) None & info [] ~docv:"SIGNATURE")
    in
    let healthy =
      Arg.(
        value & flag
        & info [ "healthy" ]
            ~doc:
              "Diagnose the fault-free reference signature instead of a \
               file (self-test; lists the faults indistinguishable from a \
               healthy network).")
    in
    let limit =
      Arg.(
        value
        & opt (some int) None
        & info [ "limit" ] ~doc:"Report at most this many candidates.")
    in
    Cmd.v
      (Cmd.info "diagnose"
         ~doc:
           "List faults matching an observed signature (one 0/1 line per \
            diagnostic CSU)")
      Term.(const cmd_diagnose $ spec $ sig_file $ healthy $ limit $ json)
  in
  let serve_cmd =
    let socket =
      Arg.(
        value
        & opt (some string) None
        & info [ "socket" ] ~docv:"PATH"
            ~doc:
              "Listen on a Unix-domain socket instead of serving \
               stdin/stdout.")
    in
    let workers =
      Arg.(
        value & opt int 2
        & info [ "workers" ]
            ~doc:
              "Worker threads for light queries; 1 processes everything \
               serially in request order (deterministic transcripts).")
    in
    let heavy_workers =
      Arg.(
        value & opt int 1
        & info [ "heavy-workers" ]
            ~doc:
              "Worker threads for heavy queries (pair sweeps, unsampled \
               BMC, synthesis) — a separate queue so they cannot starve \
               light ones.")
    in
    let queue_cap =
      Arg.(
        value & opt int 64
        & info [ "queue-cap" ]
            ~doc:
              "Admission bound per queue; requests beyond it are rejected \
               immediately with an admission error.")
    in
    let deadline_ms =
      Arg.(
        value
        & opt (some int) None
        & info [ "deadline-ms" ]
            ~doc:
              "Default queueing deadline: a request still waiting after \
               this many milliseconds is rejected instead of executed \
               (per-request \"deadline_ms\" overrides).")
    in
    let budget_mb =
      Arg.(
        value & opt int 256
        & info [ "budget-mb" ]
            ~doc:
              "Warm-pool byte budget; least-recently-used netlist state is \
               evicted beyond it.")
    in
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Serve newline-delimited JSON queries against a shared warm \
            pool.  Each request is an object with an \"op\" field \
            (metric, pairs, certify, probe, diagnose, synthesize, \
            netinfo, stats); each response is one JSON line, \"id\" \
            echoed if given.")
      Term.(
        const cmd_serve $ socket $ workers $ heavy_workers $ queue_cap
        $ deadline_ms $ budget_mb)
  in
  let group =
    Cmd.group
      (Cmd.info "ftrsn-tool" ~doc:"RSN netlist utilities")
      [
        stats_cmd;
        dot_cmd;
        harden_cmd;
        metric_cmd;
        certify_cmd;
        access_cmd;
        diagnose_cmd;
        serve_cmd;
      ]
  in
  (* cmdliner reports usage errors as 124; fold them into the documented
     "bad request" code so scripts see one stable value. *)
  exit (match Cmd.eval' group with 124 -> 1 | c -> c)
