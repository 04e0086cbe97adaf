(* Tests for the service layer: the JSON codec, query/response golden
   round-trips, the warm pool (LRU + counters), and the core contract —
   responses served from warm pooled state are bit-identical to fresh
   one-shot evaluations, sequentially and under concurrent interleaving. *)

module Sib = Ftrsn_rsn.Sib
module Text = Ftrsn_rsn.Text
module Fault = Ftrsn_fault.Fault
module Json = Ftrsn_service.Json
module Query = Ftrsn_service.Query
module Response = Ftrsn_service.Response
module Pool = Ftrsn_service.Pool
module Exec = Ftrsn_service.Exec
module Server = Ftrsn_service.Server

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Fixture netlists, carried inline so pool keys are self-contained.   *)

let tiny_net () =
  Sib.build ~name:"tiny" [ Sib.leaf ~name:"a" ~len:2; Sib.leaf ~name:"b" ~len:3 ]

let small_net () =
  Sib.build ~name:"small"
    [
      Sib.Sib
        {
          name = "mod1";
          inner = [ Sib.leaf ~name:"c1" ~len:3; Sib.leaf ~name:"c2" ~len:2 ];
        };
      Sib.Sib { name = "mod2"; inner = [ Sib.leaf ~name:"c3" ~len:4 ] };
    ]

let inline_spec net = { Query.ns_source = `Inline (Text.to_string net); ns_ft = false }

let tiny_spec = lazy (inline_spec (tiny_net ()))
let small_spec = lazy (inline_spec (small_net ()))

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let test_json_roundtrip () =
  let values =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 0.1;
      Json.Float (-1.5e-9);
      Json.Float 1e300;
      Json.Str "";
      Json.Str "plain";
      Json.Str "esc \"quotes\" \\ back\nnew\ttab\r\012\b";
      Json.Str "unicode: \xc3\xa9\xe2\x82\xac";
      Json.List [];
      Json.List [ Json.Int 1; Json.Str "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("l", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      check bool_t (Printf.sprintf "roundtrip %s" s) true
        (Json.of_string s = v);
      check bool_t "single line" false (String.contains s '\n'))
    values;
  (* escape sequences parse *)
  check bool_t "u-escape" true
    (Json.of_string {|"é😀"|} = Json.Str "\xc3\xa9\xf0\x9f\x98\x80");
  check bool_t "ws tolerated" true
    (Json.of_string " { \"a\" : [ 1 , 2 ] } " = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ])

let test_json_malformed () =
  let bad =
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}";
      "[1,]"; "nullx"; "\"bad\\q\"" ]
  in
  List.iter
    (fun s ->
      check bool_t (Printf.sprintf "rejects %S" s) true
        (match Json.of_string s with
        | exception Json.Parse_error _ -> true
        | _ -> false))
    bad

(* ------------------------------------------------------------------ *)
(* Query / Response golden round-trips                                 *)

let sample_queries () =
  let net = { Query.ns_source = `Itc02 "d695"; ns_ft = false } in
  let netf = { Query.ns_source = `File "nets/x.icl"; ns_ft = true } in
  let neti = { Query.ns_source = `Inline "rsn tiny\n"; ns_ft = false } in
  [
    Query.Metric
      {
        Query.mq_net = net;
        mq_sample = Some 7;
        mq_domains = 2;
        mq_engine = `Bmc;
        mq_model = Fault.Bridge;
        mq_reduce = false;
        mq_inprocess = false;
        mq_with_stats = true;
      };
    Query.Metric
      {
        Query.mq_net = netf;
        mq_sample = None;
        mq_domains = 1;
        mq_engine = `Structural;
        mq_model = Fault.Transient;
        mq_reduce = true;
        mq_inprocess = true;
        mq_with_stats = false;
      };
    Query.Pairs
      {
        Query.pq_net = net;
        pq_fault_sample = Some 3;
        pq_pair_sample = None;
        pq_domains = 4;
        pq_engine = `Structural;
        pq_model = Fault.Select;
        pq_reduce = true;
        pq_inprocess = true;
        pq_lanes = true;
        pq_with_stats = false;
      };
    Query.Pairs
      {
        Query.pq_net = neti;
        pq_fault_sample = None;
        pq_pair_sample = Some 37;
        pq_domains = 1;
        pq_engine = `Bmc;
        pq_model = Fault.Stuck;
        pq_reduce = false;
        pq_inprocess = false;
        pq_lanes = true;
        pq_with_stats = true;
      };
    Query.Certify
      {
        Query.cq_net = net;
        cq_sample = Some 29;
        cq_domains = 2;
        cq_pairs = true;
        cq_model = Fault.Select;
        cq_inprocess = false;
        cq_with_stats = false;
      };
    Query.Probe
      {
        Query.pb_net = net;
        pb_target = "core1.sib";
        pb_fault = Some "core1.sib.shadow[0]/sa0";
        pb_model = Fault.Bridge;
        pb_svf = false;
      };
    Query.Probe
      {
        Query.pb_net = neti;
        pb_target = "a";
        pb_fault = None;
        pb_model = Fault.Stuck;
        pb_svf = true;
      };
    Query.Diagnose
      {
        Query.dq_net = net;
        dq_signature = Some [ "1010"; "0110" ];
        dq_limit = Some 10;
      };
    Query.Diagnose
      { Query.dq_net = neti; dq_signature = None; dq_limit = None };
    Query.Synthesize { Query.sq_net = net; sq_emit = true };
    Query.Netinfo netf;
    Query.Stats;
  ]

let test_query_roundtrip () =
  List.iter
    (fun q ->
      let s = Query.to_string q in
      let q' = Query.decode (Json.of_string s) in
      check bool_t (Printf.sprintf "decode . encode = id on %s" s) true (q = q');
      check string_t "stable reencoding" s (Query.to_string q'))
    (sample_queries ())

let sample_solver =
  {
    Response.so_conflicts = 10;
    so_decisions = 20;
    so_propagations = 30;
    so_restarts = 1;
    so_learnt_lits = 100;
    so_minimized_lits = 40;
    so_reductions = 2;
    so_learnt_db = 9;
    so_clauses_emitted = 500;
    so_nodes_reused = 123;
    so_subsumed = 11;
    so_strengthened = 17;
    so_eliminated = 5;
    so_vivified = 13;
    so_simp_passes = 2;
    so_cert_unsat = 7;
    so_cert_lemmas = 77;
    so_cert_deletes = 3;
    so_cert_time = 0.25;
  }

let sample_responses () =
  [
    Response.Metric_r
      {
        Response.mr_worst_segments = 0.0;
        mr_avg_segments = 0.9283936855379904;
        mr_worst_bits = 0.5;
        mr_avg_bits = 0.75;
        mr_faults = 1402;
        mr_weight = 1402;
        mr_reduction =
          Some
            {
              Response.rd_universe = 1402;
              rd_classes = 800;
              rd_benign = 227;
              rd_cone_sum = 63279;
              rd_cone_max = 89;
            };
        mr_pairs =
          Some
            {
              Response.pd_classes = 800;
              pd_class_pairs = 320400;
              pd_diagonal = 800;
              pd_disjoint = 247786;
              pd_stacked = 71814;
            };
        mr_stats =
          Some
            {
              Response.ms_steals = 5;
              ms_stacks = Some 17;
              ms_solver = Some sample_solver;
              ms_lanes =
                Some
                  {
                    Response.la_batches = 13;
                    la_lanes = 710;
                    la_masked = 4;
                    la_fast = 90;
                    la_rounds = 56;
                  };
              ms_pair_lanes =
                Some
                  {
                    Response.la_batches = 7;
                    la_lanes = 301;
                    la_masked = 2;
                    la_fast = 44;
                    la_rounds = 29;
                  };
            };
      };
    Response.Metric_r
      {
        Response.mr_worst_segments = 1.0;
        mr_avg_segments = 1.0;
        mr_worst_bits = 1.0;
        mr_avg_bits = 1.0;
        mr_faults = 0;
        mr_weight = 0;
        mr_reduction = None;
        mr_pairs = None;
        mr_stats = None;
      };
    Response.Plan_r
      {
        Response.pl_target = "c3";
        pl_primaries = [ ("rescue0", true) ];
        pl_steps =
          [
            ([ "top" ], [ ("top", 0, true) ]);
            ([ "top"; "mod2" ], [ ("mod2", 0, false) ]);
          ];
        pl_access_path = [ "top"; "mod2"; "c3" ];
        pl_cycles = 42;
      };
    Response.Svf_r "SDR 3 TDI(5);\n";
    Response.Diagnose_r [];
    Response.Diagnose_r [ "a.shadow[0]/sa0"; "b.data/sa1" ];
    Response.Synth_r
      {
        Response.sy_added_muxes = 3;
        sy_port_muxes = 1;
        sy_added_ctrl_bits = 4;
        sy_added_primary_ctrls = 2;
        sy_area_ratio = 1.082;
        sy_netlist = Some "rsn ft\n";
      };
    Response.Netinfo_r
      {
        Response.ni_name = "u226";
        ni_segments = 89;
        ni_muxes = 49;
        ni_scan_bits = 1465;
        ni_shadow_bits = 49;
        ni_control_bits = 49;
        ni_primary_controls = 0;
        ni_levels = 2;
        ni_reset_path_bits = 13;
        ni_full_path_bits = 1465;
      };
    Response.Stats_r
      {
        Response.st_pool =
          {
            Response.po_entries = 2;
            po_bytes = 12345;
            po_budget = 268435456;
            po_hits = 10;
            po_misses = 2;
            po_evictions = 1;
          };
        st_sessions =
          [
            {
              Response.se_net = "itc02\x00u226";
              se_certified = true;
              se_queries = 9;
              se_solver = sample_solver;
            };
          ];
      };
    Response.Error_r (Response.Bad_request, "unknown op \"frobnicate\"");
    Response.Error_r (Response.Inaccessible, "target not writable");
    Response.Error_r (Response.Cert_failed, "lemma 7 not RUP");
    Response.Error_r (Response.Admission, "queue full");
    Response.Error_r (Response.Internal, "Stack_overflow");
    Response.Error_r
      ( Response.Unsupported,
        "transient pairs are unsupported (two glitches are not a set-wise \
         union of summaries)" );
  ]

let test_response_roundtrip () =
  List.iter
    (fun r ->
      let s = Response.to_string r in
      let r', id = Response.decode (Json.of_string s) in
      check bool_t (Printf.sprintf "decode . encode = id on %s" s) true (r = r');
      check bool_t "no id" true (id = None);
      (* id is carried through when present *)
      let s_id = Response.to_string ~id:(Json.Int 7) r in
      let r'', id' = Response.decode (Json.of_string s_id) in
      check bool_t "id echoed" true (r = r'' && id' = Some (Json.Int 7)))
    (sample_responses ())

let test_exit_codes () =
  check int_t "ok" 0 (Response.exit_code (Response.Svf_r ""));
  check int_t "bad request" 1
    (Response.exit_code (Response.error Response.Bad_request ""));
  check int_t "inaccessible" 2
    (Response.exit_code (Response.error Response.Inaccessible ""));
  check int_t "cert" 3 (Response.exit_code (Response.error Response.Cert_failed ""));
  check int_t "admission" 4
    (Response.exit_code (Response.error Response.Admission ""));
  check int_t "internal" 1
    (Response.exit_code (Response.error Response.Internal ""));
  check int_t "unsupported" 5
    (Response.exit_code (Response.error Response.Unsupported ""))

let test_decode_line_errors () =
  (match Query.decode_line "{\"op\":\"metric\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing net accepted");
  (match Query.decode_line "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Query.decode_line "{\"op\":\"stats\",\"id\":\"q1\"}" with
  | Ok (Query.Stats, Some (Json.Str "q1")) -> ()
  | _ -> Alcotest.fail "stats with id"

(* Wire compatibility for the fault_model field: absent = stuck (so
   pre-fault-model clients keep working), every model name decodes,
   unknown names are rejected. *)
let test_fault_model_wire () =
  let base = "{\"op\":\"metric\",\"net\":{\"itc02\":\"d695\"}" in
  (match Query.decode_line (base ^ "}") with
  | Ok (Query.Metric { mq_model = m; _ }, _) ->
      check bool_t "absent fault_model defaults to stuck" true (m = Fault.Stuck)
  | _ -> Alcotest.fail "metric without fault_model rejected");
  List.iter
    (fun m ->
      let line =
        Printf.sprintf "%s,\"fault_model\":\"%s\"}" base
          (Fault.model_to_string m)
      in
      match Query.decode_line line with
      | Ok (Query.Metric { mq_model = m'; _ }, _) ->
          check bool_t
            (Printf.sprintf "fault_model %s decodes" (Fault.model_to_string m))
            true (m = m')
      | _ -> Alcotest.fail ("rejected " ^ line))
    Fault.all_models;
  match Query.decode_line (base ^ ",\"fault_model\":\"cosmic\"}") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown fault_model accepted"

(* Wire compatibility for the retired "pair_lanes" ablation key: a pairs
   request carrying it decodes to the same query as one without it and
   gets a byte-identical response, and encoding never emits it. *)
let test_pair_lanes_wire () =
  let with_key, without_key =
    match
      Query.encode
        (Query.Pairs
           {
             Query.pq_net = Lazy.force tiny_spec;
             pq_fault_sample = None;
             pq_pair_sample = None;
             pq_domains = 1;
             pq_engine = `Structural;
             pq_model = Fault.Stuck;
             pq_reduce = true;
             pq_inprocess = true;
             pq_lanes = false;
             pq_with_stats = false;
           })
    with
    | Json.Obj fields as plain ->
        check bool_t "encode never emits pair_lanes" false
          (List.mem_assoc "pair_lanes" fields);
        ( Json.to_string
            (Json.Obj (fields @ [ ("pair_lanes", Json.Bool false) ])),
          Json.to_string plain )
    | _ -> Alcotest.fail "pairs query must encode to an object"
  in
  match (Query.decode_line with_key, Query.decode_line without_key) with
  | Ok (q, _), Ok (q', _) ->
      check bool_t "pair_lanes:false decodes to the same query" true (q = q');
      check string_t "byte-identical response"
        (Response.to_string (Exec.run (Pool.create ()) q'))
        (Response.to_string (Exec.run (Pool.create ()) q))
  | _ -> Alcotest.fail "pairs request with pair_lanes rejected"

(* ------------------------------------------------------------------ *)
(* Pool behaviour                                                      *)

let metric_q ?(with_stats = false) ?(engine = `Structural)
    ?(model = Fault.Stuck) ?(domains = 1) ?sample spec =
  Query.Metric
    {
      Query.mq_net = spec;
      mq_sample = sample;
      mq_domains = domains;
      mq_engine = engine;
      mq_model = model;
      mq_reduce = true;
      mq_inprocess = true;
      mq_with_stats = with_stats;
    }

let test_pool_hits_and_counters () =
  let pool = Pool.create () in
  let spec = Lazy.force tiny_spec in
  (match Pool.acquire pool spec with
  | Error e -> Alcotest.fail e
  | Ok e1 -> (
      match Pool.acquire pool spec with
      | Error e -> Alcotest.fail e
      | Ok e2 ->
          check bool_t "same entry" true (e1 == e2);
          Pool.release pool e1;
          Pool.release pool e2));
  let s = Pool.stats pool in
  check int_t "one miss" 1 s.Response.po_misses;
  check int_t "one hit" 1 s.Response.po_hits;
  check int_t "one entry" 1 s.Response.po_entries;
  check int_t "no evictions" 0 s.Response.po_evictions;
  check bool_t "measured" true (s.Response.po_bytes > 0);
  (* build failures are reported, not cached *)
  match Pool.acquire pool { Query.ns_source = `Itc02 "nope"; ns_ft = false } with
  | Ok _ -> Alcotest.fail "unknown SoC accepted"
  | Error _ ->
      let s = Pool.stats pool in
      check int_t "failed build leaves no entry" 1 s.Response.po_entries

let test_pool_lru_eviction () =
  (* A budget small enough that four distinct warm netlists cannot all
     stay resident: the least-recently-used ones must be evicted. *)
  let pool = Pool.create ~budget_bytes:60_000 () in
  let specs =
    List.init 4 (fun i ->
        inline_spec
          (Sib.build
             ~name:(Printf.sprintf "evict%d" i)
             [ Sib.leaf ~name:"a" ~len:(2 + i); Sib.leaf ~name:"b" ~len:3 ]))
  in
  (* Run a real query on each so the warm artifacts materialize and the
     release-time measurement sees the grown entry. *)
  List.iter
    (fun spec ->
      match Exec.run pool (metric_q spec) with
      | Response.Metric_r _ -> ()
      | r -> Alcotest.fail (Response.to_string r))
    specs;
  let s = Pool.stats pool in
  check bool_t
    (Printf.sprintf "evictions happened (entries %d, bytes %d)"
       s.Response.po_entries s.Response.po_bytes)
    true
    (s.Response.po_evictions > 0);
  check bool_t "within budget" true (s.Response.po_bytes <= 60_000);
  check int_t "all four were misses" 4 s.Response.po_misses;
  (* An evicted netlist is rebuilt on demand and yields the same answer. *)
  let spec0 = List.nth specs 0 in
  let r1 = Response.to_string (Exec.run pool (metric_q spec0)) in
  let fresh = Response.to_string (Exec.run (Pool.create ()) (metric_q spec0)) in
  check string_t "rebuilt = fresh" fresh r1

(* ------------------------------------------------------------------ *)
(* Warm = cold determinism                                             *)

let test_warm_equals_cold () =
  let pool = Pool.create () in
  let qs =
    [
      metric_q (Lazy.force tiny_spec);
      metric_q ~engine:`Bmc (Lazy.force tiny_spec);
      metric_q (Lazy.force small_spec);
      metric_q ~model:Fault.Bridge (Lazy.force tiny_spec);
      metric_q ~model:Fault.Transient (Lazy.force tiny_spec);
      Query.Pairs
        {
          Query.pq_net = Lazy.force tiny_spec;
          pq_fault_sample = None;
          pq_pair_sample = None;
          pq_domains = 1;
          pq_engine = `Structural;
          pq_model = Fault.Stuck;
          pq_reduce = true;
          pq_inprocess = true;
          pq_lanes = true;
          pq_with_stats = false;
        };
      Query.Certify
        {
          Query.cq_net = Lazy.force tiny_spec;
          cq_sample = None;
          cq_domains = 1;
          cq_pairs = false;
          cq_model = Fault.Stuck;
          cq_inprocess = true;
          cq_with_stats = false;
        };
    ]
  in
  List.iter
    (fun q ->
      let cold = Response.to_string (Exec.run (Pool.create ()) q) in
      (* three consecutive warm runs: state reuse must not change bits *)
      for i = 1 to 3 do
        let warm = Response.to_string (Exec.run pool q) in
        check string_t
          (Printf.sprintf "warm run %d of %s" i (Query.to_string q))
          cold warm
      done)
    qs

(* One pooled entry serving several fault models: the per-model warm
   state (class arrays, name tables) must never cross-contaminate, and
   the warm answer for each model must match a cold run of just that
   model.  The interleaving below deliberately alternates models on the
   same entry before re-asking the first one. *)
let test_warm_pool_model_isolation () =
  let spec = Lazy.force small_spec in
  let cold m =
    Response.to_string (Exec.run (Pool.create ()) (metric_q ~model:m spec))
  in
  let colds = List.map (fun m -> (m, cold m)) Fault.all_models in
  let pool = Pool.create () in
  let ask m = Response.to_string (Exec.run pool (metric_q ~model:m spec)) in
  (* two alternating sweeps, then a reversed one *)
  for sweep = 1 to 2 do
    List.iter
      (fun m ->
        check string_t
          (Printf.sprintf "sweep %d: warm %s = cold" sweep
             (Fault.model_to_string m))
          (List.assoc m colds) (ask m))
      Fault.all_models
  done;
  List.iter
    (fun m ->
      check string_t
        (Printf.sprintf "reverse sweep: warm %s = cold" (Fault.model_to_string m))
        (List.assoc m colds) (ask m))
    (List.rev Fault.all_models);
  (* distinct models really do see distinct universes on this entry *)
  let universes =
    List.map
      (fun m -> List.length (Fault.universe ~model:m (small_net ())))
      Fault.all_models
  in
  check bool_t "models have distinct universes" true
    (List.length (List.sort_uniq compare universes) > 1);
  (* fault name resolution is per model: a stuck name is not served from
     (or into) another model's table *)
  (match Pool.acquire pool spec with
  | Error e -> Alcotest.fail e
  | Ok entry ->
      let net = Pool.net entry in
      let stuck_name = Fault.to_string net (List.hd (Fault.universe net)) in
      check bool_t "stuck name resolves in stuck table" true
        (Pool.fault_of_string entry stuck_name <> None);
      (match Fault.universe ~model:Fault.Transient net with
      | [] -> ()
      | tf :: _ ->
          let tname = Fault.to_string net tf in
          check bool_t "transient name resolves in transient table" true
            (Pool.fault_of_string ~model:Fault.Transient entry tname <> None);
          check bool_t "transient name absent from stuck table" true
            (Pool.fault_of_string entry tname = None));
      Pool.release pool entry)

(* Interleaved concurrent queries over multiple netlists on one shared
   pool: every response must be bit-identical to a fresh one-shot run of
   the same query.  The schedule (which thread runs which query when) is
   the random part; the responses must be schedule-independent. *)
let prop_concurrent_interleaving =
  let menu =
    lazy
      (let tiny = Lazy.force tiny_spec and small = Lazy.force small_spec in
       let probe_fault =
         let net = tiny_net () in
         Fault.to_string net (List.hd (Fault.universe net))
       in
       (* The FT rework's structural sweeps run lane batches through a
          per-worker workspace; on two domains inside each of several
          threads, no two workers may ever share one. *)
       let small_ft = { small with Query.ns_ft = true } in
       [
         metric_q small_ft;
         metric_q ~domains:2 small_ft;
         Query.Pairs
           {
             Query.pq_net = small_ft;
             pq_fault_sample = None;
             pq_pair_sample = None;
             pq_domains = 2;
             pq_engine = `Structural;
             pq_model = Fault.Stuck;
             pq_reduce = true;
             pq_inprocess = true;
             pq_lanes = true;
             pq_with_stats = false;
           };
         metric_q tiny;
         metric_q ~engine:`Bmc tiny;
         metric_q small;
         metric_q ~sample:2 small;
         metric_q ~model:Fault.Bridge tiny;
         metric_q ~model:Fault.Transient small;
         Query.Pairs
           {
             Query.pq_net = tiny;
             pq_fault_sample = None;
             pq_pair_sample = None;
             pq_domains = 1;
             pq_engine = `Structural;
             pq_model = Fault.Stuck;
             pq_reduce = true;
             pq_inprocess = true;
             pq_lanes = true;
             pq_with_stats = false;
           };
         Query.Probe
           {
             Query.pb_net = tiny;
             pb_target = "a";
             pb_fault = Some probe_fault;
             pb_model = Fault.Stuck;
             pb_svf = false;
           };
         Query.Diagnose
           { Query.dq_net = small; dq_signature = None; dq_limit = Some 5 };
         Query.Netinfo small;
       ])
  in
  let reference =
    lazy
      (List.map
         (fun q ->
           (Query.to_string q, Response.to_string (Exec.run (Pool.create ()) q)))
         (Lazy.force menu))
  in
  QCheck.Test.make ~name:"concurrent interleaved queries = fresh one-shot runs"
    ~count:5
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let menu = Array.of_list (Lazy.force menu) in
      let reference = Lazy.force reference in
      let st = Random.State.make [| seed |] in
      let pool = Pool.create () in
      let threads = 3 and per_thread = 6 in
      let schedule =
        Array.init threads (fun _ ->
            Array.init per_thread (fun _ ->
                menu.(Random.State.int st (Array.length menu))))
      in
      let results = Array.make threads [] in
      let workers =
        Array.mapi
          (fun i qs ->
            Thread.create
              (fun () ->
                results.(i) <-
                  Array.to_list
                    (Array.map
                       (fun q ->
                         (Query.to_string q,
                          Response.to_string (Exec.run pool q)))
                       qs))
              ())
          schedule
      in
      Array.iter Thread.join workers;
      Array.for_all
        (fun rs ->
          List.for_all
            (fun (qs, rsp) -> List.assoc qs reference = rsp)
            rs)
        results)

(* ------------------------------------------------------------------ *)
(* Server loop                                                         *)

let with_temp_file f =
  let path = Filename.temp_file "ftrsn_service" ".ndjson" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let serve_batch cfg lines =
  with_temp_file (fun req_path ->
      with_temp_file (fun resp_path ->
          let oc = open_out_bin req_path in
          List.iter (fun l -> output_string oc (l ^ "\n")) lines;
          close_out oc;
          let ic = open_in_bin req_path in
          let oc = open_out_bin resp_path in
          Server.serve_channels cfg (Pool.create ()) ic oc;
          close_in_noerr ic;
          close_out oc;
          let ic = open_in_bin resp_path in
          let rec read acc =
            match input_line ic with
            | line -> read (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          let out = read [] in
          close_in_noerr ic;
          out))

let test_serve_serial_order () =
  let qs =
    [
      metric_q (Lazy.force tiny_spec);
      Query.Netinfo (Lazy.force small_spec);
      metric_q (Lazy.force tiny_spec);
    ]
  in
  let lines = List.map Query.to_string qs @ [ "{\"op\":\"bogus\"}"; "{" ] in
  let out =
    serve_batch { Server.default_config with Server.workers = 1 } lines
  in
  check int_t "one response per request" (List.length lines) (List.length out);
  (* in-order: response i matches a fresh run of query i *)
  List.iteri
    (fun i q ->
      let fresh = Response.to_string (Exec.run (Pool.create ()) q) in
      check string_t (Printf.sprintf "serial response %d" i) fresh
        (List.nth out i))
    qs;
  (* the two trailing bad requests answer with bad_request errors *)
  List.iter
    (fun line ->
      match Response.decode (Json.of_string line) with
      | Response.Error_r (Response.Bad_request, _), _ -> ()
      | _ -> Alcotest.fail ("expected bad_request: " ^ line))
    (List.filteri (fun i _ -> i >= List.length qs) out)

(* Transient double faults are rejected with the typed [unsupported]
   error: same wire line through Exec.run and the serve loop, stable
   exit code 5 — not an Internal catch-all. *)
let test_serve_transient_pairs_unsupported () =
  let q =
    Query.Pairs
      {
        Query.pq_net = Lazy.force tiny_spec;
        pq_fault_sample = None;
        pq_pair_sample = None;
        pq_domains = 1;
        pq_engine = `Structural;
        pq_model = Fault.Transient;
        pq_reduce = true;
        pq_inprocess = true;
        pq_lanes = true;
        pq_with_stats = false;
      }
  in
  let r = Exec.run (Pool.create ()) q in
  (match r with
  | Response.Error_r (Response.Unsupported, _) -> ()
  | _ ->
      Alcotest.fail ("expected unsupported error: " ^ Response.to_string r));
  check int_t "exit code 5" 5 (Response.exit_code r);
  let out =
    serve_batch
      { Server.default_config with Server.workers = 1 }
      [ Query.to_string q ]
  in
  check int_t "one response" 1 (List.length out);
  check string_t "serve = exec" (Response.to_string r) (List.hd out)

let test_serve_threaded_ids () =
  let qs =
    [
      (1, metric_q (Lazy.force tiny_spec));
      (2, Query.Netinfo (Lazy.force small_spec));
      (3, metric_q ~engine:`Bmc (Lazy.force tiny_spec));
      (4, metric_q (Lazy.force small_spec));
    ]
  in
  let lines =
    List.map
      (fun (id, q) ->
        match Query.encode q with
        | Json.Obj fields -> Json.to_string (Json.Obj (("id", Json.Int id) :: fields))
        | _ -> assert false)
      qs
  in
  let out =
    serve_batch
      { Server.default_config with Server.workers = 2; heavy_workers = 1 }
      lines
  in
  check int_t "one response per request" (List.length qs) (List.length out);
  let by_id =
    List.map
      (fun line ->
        match Response.decode (Json.of_string line) with
        | r, Some (Json.Int id) -> (id, r)
        | _ -> Alcotest.fail ("response without id: " ^ line))
      out
  in
  List.iter
    (fun (id, q) ->
      let fresh = Exec.run (Pool.create ()) q in
      match List.assoc_opt id by_id with
      | Some r ->
          check string_t
            (Printf.sprintf "threaded response id %d" id)
            (Response.to_string fresh) (Response.to_string r)
      | None -> Alcotest.fail (Printf.sprintf "missing response id %d" id))
    qs

let suite =
  [
    Alcotest.test_case "json: roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: malformed rejected" `Quick test_json_malformed;
    Alcotest.test_case "query: golden roundtrips" `Quick test_query_roundtrip;
    Alcotest.test_case "response: golden roundtrips" `Quick
      test_response_roundtrip;
    Alcotest.test_case "response: exit codes" `Quick test_exit_codes;
    Alcotest.test_case "query: decode_line errors" `Quick
      test_decode_line_errors;
    Alcotest.test_case "query: fault_model wire compatibility" `Quick
      test_fault_model_wire;
    Alcotest.test_case "query: pair_lanes accepted and ignored" `Quick
      test_pair_lanes_wire;
    Alcotest.test_case "pool: hits and counters" `Quick
      test_pool_hits_and_counters;
    Alcotest.test_case "pool: LRU eviction under byte budget" `Quick
      test_pool_lru_eviction;
    Alcotest.test_case "warm pooled runs = cold runs (all engines)" `Quick
      test_warm_equals_cold;
    Alcotest.test_case "warm pool: fault models are isolated" `Quick
      test_warm_pool_model_isolation;
    Testseed.to_alcotest prop_concurrent_interleaving;
    Alcotest.test_case "serve: serial mode is in-order and deterministic"
      `Quick test_serve_serial_order;
    Alcotest.test_case "serve: transient pairs answer unsupported (exit 5)"
      `Quick test_serve_transient_pairs_unsupported;
    Alcotest.test_case "serve: threaded mode answers every id" `Quick
      test_serve_threaded_ids;
  ]
