(* Entry point: bench.exe --workload W --seed N --seconds S --trace 0|1.
   Prints one JSON line (correct, attempted, failed, metrics) last on
   stdout and writes a result file with provenance to .perfbench-out/. *)

open Common
open Perfbench_harness

let batch ~clock ~seconds ~trace ~setup ~items =
  let acc = Batch.new_acc () in
  if not trace then begin
    let nets = setup () in
    let items = items ~acc nets in
    let st, setups = run_timed ~clock ~seconds ~setup items in
    let attempted, failed = counts st in
    let metrics, details = batch_metrics ~setup_s:(Harness.median setups) st in
    { attempted; failed; metrics; details }
  end
  else begin
    let nets = setup () in
    Trace.on := true;
    ignore (setup ());
    Trace.on := false;
    let rsn_ms = 1000.0 *. Trace.total "itc02.rsn" in
    let items = items ~acc nets in
    let st_u, t_u = run_pass items in
    acc.Batch.results <- [];
    acc.Batch.synths <- [];
    Trace.on := true;
    let st_t, t_t = run_pass items in
    Trace.on := false;
    let a1, f1 = counts st_u and a2, f2 = counts st_t in
    let layers =
      Perlayer.of_batch acc.Batch.results acc.Batch.synths
      @ [
          ("itc02.rsn_ms", rsn_ms);
          ("trace.overhead_ms", 1000.0 *. (t_t -. t_u));
          ("trace.overhead_frac", (t_t -. t_u) /. t_u);
        ]
    in
    {
      attempted = a1 + a2;
      failed = f1 + f2;
      metrics = Perlayer.complete layers;
      details = [ ("untraced_pass_s", Json.Float t_u); ("traced_pass_s", Json.Float t_t) ];
    }
  end

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref 0 in
  let capacity = ref false in
  Arg.parse
    [
      ("--capacity", Arg.Set capacity, "measure serve_mix's closed-loop capacity instead");
      ("--workload", Arg.Set_string workload, "table1 | certify | pairs | serve_mix");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "1 = traced run (per-layer metrics)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "bench: --seed >= 0, --seconds >= 1 and --trace 0|1 are required";
    exit 2
  end;
  let seconds = !seconds and traced = !trace = 1 and seed = !seed in
  if !capacity then begin
    Serve.capacity ~seed ~seconds;
    exit 0
  end;
  let o =
    match !workload with
    | "table1" ->
        batch ~clock:Cpu ~seconds ~trace:traced ~setup:Batch.table1_setup
          ~items:Batch.table1_items
    | "certify" ->
        batch ~clock:Cpu ~seconds ~trace:traced ~setup:(Batch.certify_setup ~seed)
          ~items:Batch.certify_items
    | "pairs" ->
        batch ~clock:Wall ~seconds ~trace:traced ~setup:(Batch.pairs_setup ~seed)
          ~items:Batch.pairs_items
    | "serve_mix" -> Serve.run ~seed ~seconds ~trace:traced
    | w ->
        Printf.eprintf "bench: unknown workload %S\n" w;
        exit 2
  in
  finish ~workload:!workload ~seed ~seconds ~trace:!trace o
