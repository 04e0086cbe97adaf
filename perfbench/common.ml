(* Shared plumbing: clocks, provenance, peak memory, result output and
   the timed loop of the batch workloads. *)

open Perfbench_harness
module Json = Ftrsn_service.Json

let now = Unix.gettimeofday
let out_dir = ".perfbench-out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* The clock a batch workload is timed on.  [Cpu] is this process's
   user + system time over all its threads: the virtual machine the
   benchmark was built on loses vCPU time to its host in bursts (a call's
   wall time grew by up to 60% while its CPU time stayed within 10%), and
   single-domain work is best timed without those bursts.  [Wall] is for
   work spread over several domains, whose idle time is part of what is
   measured. *)
type clock = Wall | Cpu

let read_clock = function
  | Wall -> now ()
  | Cpu ->
      let t = Unix.times () in
      t.Unix.tms_utime +. t.Unix.tms_stime

let timed_on clock f =
  let t0 = read_clock clock in
  let r = f () in
  (r, read_clock clock -. t0)

let timed f = timed_on Wall f

(* ------------------------------------------------------------------ *)
(* Provenance: what identifies the measured build, as in bench/'s _meta *)

let git_commit () =
  let line path =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic)
  in
  match line ".git/HEAD" with
  | exception _ -> None
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match line (Filename.concat ".git" r) with
      | c -> Some c
      | exception _ -> Some r)
  | head -> Some head

let git_dirty () =
  if not (Sys.file_exists ".git") then None
  else
    match Sys.command "git diff-index --quiet HEAD -- >/dev/null 2>&1" with
    | 0 -> Some false
    | 1 -> Some true
    | _ -> None

let provenance () =
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    [
      ("commit", opt (fun c -> Json.Str c) (git_commit ()));
      ("dirty", opt (fun b -> Json.Bool b) (git_dirty ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("int_size", Json.Int Sys.int_size);
      ("lane_width", Json.Int Ftrsn_access.Engine.lane_width);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
    ]

(* ------------------------------------------------------------------ *)
(* Peak resident memory (VmHWM) of this process or a child              *)

let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        let l = input_line ic in
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        else scan ()
      in
      scan ())

(* ------------------------------------------------------------------ *)
(* Result                                                               *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
  details : (string * Json.t) list;  (* result file only *)
}

let metric_obj ms =
  Json.Obj
    (List.map
       (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]))
       ms)

(* Writes the result file (with provenance and, when traced, the spans)
   and prints the one-line result that ends standard output. *)
let finish ~workload ~seed ~seconds ~trace o =
  ensure_out_dir ();
  let base = Printf.sprintf "%s/%s-seed%d-trace%d" out_dir workload seed trace in
  let correct = o.failed = 0 in
  let summary =
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ("metrics", metric_obj o.metrics);
    ]
  in
  let selfs =
    List.map
      (fun (name, (n, t)) ->
        (name, Json.Obj [ ("spans", Json.Int n); ("self_s", Json.Float t) ]))
      (Trace.self_by_name ())
  in
  let oc = open_out (base ^ ".json") in
  output_string oc
    (Json.to_string
       (Json.Obj
          ([
             ("provenance", provenance ());
             ("workload", Json.Str workload);
             ("seed", Json.Int seed);
             ("seconds", Json.Int seconds);
             ("trace", Json.Int trace);
           ]
          @ summary
          @ [ ("details", Json.Obj o.details); ("self_time", Json.Obj selfs) ])));
  output_char oc '\n';
  close_out oc;
  if !Trace.spans <> [] then Trace.write (base ^ ".spans.jsonl");
  print_endline (Json.to_string (Json.Obj summary))

(* ------------------------------------------------------------------ *)
(* Batch workloads: a fixed list of library calls, cycled               *)

type check = { verdicts : int; ok : bool; why : string }

type item = {
  it_name : string;
  it_run : unit -> unit -> check;
      (* runs the timed call; the returned closure checks its result,
         untimed *)
}

type item_stats = {
  is_name : string;
  mutable is_times : float list;
  mutable is_verdicts : int;
  mutable is_runs : int;
  mutable is_fails : int;
}

let run_one ?(clock = Wall) st it =
  let chk, t = timed_on clock it.it_run in
  let c = chk () in
  st.is_times <- t :: st.is_times;
  st.is_runs <- st.is_runs + 1;
  st.is_verdicts <- c.verdicts;
  if not c.ok then begin
    st.is_fails <- st.is_fails + 1;
    Printf.eprintf "FAILED %s: %s\n%!" it.it_name c.why
  end

let new_stats items =
  Array.map
    (fun it ->
      { is_name = it.it_name; is_times = []; is_verdicts = 0; is_runs = 0; is_fails = 0 })
    items

(* Cycles through the items until [seconds] have passed and every item
   has run at least once; the call in flight always completes.  The
   machine's speed drifts within seconds, so the set-up is repeated
   before every call (untimed for the call) rather than back to back:
   its median then samples the whole run.  Returns the item statistics
   and the set-up times. *)
let run_timed ~clock ~seconds ~setup items =
  let st = new_stats items in
  let n = Array.length items in
  let setups = ref [] in
  let t0 = now () in
  let rec go i =
    setups := snd (timed_on clock setup) :: !setups;
    run_one ~clock st.(i mod n) items.(i mod n);
    if i + 1 >= n && now () -. t0 >= float seconds then () else go (i + 1)
  in
  go 0;
  (st, Array.of_list !setups)

(* One pass, every item once (traced runs). *)
let run_pass items =
  let st = new_stats items in
  let (), t =
    timed (fun () ->
        Array.iteri
          (fun i it -> Trace.span ~rid:i ("item:" ^ it.it_name) (fun () -> run_one st.(i) it))
          items)
  in
  (st, t)

let counts st =
  Array.fold_left (fun (a, f) s -> (a + s.is_runs, f + s.is_fails)) (0, 0) st

(* End-to-end metrics of a batch workload.  Each call's time is the
   median over its repeats, so the sample set is the same on every run
   whatever the number of passes.  The time per call is the mean over the
   calls: a median would pick one call, timed in one instant of a
   machine whose speed drifts by a fifth within seconds. *)
let batch_metrics ~setup_s st =
  let meds = Array.map (fun s -> Harness.median (Array.of_list s.is_times)) st in
  let verdicts = Array.fold_left (fun a s -> a + s.is_verdicts) 0 st in
  let busy = Array.fold_left ( +. ) 0.0 meds in
  let attempted, failed = counts st in
  ( [
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", peak_rss_mb 0, "MB");
      ("throughput_per_s", float verdicts /. busy, "1/s");
      ("ms_per_op", 1000.0 *. busy /. float (Array.length meds), "ms");
      ( "goodput_frac",
        float (attempted - failed) /. float (max 1 attempted),
        "frac" );
    ],
    [
      ("calls", Json.Int (Array.length st));
      ( "per_call",
        Json.Obj
          (Array.to_list
             (Array.map2
                (fun s m ->
                  ( s.is_name,
                    Json.Obj
                      [
                        ("median_s", Json.Float m);
                        ("runs", Json.Int s.is_runs);
                        ("verdicts", Json.Int s.is_verdicts);
                      ] ))
                st meds)) );
    ] )
