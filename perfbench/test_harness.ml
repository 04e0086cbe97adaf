(* Self-tests of the benchmark's own arithmetic: percentiles under the
   ten-beyond rule, due-time latency under a stalled sender, and span
   self time.  Run by `dune runtest`. *)

open Perfbench_harness

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9
let ramp n = Array.init n (fun i -> float (i + 1))

let test_percentiles () =
  check "median of 1..9" (Harness.median (ramp 9) = 5.0);
  check "median of 1..10 is the mean of the middle two" (Harness.median (ramp 10) = 5.5);
  check "median of two repeats" (Harness.median [| 2.0; 4.0 |] = 3.0);
  check "median ignores order" (Harness.median [| 3.0; 1.0; 2.0 |] = 2.0);
  check "p99 of 1..100" (Harness.quantile_sorted (ramp 100) 0.99 = 99.0);
  check "p100 is the maximum" (Harness.quantile_sorted (ramp 7) 1.0 = 7.0);
  (* Ten-beyond rule: the tail is capped at p99 but never has fewer than
     ten samples above it. *)
  check "no tail below 11 samples" (Harness.tail (ramp 10) = None);
  check "11 samples: the minimum, ten beyond" (Harness.tail (ramp 11) = Some (100.0 /. 11.0, 1.0));
  check "100 samples: p90" (Harness.tail (ramp 100) = Some (90.0, 90.0));
  check "1000 samples: p99 with exactly ten beyond" (Harness.tail (ramp 1000) = Some (99.0, 990.0));
  check "5000 samples: p99" (Harness.tail (ramp 5000) = Some (99.0, 4950.0));
  (match Harness.tail (ramp 1500) with
  | Some (_, v) ->
      let beyond = Array.length (Array.of_list (List.filter (fun x -> x > v) (Array.to_list (ramp 1500)))) in
      check "1500 samples: at least ten beyond" (beyond >= 10)
  | None -> check "1500 samples have a tail" false)

(* A sender due to send every 10 ms stalls 100 ms before its second
   request, then catches up; the server answers 1 ms after each send.
   Timed from the send, the stall vanishes; timed from the due time, it
   lands on every request it delayed. *)
let test_stalled_sender () =
  let due = Array.init 5 (fun i -> 0.010 *. float i) in
  let sent = Array.mapi (fun i d -> if i = 0 then d else Float.max d 0.110) due in
  let recv = Array.map (fun s -> s +. 0.001) sent in
  let lat = Array.mapi (fun i d -> Harness.latency ~due:d ~recv:recv.(i)) due in
  check "undelayed request" (close lat.(0) 0.001);
  check "stalled request counts the stall" (close lat.(1) 0.101);
  check "later requests count their share" (close lat.(4) 0.071);
  check "lateness" (close (Harness.lateness ~due:due.(1) ~sent:sent.(1)) 0.100);
  check "early send is not late" (Harness.lateness ~due:1.0 ~sent:0.5 = 0.0);
  check "unanswered stays unanswered" (Float.is_nan (Harness.latency ~due:0.0 ~recv:nan));
  let rng = Random.State.make [| 7 |] in
  let d = Harness.poisson_due rng ~rate:1000.0 ~duration:10.0 in
  let n = Array.length d in
  check "poisson count near rate * duration" (n > 9500 && n < 10500);
  check "poisson due times ascend within the phase"
    (Array.for_all (fun t -> t >= 0.0 && t < 10.0) d
    && Array.for_all Fun.id (Array.init (n - 1) (fun i -> d.(i) <= d.(i + 1))))

let span id ?(parent = -1) a b =
  {
    Harness.sp_id = id;
    sp_name = string_of_int id;
    sp_start = a;
    sp_stop = b;
    sp_parent = parent;
    sp_rid = 0;
  }

let test_self_time () =
  let spans =
    [
      span 0 0.0 10.0;
      (* overlapping children: the union counts once *)
      span 1 ~parent:0 1.0 3.0;
      span 2 ~parent:0 2.0 5.0;
      (* a child running past its parent is clipped *)
      span 3 ~parent:0 8.0 12.0;
      (* a grandchild is its parent's child, not the root's *)
      span 4 ~parent:1 1.5 2.5;
    ]
  in
  let self id = snd (List.find (fun (s, _) -> s.Harness.sp_id = id) (Harness.self_times spans)) in
  check "root self time" (close (self 0) 4.0);
  check "child minus grandchild" (close (self 1) 1.0);
  check "leaf self time" (close (self 2) 3.0);
  check "grandchild" (close (self 4) 1.0);
  Trace.on := true;
  Trace.span "outer" (fun () -> Trace.span "inner" (fun () -> ()));
  Trace.on := false;
  Trace.span "untraced" (fun () -> ());
  check "recorder keeps two spans" (List.length !Trace.spans = 2);
  check "recorder links the child"
    (match Trace.named "inner", Trace.named "outer" with
    | [ i ], [ o ] -> i.Harness.sp_parent = o.Harness.sp_id
    | _ -> false)

let () =
  test_percentiles ();
  test_stalled_sender ();
  test_self_time ();
  if !failures > 0 then exit 1
