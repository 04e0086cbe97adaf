(* The benchmark's own arithmetic: percentiles, open-loop schedules and
   span self time.  Pure functions, so the self-tests in
   test_harness.ml can pin them down without running a workload. *)

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile of a sorted array: the smallest sample with
   at least [q] of the samples at or below it. *)
let rank n q = max 1 (min n (int_of_float (Float.ceil ((q *. float n) -. 1e-9))))

let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "quantile of no samples" else s.(rank n q - 1)

(* The usual median: the mean of the two middle samples when their
   number is even, so that two repeats of a call weigh equally. *)
let median a =
  let s = sorted a and n = Array.length a in
  if n = 0 then invalid_arg "median of no samples"
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The reported tail: the highest percentile, capped at p99, that still
   has at least ten samples beyond it.  Returns the percentile used and
   its value; [None] with fewer than eleven samples. *)
let tail a =
  let n = Array.length a in
  if n < 11 then None
  else
    let r = min (rank n 0.99) (n - 10) in
    Some (100. *. float r /. float n, (sorted a).(r - 1))

(* ------------------------------------------------------------------ *)
(* Open-loop schedule                                                   *)

(* Poisson arrivals at [rate] per second over [duration] seconds: due
   times relative to the phase start, exponential gaps. *)
let poisson_due rng ~rate ~duration =
  let rec go t acc =
    let u = 1.0 -. Random.State.float rng 1.0 in
    let t = t -. (log u /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0.0 []

(* An open loop times each request from when it was due, not from when
   the sender got round to it, so a stalled sender shows up as latency
   of every request it delayed.  [nan] marks a request never answered. *)
let latency ~due ~recv = if Float.is_nan recv then nan else recv -. due

let lateness ~due ~sent = Float.max 0.0 (sent -. due)

(* ------------------------------------------------------------------ *)
(* Span self time                                                       *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_start : float;
  sp_stop : float;
  sp_parent : int;  (* -1 at the root *)
  sp_rid : int;     (* request (or work item) the span belongs to *)
}

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) ivs
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* A span's self time is its duration minus the part of it that its
   direct children cover.  Returns [(span, self)] in input order. *)
let self_times spans =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace kids s.sp_parent
          ((s.sp_start, s.sp_stop)
          :: (try Hashtbl.find kids s.sp_parent with Not_found -> [])))
    spans;
  List.map
    (fun s ->
      let c =
        match Hashtbl.find_opt kids s.sp_id with
        | None -> 0.0
        | Some ivs -> covered ~lo:s.sp_start ~hi:s.sp_stop ivs
      in
      (s, s.sp_stop -. s.sp_start -. c))
    spans
