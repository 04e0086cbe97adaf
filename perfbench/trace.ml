(* In-memory span recorder for the traced run.  Spans are taken from the
   benchmark's own code around its calls into the program's layers;
   nothing inside the program is instrumented.  Single-threaded use only:
   every traced call is made from the main thread. *)

let on = ref false
let spans : Harness.span list ref = ref []
let next_id = ref 0
let current = ref (-1)

let span ?(rid = 0) name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        current := parent;
        spans :=
          {
            Harness.sp_id = id;
            sp_name = name;
            sp_start = start;
            sp_stop = Unix.gettimeofday ();
            sp_parent = parent;
            sp_rid = rid;
          }
          :: !spans)
      f
  end

(* Spans of one name, oldest first. *)
let named name = List.rev (List.filter (fun s -> s.Harness.sp_name = name) !spans)

let durations name =
  Array.of_list
    (List.map (fun s -> s.Harness.sp_stop -. s.Harness.sp_start) (named name))

let total name = Array.fold_left ( +. ) 0.0 (durations name)

(* Self time summed per span name, sorted by name. *)
let self_by_name () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun ((s : Harness.span), self) ->
      let n, t = try Hashtbl.find tbl s.sp_name with Not_found -> (0, 0.0) in
      Hashtbl.replace tbl s.sp_name (n + 1, t +. self))
    (Harness.self_times !spans);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (s : Harness.span) ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\"rid\":%d}\n"
            s.sp_id s.sp_name s.sp_start s.sp_stop s.sp_parent s.sp_rid)
        (List.rev !spans))
