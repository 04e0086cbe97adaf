(* Successive shortest augmenting paths with Johnson potentials.  Arcs are
   stored in the paired forward/reverse layout of [Maxflow]; Dijkstra runs on
   reduced costs, which stay non-negative because input costs are
   non-negative and potentials are updated after every augmentation. *)

(* A binary heap of (dist, vertex) pairs for Dijkstra, unboxed into two
   parallel int arrays and owned by the network, so the thousands of
   Dijkstra passes of one solve allocate nothing per push.  Only the
   distances are compared, and whole pairs move together, so the pop
   order is exactly that of a heap of tuples. *)
module Heap = struct
  type h = { mutable d : int array; mutable v : int array; mutable len : int }

  let make () = { d = Array.make 64 0; v = Array.make 64 0; len = 0 }

  let clear h = h.len <- 0

  let swap h i j =
    let td = h.d.(i) and tv = h.v.(i) in
    h.d.(i) <- h.d.(j);
    h.v.(i) <- h.v.(j);
    h.d.(j) <- td;
    h.v.(j) <- tv

  let push h d v =
    if h.len = Array.length h.d then begin
      h.d <- Array.append h.d (Array.make h.len 0);
      h.v <- Array.append h.v (Array.make h.len 0)
    end;
    h.d.(h.len) <- d;
    h.v.(h.len) <- v;
    let i = ref h.len in
    h.len <- h.len + 1;
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      h.d.(p) > h.d.(!i)
    do
      let p = (!i - 1) / 2 in
      swap h p !i;
      i := p
    done

  (* Removes the minimum; read it with [top_d]/[top_v] first. *)
  let pop h =
    h.len <- h.len - 1;
    h.d.(0) <- h.d.(h.len);
    h.v.(0) <- h.v.(h.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.len && h.d.(l) < h.d.(!m) then m := l;
      if r < h.len && h.d.(r) < h.d.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        swap h !m !i;
        i := !m
      end
    done

  let top_d h = h.d.(0)
  let top_v h = h.v.(0)
  let is_empty h = h.len = 0
end

type t = {
  n : int;
  mutable head : int array array;
  mutable dst : int array;
  mutable cap : int array;
  mutable cap0 : int array;
  mutable cost : int array;
  mutable arcs : int;
  mutable adj : int list array;
  mutable frozen : bool;
  pot : int array;     (* Johnson potentials *)
  dist : int array;
  prev_arc : int array;
  heap : Heap.h;       (* Dijkstra's queue, reused by every pass *)
}

let inf = max_int / 4

let create ~n =
  if n <= 0 then invalid_arg "Mincost.create: n must be positive";
  {
    n;
    head = [||];
    dst = Array.make 16 0;
    cap = Array.make 16 0;
    cap0 = Array.make 16 0;
    cost = Array.make 16 0;
    arcs = 0;
    adj = Array.make n [];
    frozen = false;
    pot = Array.make n 0;
    dist = Array.make n inf;
    prev_arc = Array.make n (-1);
    heap = Heap.make ();
  }

let ensure_arc_room g =
  let len = Array.length g.dst in
  if g.arcs + 2 > len then begin
    let len' = 2 * len in
    let grow a = Array.append a (Array.make (len' - len) 0) in
    g.dst <- grow g.dst;
    g.cap <- grow g.cap;
    g.cap0 <- grow g.cap0;
    g.cost <- grow g.cost
  end

let add_edge g ~src ~dst ~cap ~cost =
  if g.frozen then invalid_arg "Mincost.add_edge: network already solved";
  if cap < 0 then invalid_arg "Mincost.add_edge: negative capacity";
  if cost < 0 then invalid_arg "Mincost.add_edge: negative cost";
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then
    invalid_arg "Mincost.add_edge: vertex out of range";
  ensure_arc_room g;
  let a = g.arcs in
  g.dst.(a) <- dst;
  g.cap.(a) <- cap;
  g.cap0.(a) <- cap;
  g.cost.(a) <- cost;
  g.dst.(a + 1) <- src;
  g.cap.(a + 1) <- 0;
  g.cap0.(a + 1) <- 0;
  g.cost.(a + 1) <- -cost;
  g.adj.(src) <- a :: g.adj.(src);
  g.adj.(dst) <- (a + 1) :: g.adj.(dst);
  g.arcs <- g.arcs + 2;
  a / 2

let freeze g =
  if not g.frozen then begin
    g.head <- Array.map (fun l -> Array.of_list (List.rev l)) g.adj;
    g.frozen <- true
  end

let reset g =
  Array.blit g.cap0 0 g.cap 0 g.arcs;
  Array.fill g.pot 0 g.n 0

(* One Dijkstra pass on reduced costs; fills [dist] and [prev_arc].
   Returns true iff [t] is reachable in the residual graph. *)
let dijkstra g s t =
  Array.fill g.dist 0 g.n inf;
  Array.fill g.prev_arc 0 g.n (-1);
  let h = g.heap in
  Heap.clear h;
  g.dist.(s) <- 0;
  Heap.push h 0 s;
  while not (Heap.is_empty h) do
    let d = Heap.top_d h and v = Heap.top_v h in
    Heap.pop h;
    if d <= g.dist.(v) then begin
      let arcs = g.head.(v) in
      for k = 0 to Array.length arcs - 1 do
        let a = arcs.(k) in
        if g.cap.(a) > 0 then begin
          let w = g.dst.(a) in
          let rc = g.cost.(a) + g.pot.(v) - g.pot.(w) in
          let nd = d + rc in
          if nd < g.dist.(w) then begin
            g.dist.(w) <- nd;
            g.prev_arc.(w) <- a;
            Heap.push h nd w
          end
        end
      done
    end
  done;
  g.dist.(t) < inf

(* Augment along the shortest-path tree; returns (delta, path_cost_delta). *)
let augment g s t limit =
  let bottleneck = ref limit in
  let v = ref t in
  while !v <> s do
    let a = g.prev_arc.(!v) in
    if g.cap.(a) < !bottleneck then bottleneck := g.cap.(a);
    v := g.dst.(a lxor 1)
  done;
  let cost = ref 0 in
  let v = ref t in
  while !v <> s do
    let a = g.prev_arc.(!v) in
    g.cap.(a) <- g.cap.(a) - !bottleneck;
    g.cap.(a lxor 1) <- g.cap.(a lxor 1) + !bottleneck;
    cost := !cost + g.cost.(a);
    v := g.dst.(a lxor 1)
  done;
  (!bottleneck, !cost)

let run g ~s ~t ~amount =
  if s = t then invalid_arg "Mincost: s = t";
  if s < 0 || s >= g.n || t < 0 || t >= g.n then
    invalid_arg "Mincost: terminal out of range";
  freeze g;
  reset g;
  let flow = ref 0 and cost = ref 0 in
  let want = match amount with None -> inf | Some a -> a in
  let continue = ref true in
  while !continue && !flow < want && dijkstra g s t do
    for v = 0 to g.n - 1 do
      if g.dist.(v) < inf then g.pot.(v) <- g.pot.(v) + g.dist.(v)
    done;
    let d, c = augment g s t (want - !flow) in
    if d = 0 then continue := false
    else begin
      flow := !flow + d;
      cost := !cost + (c * d)
    end
  done;
  (!flow, !cost)

let min_cost_max_flow g ~s ~t = run g ~s ~t ~amount:None

let min_cost_flow g ~s ~t ~amount =
  let flow, cost = run g ~s ~t ~amount:(Some amount) in
  if flow = amount then Some cost else None

let flow_on g e =
  let a = 2 * e in
  if a < 0 || a >= g.arcs then invalid_arg "Mincost.flow_on: bad edge id";
  g.cap0.(a) - g.cap.(a)

module With_lower_bounds = struct
  type spec = {
    lb_src : int;
    lb_dst : int;
    lb_low : int;
    lb_cap : int;
    lb_cost : int;
  }

  (* Standard reduction: an arc (u, v) with bounds [l, c] becomes an arc
     (u, v) with capacity c - l, plus l units forced through the
     super-source S* -> v and u -> super-sink T*.  A free return arc t -> s
     closes the circulation.  Feasible iff the S*-T* max flow saturates all
     demand; the per-arc flow is the reduced-arc flow plus its lower
     bound. *)
  let solve ~n ~arcs ~s ~t =
    Array.iteri
      (fun i a ->
        if a.lb_low < 0 || a.lb_low > a.lb_cap then
          invalid_arg
            (Printf.sprintf "With_lower_bounds.solve: bad bounds on arc %d" i))
      arcs;
    let ss = n and tt = n + 1 in
    let g = create ~n:(n + 2) in
    let ids = Array.make (Array.length arcs) (-1) in
    let excess = Array.make n 0 in
    Array.iteri
      (fun i a ->
        ids.(i) <-
          add_edge g ~src:a.lb_src ~dst:a.lb_dst ~cap:(a.lb_cap - a.lb_low)
            ~cost:a.lb_cost;
        excess.(a.lb_dst) <- excess.(a.lb_dst) + a.lb_low;
        excess.(a.lb_src) <- excess.(a.lb_src) - a.lb_low)
      arcs;
    (* Mandatory cost of the lower bounds themselves. *)
    let base_cost =
      Array.fold_left (fun acc a -> acc + (a.lb_low * a.lb_cost)) 0 arcs
    in
    let demand = ref 0 in
    for v = 0 to n - 1 do
      if excess.(v) > 0 then begin
        ignore (add_edge g ~src:ss ~dst:v ~cap:excess.(v) ~cost:0);
        demand := !demand + excess.(v)
      end
      else if excess.(v) < 0 then
        ignore (add_edge g ~src:v ~dst:tt ~cap:(-excess.(v)) ~cost:0)
    done;
    ignore (add_edge g ~src:t ~dst:s ~cap:inf ~cost:0);
    let flow, cost = min_cost_max_flow g ~s:ss ~t:tt in
    if flow <> !demand then None
    else begin
      let per_arc =
        Array.mapi (fun i a -> a.lb_low + flow_on g ids.(i)) arcs
      in
      Some (base_cost + cost, per_arc)
    end
end
