(** Connectivity augmentation of RSN dataflow graphs (paper §III-C/§III-D).

    Fault tolerance requires every dataflow vertex to lie on two
    vertex-independent paths from the root (primary scan-in) and two to the
    sink (primary scan-out).  By the degree characterization used in the
    paper, it suffices for every vertex of the augmented DAG to have at
    least two incoming and two outgoing edges (from/to distinct vertices),
    where a constraint is only enforced for vertices that can satisfy it in
    principle.

    The optimization chooses a minimum-cost set of additional edges from
    the potential set [E_P = {(i,j) | level j >= level i}], with
    [cost (i,j) = 1 + level j - level i] for new edges (zero for edges of
    the original graph, which are always kept), subject to acyclicity.

    Two solvers are provided:
    - {!solve_ilp} — the paper's formulation (eqs. 2-5) solved exactly by
      branch & bound with lazily separated same-level subtour cuts;
    - {!solve_flow} — a polynomial min-cost-flow reduction (the degree
      cover is a b-matching) over a windowed candidate set, with same-level
      candidates pre-oriented so the result is acyclic by construction.
      This is the scalable path used for the large ITC'02 SoCs.

    Both agree on cost for the benchmark graphs (tested): SIB-derived
    dataflow graphs have singleton topological levels, so the subtour
    constraints never bind and the window never hides an optimal edge of
    cost <= 1 + window. *)

type problem = {
  graph : Ftrsn_topo.Digraph.t;  (** the dataflow DAG *)
  levels : int array;            (** topological levels *)
  root : int;                    (** primary scan-in vertex *)
  sink : int;                    (** primary scan-out vertex *)
  d_in : int array;              (** {!demands}, in-degree half *)
  d_out : int array;             (** {!demands}, out-degree half *)
}
(** Treat every field as immutable: the demand arrays are computed once
    by {!of_netlist} and shared by both solvers and {!verify}. *)

val problem_of_graph :
  Ftrsn_topo.Digraph.t -> levels:int array -> root:int -> sink:int -> problem
(** The augmentation problem of a DAG with the given levels and
    terminals, with its degree demands. *)

val of_netlist : Ftrsn_rsn.Netlist.t -> problem
(** [problem_of_graph] of a netlist's dataflow graph (root 0, sink 1). *)

val edge_cost : problem -> int * int -> int
(** [1 + level j - level i] for a potential edge (0 for existing edges). *)

val demands : problem -> int array * int array
(** [(d_in, d_out)] per vertex: the missing in/out degree after accounting
    for existing edges, clamped by what the potential edge set can provide
    (root in-degree and sink out-degree are never demanded).  Precomputed
    by {!of_netlist}; this is a field read. *)

type solution = {
  new_edges : (int * int) list;  (** augmenting edges not in the original *)
  cost : int;                    (** total cost of the new edges *)
  solver : [ `Ilp | `Flow ];
  ilp_nodes : int;               (** B&B nodes explored (0 for flow) *)
  ilp_cuts : int;                (** lazy subtour cuts added (0 for flow) *)
}

val solve_ilp : ?max_nodes:int -> problem -> solution option
(** Exact branch & bound over the full potential edge set.  [None] if the
    demands are unsatisfiable.  Intended for graphs up to a few hundred
    potential edges. *)

val solve_flow : ?window:int -> problem -> solution option
(** Min-cost-flow solver over candidates with level difference at most
    [window] (default 4).  [None] if infeasible within the window. *)

val solve : problem -> solution
(** Picks {!solve_ilp} for small instances and {!solve_flow} otherwise.
    @raise Failure if the problem is infeasible. *)

val verify : problem -> (int * int) list -> (unit, string) result
(** Checks that the original graph plus [new_edges] is acyclic, meets the
    degree demands, and actually gives every vertex with in-degree
    (out-degree) at least 2 two vertex-independent paths from the root
    (to the sink) — the semantic requirement of §III-C.  The path check
    runs on two dominator trees, one from the root with the root's
    out-edges subdivided and one from the sink on the transpose with the
    sink's in-edges subdivided: after subdivision a vertex has two
    internally disjoint paths to the terminal iff its immediate dominator
    is the terminal (Menger's theorem in vertex-cut form; DESIGN.md §19).
    Linear-ish in the graph size, where one max-flow per vertex
    (Menger's vertex-split flow, kept as the test oracle in
    [test/oracle.ml]) is quadratic.
    [Error] joins one message per violation, last vertex first. *)
