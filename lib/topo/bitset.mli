(** Fixed-capacity bit sets over [0 .. n-1], packed into an int array. *)

type t

val create : int -> t
(** [create n] is the empty set with capacity [n]. *)

val capacity : t -> int

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit

val cardinal : t -> int
(** Number of members (linear in capacity). *)

val is_empty : t -> bool
val clear : t -> unit
val fill : t -> unit
(** [fill s] adds every element of [0 .. capacity-1]. *)

val copy : t -> t
val equal : t -> t -> bool

val disjoint : t -> t -> bool
(** [disjoint a b] is [true] iff [a ∩ b] is empty (one word-scan, no
    allocation). @raise Invalid_argument on capacity mismatch. *)

val inter_into : t -> t -> unit
(** [inter_into dst src] replaces [dst] with [dst ∩ src].
    @raise Invalid_argument on capacity mismatch. *)

val union_into : t -> t -> unit
(** [union_into dst src] replaces [dst] with [dst ∪ src]. *)

val union_changed : t -> t -> bool
(** [union_changed dst src] is {!union_into} that also reports whether
    [dst] grew — the convergence test of monotone set fixpoints.
    @raise Invalid_argument on capacity mismatch. *)

val andn_into : t -> t -> unit
(** [andn_into dst src] replaces [dst] with [dst \ src].
    @raise Invalid_argument on capacity mismatch. *)

val iter : (int -> unit) -> t -> unit
(** [iter f s] applies [f] to every member in increasing order. *)

val next : t -> int -> int
(** [next s i] is the least member [>= i], or [-1] if there is none.
    Zero words are skipped whole.  The loop
    [let i = ref (next s 0) in while !i >= 0 do ...; i := next s (!i + 1) done]
    visits the members in increasing order without allocating, unlike
    {!iter} with a closure that captures its context. *)

val elements : t -> int list
(** Members in increasing order. *)

val of_list : int -> int list -> t
(** [of_list n xs] is the set with capacity [n] containing [xs]. *)
