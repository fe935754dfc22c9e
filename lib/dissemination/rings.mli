(** Fixed-capacity id rings backing the {!Strategy.Direct} per-node
    lead/recent state: one value holds a ring for every node slot,
    indexed by node id, and every operation updates it in place without
    allocating.  Cells hold ids ([>= 0]) or [-1] when empty. *)

type t

val create : nodes:int -> cap:int -> t
(** [nodes] empty rings of [cap] cells each. *)

val mem : t -> int -> int -> bool
(** [mem r u v]: is [v] in node [u]'s ring?  A linear scan. *)

val add : t -> int -> int -> unit
(** [add r u v] appends [v] to [u]'s ring, overwriting the oldest cell
    when full.  Does not deduplicate — callers check {!mem} first. *)

val pop : t -> int -> int
(** [pop r u] removes and returns the oldest id of [u]'s ring, or [-1]
    when it is empty. *)

val reset : t -> int -> unit
(** Empty [u]'s ring. *)
