(** Fixed-capacity id rings backing the {!Strategy.Direct} per-node
    lead/recent state, offset-addressed so a node's rings are slices of
    its shard's flat arrays.  Cells hold ids ([>= 0]) or [-1] when
    empty. *)

val mem : int array -> off:int -> cap:int -> head:int -> len:int -> int -> bool
(** Linear membership scan over the [len] occupied cells of the ring
    stored at [arr.(off) .. arr.(off + cap - 1)]. *)

val add : int array -> off:int -> cap:int -> head:int -> len:int -> int -> int * int
(** Append (overwriting the oldest cell when full); returns the new
    [(head, len)].  Does not deduplicate — callers check {!mem} first. *)

val pop : int array -> off:int -> cap:int -> head:int -> len:int -> int * int * int
(** Pop the oldest element; returns [(value, head, len)] with [value = -1]
    when the ring is empty. *)
