(** Monitors for the membership-service properties of the paper's
    section 2 (M2 load balance, M3 uniformity, M4 spatial independence,
    M5 temporal independence) and for weak connectivity.

    The snapshot monitors read any engine's world as it is kept: a
    {!View.Flat} store whose row [u] is node [u]'s view, with [live]
    naming the rows that are members (the runner's {!Runner.is_live},
    a baseline's not-dead, every row of a variant or of a whole-space
    UDP driver).  Rows that are not live, and ids that name no live row,
    count for nothing.  M4 is {!Census.of_flat} over the same store. *)

val outdegree_summary : View.Flat.t -> live:(int -> bool) -> Sf_stats.Summary.t

val indegree_summary : View.Flat.t -> live:(int -> bool) -> Sf_stats.Summary.t
(** Summary of live-node indegrees (M2: its variance must stay bounded). *)

val outdegree_samples : View.Flat.t -> live:(int -> bool) -> int array
(** Outdegree of each live row, in row order. *)

val indegree_samples : View.Flat.t -> live:(int -> bool) -> int array
(** Indegree of each live row, in row order, counting only entries in
    live rows. *)

val is_weakly_connected : View.Flat.t -> live:(int -> bool) -> bool
(** The live rows form one weak component: {!Overlay.probe} through a
    fresh forest, so self-edges, entries naming a row that is not live
    and ids at or above the row count bridge nothing. *)

val overlap_decay :
  Runner.t -> blocks:int -> rounds_per_block:int -> (int * float) list
(** M5: fraction of instances surviving from a reference snapshot after each
    block of rounds ((rounds, fraction) points, starting at (0, 1)).
    Advances the runner. *)
