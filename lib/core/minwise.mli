(** Min-wise independent sampling layer (Brahms-style), the persistent
    alternative to evolving views discussed in the paper's section 3.1. *)

type t

val create : Sf_prng.Rng.t -> k:int -> t
(** [k] independent keyed min-hash samplers. *)

val observe : t -> int -> unit
(** Feed one observed id through every sampler. *)

val samples : t -> int list
(** Current outputs of the non-empty samplers. *)

val invalidate : t -> is_dead:(int -> bool) -> unit
(** Reset samplers whose current output is a dead id. *)

(** Per-node sampler layers fed from a running S&F system. *)
type fleet

val create_fleet : Sf_prng.Rng.t -> k:int -> fleet

val feed_from_views : fleet -> Runner.t -> unit
(** Feed each live node's layer with its current view contents. *)

val snapshot : fleet -> (int, int list) Hashtbl.t

val raw_snapshot : fleet -> (int, int list) Hashtbl.t
(** Outputs aligned by sampler index, empty samplers as -1; the reference
    format for {!unchanged_fraction}. *)

val unchanged_fraction : fleet -> reference:(int, int list) Hashtbl.t -> float
(** Fraction of individual samplers whose output equals the reference
    snapshot — high for converged persistent samples (no temporal
    independence). *)
