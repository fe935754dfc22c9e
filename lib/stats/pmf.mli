(** Probability mass functions over contiguous integer supports. *)

type t

val create : offset:int -> float array -> t
(** [create ~offset mass] builds a pmf with [mass.(i)] the probability of
    [offset + i]. Mass must be non-negative; it is copied. *)

val offset : t -> int

val max_support : t -> int
(** Largest support point. *)

val prob : t -> int -> float
(** Probability of a point (0 outside the support). *)

val total : t -> float
(** Sum of all mass (1.0 for a normalized pmf). *)

val normalize : t -> t
(** Scale to total mass 1. Raises on zero total. *)

val iter : (int -> float -> unit) -> t -> unit
val fold : ('a -> int -> float -> 'a) -> 'a -> t -> 'a

val mean : t -> float
val std : t -> float

val mode : t -> int
(** A support point of maximal probability. *)

val cdf : t -> int -> float
(** P(X <= k). *)

val ccdf : t -> int -> float
(** P(X >= k). *)

val tv_distance : t -> t -> float
(** Total variation distance; supports need not coincide. *)

val condition : t -> (int -> bool) -> t
(** Restrict to points satisfying the predicate and renormalize. *)

val of_assoc : (int * float) list -> t
(** Build from (point, mass) pairs; duplicate points accumulate. *)

val of_samples : int array -> t
(** Empirical pmf of a non-empty integer sample. *)
