(** Binomial(n, p) distribution utilities. *)

val log_cdf : n:int -> p:float -> int -> float
(** log P(X <= k), stable deep in the lower tail. *)

val to_pmf : n:int -> p:float -> Pmf.t
(** Materialize as a {!Pmf.t} on support 0..n. *)

val sample : Sf_prng.Rng.t -> n:int -> p:float -> int
(** Draw one variate. *)
