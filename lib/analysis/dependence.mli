(** Spatial independence via the two-state dependence MC (paper, section 7.4
    and Figure 7.1). *)

val to_dependent_probability : loss:float -> delta:float -> float
(** Upper bound (3/2)(loss + delta) on independent -> dependent. *)

val to_independent_probability : loss:float -> delta:float -> float
(** Lower bound (5/6)(1 - (loss + delta)) on dependent -> independent. *)

val stationary_dependent_fraction : loss:float -> delta:float -> float
(** Exact stationary dependent mass of the bounding chain,
    (loss+delta) / (5/9 + (4/9)(loss+delta)). *)

val alpha_lower_bound : loss:float -> delta:float -> float
(** Lemma 7.9: expected independent fraction >= 1 - 2(loss + delta). *)
