(** Closed-form no-loss degree distributions, equation (6.1) of the paper. *)

val outdegree_distribution : dm:int -> Sf_stats.Pmf.t
(** Outdegree pmf on the even support 0..dm for uniform sum degree [dm]. *)

val indegree_distribution : dm:int -> Sf_stats.Pmf.t
(** Indegree pmf on 0..dm/2 (din = (dm - d)/2). *)

val binomial_reference : dm:int -> Sf_stats.Pmf.t
(** Binomial(dm, 1/3) — the equal-expectation reference of Figure 6.1. *)
