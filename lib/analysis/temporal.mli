(** Temporal independence bounds (paper, section 7.5). *)

type params = {
  n : int;
  view_size : int;
  expected_outdegree : float;  (** dE, from the degree MC *)
  alpha : float;               (** expected independence fraction *)
}

val make_params :
  n:int -> view_size:int -> expected_outdegree:float -> alpha:float -> params

val expected_conductance_bound : params -> float
(** Lemma 7.14: Phi(G) >= dE(dE-1) alpha / (2 s (s-1)). *)

val tau_epsilon : params -> epsilon:float -> float
(** Lemma 7.15: transformations to eps-independence from a random state. *)

val actions_per_node : params -> epsilon:float -> float
(** tau_eps / n — the O(s log n) actions-per-node headline. *)

val headline_scaling : params -> float
(** s ln n, for scaling tables. *)
