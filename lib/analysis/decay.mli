(** Join/leave dynamics bounds (paper, section 6.5). *)

type params = {
  loss : float;
  delta : float;
  lower_threshold : int;
  view_size : int;
}

val make_params :
  loss:float -> delta:float -> lower_threshold:int -> view_size:int -> params

val per_round_survival : params -> float
(** 1 - (1 - loss - delta) dL / s^2 (Lemma 6.9). *)

val survival_bound : params -> rounds:int -> float
(** Upper bound on one id instance surviving [rounds] rounds
    (Lemma 6.10). *)

val survival_curve : params -> rounds:int -> float array
(** The Figure 6.4 curve: bounds at rounds 0..rounds. *)

val rounds_to_fraction : params -> fraction:float -> int
(** Rounds until the survival bound drops below [fraction] (the paper's
    "fewer than 50% after 70 rounds" observation uses fraction = 0.5). *)

val joiner_integration_rounds : params -> int
(** Lemma 6.13 round bound s^2 / ((1 - loss - delta) dL). *)

val joiner_integration_instances : params -> expected_indegree:float -> float
(** Lemma 6.13 instance bound (dL/s)^2 * Din. *)
