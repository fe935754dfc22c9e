(** Special functions backing the analytic machinery. *)

val log_gamma : float -> float
(** Natural log of the gamma function (Lanczos approximation, reflection for
    arguments below 0.5). *)

val log_factorial : int -> float
(** [log_factorial n] = ln(n!). Memoized for small [n]. *)

val log_choose : int -> int -> float
(** [log_choose n k] = ln(C(n,k)); [neg_infinity] outside [0 <= k <= n]. *)

val gamma_p : float -> float -> float
(** Regularized lower incomplete gamma P(a,x). *)

val gamma_q : float -> float -> float
(** Regularized upper incomplete gamma Q(a,x) = 1 - P(a,x). *)

val log_add : float -> float -> float
(** [log_add la lb] = ln(exp la + exp lb), computed stably. *)

val log_sum : float array -> float
(** Stable log of a sum of exponentials. *)
