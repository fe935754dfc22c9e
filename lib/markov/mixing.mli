(** Convergence-speed diagnostics: distance-to-stationarity profiles,
    mixing times, and spectral estimates. *)

type profile = {
  steps : int array;
  tv_distances : float array;
}

val distance_profile :
  Chain.t ->
  initial:float array ->
  stationary:float array ->
  checkpoints:int list ->
  profile
(** TVD to stationarity at each checkpoint (steps are sorted and deduped). *)

val steps_to_distance :
  ?max_steps:int ->
  Chain.t ->
  initial:float array ->
  stationary:float array ->
  threshold:float ->
  int option
(** First step at which the TVD drops below [threshold]. *)

val mixing_time :
  ?threshold:float ->
  ?max_steps:int ->
  ?sources:int list ->
  Chain.t ->
  stationary:float array ->
  int option
(** Worst-case steps to TVD < [threshold] (default 1/4) over point-mass
    starts at [sources] (default: every state). *)

val second_eigenvalue_estimate :
  ?iterations:int ->
  ?tail:int ->
  Chain.t ->
  stationary:float array ->
  uniform:(unit -> float) ->
  float
(** |lambda_2| by the deflated power method; [uniform] supplies random
    numbers in [0,1) for the starting vector. *)
