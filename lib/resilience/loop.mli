(** The resilience decision loop, shared by [Runner], [Runner.Sharded]
    and [Sf_net.Driver]: a {!tuner} turns cumulative counters into
    retunes, and {!Supervisor.step} runs probe -> attempt -> confirm. *)

type tuner

val tuner : Policy.t -> initial:int -> view_size:int -> edges:int -> tuner
(** A tuner for an engine running at dL = [initial] with [view_size]
    allocated view slots and [edges] overlay edges now.  Retunes move dL
    within [[0, view_size - 6]]; the view size never moves. *)

val tick :
  tuner ->
  sends:int ->
  duplications:int ->
  deletions:int ->
  to_dead:int ->
  edges_added:int ->
  edges_removed:int ->
  edges:int ->
  int option
(** Feed cumulative totals: their deltas since the last tick go to
    {!Estimator.observe} (the last four are its churn correction, zeros
    where an engine keeps no ledger).  Returns the dL the controller
    directs once the estimate is confident, if the policy retunes.  A
    tick that folds no estimator window and makes the controller re-solve
    nothing (hysteresis, cooldown) allocates nothing. *)

val estimate : tuner -> float

val supervisor : Policy.t -> rng:Sf_prng.Rng.t -> Supervisor.t option
(** A repair supervisor whose backoff jitter draws from [rng], under a
    recovering policy. *)

type stats = {
  loss_estimate : float;
  estimator_confident : bool;
  estimator_windows : int;
  retunes : int;
  repair_attempts : int;
  recoveries : int;
}

val stats : tuner -> Supervisor.t option -> stats
