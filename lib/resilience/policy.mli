(** The resilience policy threaded as [?resilience] through the drivers.

    Bundles the {!Estimator}/{!Controller}/{!Supervisor} configuration,
    which {!Loop} turns into an engine's decision loop,
    with the injected section 6.3 solver (normally
    [Sf_analysis.Thresholds.select_lossy], wired at the call site — the
    solver lives above this library in the dependency order).  Omitting
    [?resilience] keeps every driver bit-for-bit identical to before the
    layer existed; {!observe_only} estimates without acting and is also
    replay-identical. *)

type t = {
  solve : loss:float -> int;  (** dL for an estimated loss *)
  retune : bool;
  recover : bool;
  estimator_window : int;
  smoothing : float;
  hysteresis : float;
  cooldown : int;
}

val make :
  ?retune:bool ->           (* adaptive dL retuning (default true) *)
  ?recover:bool ->          (* supervised connectivity repair (default true) *)
  ?estimator_window:int ->  (* sends per estimation window (default 2000) *)
  ?smoothing:float ->       (* estimator EWMA weight (default 0.3) *)
  ?hysteresis:float ->      (* controller dead band (default 0.02) *)
  ?cooldown:int ->          (* controller ticks between retunes (default 10) *)
  solve:(loss:float -> int * int) ->
  unit ->
  t
(** [solve] is the section 6.3 rule as the paper states it, loss ->
    (dL, s); the policy keeps its dL, since an engine's s is the
    allocated view size, which never moves.  The controller moves dL by
    at most 4 per retune; the supervisor's
    backoff starts at 1 round, doubles per failure, is capped at 32
    rounds, and jitters the final half of each delay (the
    {!Controller.create} and {!Backoff.create} defaults). *)

val observe_only : ?estimator_window:int -> ?smoothing:float -> unit -> t
(** Estimate the loss rate but never retune or repair.  Drivers given
    this policy replay byte-identically to drivers given none (the
    estimator consumes no randomness) — the property the identity tests
    assert. *)
