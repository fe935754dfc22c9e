(** Adaptive dL retuning against an online loss estimate.

    Re-solves the paper's section 6.3 threshold rule for dL — injected as
    a [solve] callback, normally the dL of
    {!Sf_analysis.Thresholds.select_lossy} — whenever the loss estimate
    drifts, and walks the live dL toward the solution under three
    anti-thrash guards: a hysteresis band on the estimate, a cooldown
    between retunes, and a per-retune step budget inside a hard
    [[min_lower, max_lower]] window.  The view size s is the allocated
    one and never moves, so the protocol's [dL <= s - 6] is the window's
    ceiling ({!Loop.tuner} sets [max_lower = s - 6]).  Emits target dL
    values only; engines apply them.  Consumes no randomness. *)

type limits = {
  min_lower : int;  (** floor for dL (even, >= 0) *)
  max_lower : int;  (** ceiling for dL (even): at most s - 6 *)
}

type t

val create :
  ?hysteresis:float ->  (* min estimate drift before acting (default 0.02) *)
  ?cooldown:int ->      (* min decision ticks between retunes (default 10) *)
  ?max_step:int ->      (* max move of dL per retune, even (default 4) *)
  solve:(loss:float -> int) ->
  limits:limits ->
  initial:int ->  (* the dL the system is running with *)
  unit ->
  t
(** Raises [Invalid_argument] on odd/misordered limits, an odd initial
    dL, an odd or too-small step, or negative hysteresis/cooldown. *)

val decide : t -> loss:float -> int option
(** One decision tick.  [Some dL'] directs a retune (already recorded as
    current); [None] keeps the running dL — because the estimate sits
    inside the hysteresis band of the last solve, the cooldown has not
    elapsed, or the budgeted step goes nowhere.  The result is even and
    inside [[min_lower, max_lower]] whenever the solver's targets are
    even. *)

val current : t -> int
(** The dL the controller believes is live. *)

val retunes : t -> int
(** Retunes directed so far. *)

val anchor_loss : t -> float
(** The loss estimate the current dL was last solved against. *)
