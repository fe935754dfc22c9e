(* Adaptive dL threshold controller.

   Section 6.3 of the paper derives the duplication threshold dL and the
   view size s from a target expected outdegree and a *known* loss rate;
   section 7 shows why a drifting loss rate matters (spatial independence
   degrades as alpha >= 1 - 2(loss + delta)).  This controller closes the
   loop online for dL: given a loss estimate
   (lib/resilience/estimator.ml), it periodically re-solves the 6.3 rule
   and walks the live dL toward the solution.  s is the allocated view
   size and never moves.

   The 6.3 solver itself lives in lib/analysis (which depends on
   sf_core); to keep this library below sf_core in the dependency order,
   the solver arrives as an injected [solve] callback.

   Three guards keep i.i.d. noise from thrashing views:

   - *hysteresis*: no retune until the estimate has moved at least
     [hysteresis] away from the loss the current dL was solved for;
   - *cooldown*: at least [cooldown] decision ticks between retunes;
   - *budget*: each retune moves dL by at most [max_step] and never
     leaves the configured [min_lower, max_lower] window, so one noisy
     estimate cannot teleport the protocol into a foreign regime.

   The controller consumes no randomness and never touches views: it only
   emits target thresholds; engines apply them. *)

type limits = { min_lower : int; max_lower : int }

type t = {
  solve : loss:float -> int;  (* section 6.3 rule: loss -> dL *)
  hysteresis : float;
  cooldown : int;
  max_step : int;
  limits : limits;
  mutable current : int;
  mutable anchor_loss : float;  (* loss the current dL was solved for *)
  mutable ticks : int;
  mutable last_retune : int;
  mutable retunes : int;
}

let even x = x land 1 = 0

let create ?(hysteresis = 0.02) ?(cooldown = 10) ?(max_step = 4) ~solve ~limits
    ~initial () =
  if not (even limits.min_lower && even limits.max_lower) then
    invalid_arg "Controller.create: limits must be even";
  if limits.min_lower < 0 || limits.max_lower < limits.min_lower then
    invalid_arg "Controller.create: need 0 <= min_lower <= max_lower";
  if hysteresis < 0. then invalid_arg "Controller.create: negative hysteresis";
  if cooldown < 0 then invalid_arg "Controller.create: negative cooldown";
  if max_step < 2 || not (even max_step) then
    invalid_arg "Controller.create: max_step must be even and >= 2";
  if not (even initial) then
    invalid_arg "Controller.create: initial threshold must be even";
  {
    solve;
    hysteresis;
    cooldown;
    max_step;
    limits;
    current = initial;
    anchor_loss = 0.;
    ticks = 0;
    last_retune = min_int / 2;
    retunes = 0;
  }

let current t = t.current
let retunes t = t.retunes
let anchor_loss t = t.anchor_loss

let clamp ~lo ~hi x = max lo (min hi x)

let decide t ~loss =
  t.ticks <- t.ticks + 1;
  if Float.abs (loss -. t.anchor_loss) < t.hysteresis then None
  else if t.ticks - t.last_retune < t.cooldown then None
  else begin
    let target = t.solve ~loss in
    (* Anchor on every solve: when the budget walls dL in (or the solver
       returns the current dL), re-solving each tick for the same
       estimate would be pure churn. *)
    t.anchor_loss <- loss;
    (* One budgeted move toward the solver's target. *)
    let proposed =
      clamp ~lo:t.limits.min_lower ~hi:t.limits.max_lower
        (t.current + clamp ~lo:(-t.max_step) ~hi:t.max_step (target - t.current))
    in
    if proposed = t.current then None
    else begin
      t.current <- proposed;
      t.retunes <- t.retunes + 1;
      t.last_retune <- t.ticks;
      Some proposed
    end
  end
