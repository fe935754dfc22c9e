(* The resilience policy: everything a driver needs to self-heal.

   A single value threaded as [?resilience] through [Sf_core.Runner] and
   [Sf_net.Driver] (and, as a window flag, [Sf_engine.Network]).  It
   bundles the estimator/controller/supervisor knobs with the injected
   section 6.3 solver — injected because the solver implementation lives
   in lib/analysis, *above* this library in the dependency order
   (sf_resil -> sf_core -> ... -> sf_analysis); drivers that can see
   [Sf_analysis.Thresholds.select_lossy] wire it in at the call site.

   Omitting [?resilience] entirely leaves every driver bit-for-bit
   identical to a build without this layer.  An *inert* policy (both
   [retune] and [recover] false) still runs the estimator — which
   consumes no randomness — so estimation can be observed without
   authorizing any corrective action; this is also what the identity
   tests pin. *)

type t = {
  solve : loss:float -> int * int;
      (* the section 6.3 rule against an estimated loss: loss -> (dL, s) *)
  retune : bool;             (* let the controller move (dL, s) *)
  recover : bool;            (* let the supervisor drive repairs *)
  estimator_window : int;    (* sends per estimation window *)
  smoothing : float;         (* estimator EWMA weight *)
  hysteresis : float;        (* controller dead band on the estimate *)
  cooldown : int;            (* controller ticks between retunes *)
  max_step : int;            (* controller slots moved per retune *)
  max_lower : int option;    (* dL ceiling; default s - 6 at the driver *)
  backoff_base : float;      (* supervisor backoff, in rounds *)
  backoff_factor : float;
  backoff_cap : float;
  backoff_jitter : float;
}

let make ?(retune = true) ?(recover = true) ?(estimator_window = 2000)
    ?(smoothing = 0.3) ?(hysteresis = 0.02) ?(cooldown = 10) ?(max_step = 4)
    ?max_lower ?(backoff_base = 1.0) ?(backoff_factor = 2.0)
    ?(backoff_cap = 32.0) ?(backoff_jitter = 0.5) ~solve () =
  {
    solve;
    retune;
    recover;
    estimator_window;
    smoothing;
    hysteresis;
    cooldown;
    max_step;
    max_lower;
    backoff_base;
    backoff_factor;
    backoff_cap;
    backoff_jitter;
  }

(* An inert policy: observe (estimate) but never act.  Drivers given this
   must replay byte-identically to drivers given no policy at all. *)
let observe_only ?estimator_window ?smoothing () =
  make ?estimator_window ?smoothing ~retune:false ~recover:false
    ~solve:(fun ~loss:_ -> (0, 6))
    ()

let estimator t = Estimator.create ~window:t.estimator_window ~smoothing:t.smoothing ()

let backoff t ~rng =
  Backoff.create ~base:t.backoff_base ~factor:t.backoff_factor ~cap:t.backoff_cap
    ~jitter:t.backoff_jitter ~rng ()

let supervisor t ~rng = Supervisor.create ~backoff:(backoff t ~rng) ()

(* Build the controller for a driver running at [initial] = (dL, s) with
   an allocated view capacity of [capacity] slots.  The retuning budget:
   dL ranges over [0, min max_lower (capacity - 6)], s over
   [initial s, capacity] — views are fixed arrays, so s can never exceed
   what was allocated, and shrinking s below its initial value is refused
   here (a per-node degree floor is the driver's concern). *)
let controller t ~initial ~capacity =
  let _, s0 = initial in
  let max_lower =
    match t.max_lower with Some m -> min m (capacity - 6) | None -> capacity - 6
  in
  let limits =
    {
      Controller.min_lower = 0;
      max_lower;
      min_view = s0;
      max_view = capacity;
    }
  in
  Controller.create ~hysteresis:t.hysteresis ~cooldown:t.cooldown
    ~max_step:t.max_step ~solve:t.solve ~limits ~initial ()
