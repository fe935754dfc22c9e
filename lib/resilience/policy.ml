(* The resilience policy: everything a driver needs to self-heal.

   A single value threaded as [?resilience] through [Sf_core.Runner],
   [Sf_core.Runner.Sharded] and [Sf_net.Driver].  It bundles the
   estimator/controller/supervisor knobs with the injected section 6.3
   solver — injected because the solver implementation lives
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
}

(* Fixed knobs: controller slots moved per retune, and the supervisor's
   backoff in rounds (first delay, growth, ceiling, jittered fraction). *)
let max_step = 4
let backoff_base = 1.0
let backoff_factor = 2.0
let backoff_cap = 32.0
let backoff_jitter = 0.5

let make ?(retune = true) ?(recover = true) ?(estimator_window = 2000)
    ?(smoothing = 0.3) ?(hysteresis = 0.02) ?(cooldown = 10) ~solve () =
  { solve; retune; recover; estimator_window; smoothing; hysteresis; cooldown }

(* An inert policy: observe (estimate) but never act.  Drivers given this
   must replay byte-identically to drivers given no policy at all. *)
let observe_only ?estimator_window ?smoothing () =
  make ?estimator_window ?smoothing ~retune:false ~recover:false
    ~solve:(fun ~loss:_ -> (0, 6))
    ()

let estimator t = Estimator.create ~window:t.estimator_window ~smoothing:t.smoothing ()

let backoff _ ~rng =
  Backoff.create ~base:backoff_base ~factor:backoff_factor ~cap:backoff_cap
    ~jitter:backoff_jitter ~rng ()

let supervisor t ~rng = Supervisor.create ~backoff:(backoff t ~rng) ()

(* Build the controller for a driver running at [initial] = (dL, s) with
   an allocated view capacity of [capacity] slots.  The retuning budget:
   dL ranges over [0, capacity - 6], s over
   [initial s, capacity] — views are fixed arrays, so s can never exceed
   what was allocated, and shrinking s below its initial value is refused
   here (a per-node degree floor is the driver's concern). *)
let controller t ~initial ~capacity =
  let _, s0 = initial in
  let limits =
    {
      Controller.min_lower = 0;
      max_lower = capacity - 6;
      min_view = s0;
      max_view = capacity;
    }
  in
  Controller.create ~hysteresis:t.hysteresis ~cooldown:t.cooldown ~max_step
    ~solve:t.solve ~limits ~initial ()
