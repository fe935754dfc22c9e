(* The resilience policy: the knobs [Loop.tuner] and [Loop.supervisor]
   build an engine's decision loop from, and the section 6.3 solver,
   injected because it lives in lib/analysis, above this library in the
   dependency order.  See policy.mli. *)

type t = {
  solve : loss:float -> int;  (* the section 6.3 dL for an estimated loss *)
  retune : bool;             (* let the controller move dL *)
  recover : bool;            (* let the supervisor drive repairs *)
  estimator_window : int;    (* sends per estimation window *)
  smoothing : float;         (* estimator EWMA weight *)
  hysteresis : float;        (* controller dead band on the estimate *)
  cooldown : int;            (* controller ticks between retunes *)
}

let make ?(retune = true) ?(recover = true) ?(estimator_window = 2000)
    ?(smoothing = 0.3) ?(hysteresis = 0.02) ?(cooldown = 10) ~solve () =
  (* s is the allocated view size, so only the rule's dL is kept. *)
  let solve ~loss = fst (solve ~loss) in
  { solve; retune; recover; estimator_window; smoothing; hysteresis; cooldown }

(* An inert policy: observe (estimate) but never act.  Drivers given this
   must replay byte-identically to drivers given no policy at all. *)
let observe_only ?estimator_window ?smoothing () =
  make ?estimator_window ?smoothing ~retune:false ~recover:false
    ~solve:(fun ~loss:_ -> (0, 6))
    ()
