(* The resilience decision loop, written once for every engine.

   [Runner], [Runner.Sharded] and [Sf_net.Driver] tick a tuner with their
   cumulative protocol counters.  It feeds the deltas since its previous
   tick to the Lemma 6.6 estimator and, under a retuning policy, asks the
   controller for a new dL once the estimate is confident; the engine
   makes it its live dL.  The other half of the loop,
   probe -> attempt -> confirm, is [Supervisor.step]. *)

type tuner = {
  retune : bool;
  estimator : Estimator.t;
  controller : Controller.t;
  (* Counter positions at the previous tick. *)
  mutable sends : int;
  mutable duplications : int;
  mutable deletions : int;
  mutable to_dead : int;
  mutable edges_added : int;
  mutable edges_removed : int;
  mutable edges : int;
}

(* s is the allocated view size and never moves, so dL ranges over the
   protocol's whole [0, s - 6]. *)
let tuner (policy : Policy.t) ~initial ~view_size ~edges =
  let limits = { Controller.min_lower = 0; max_lower = view_size - 6 } in
  {
    retune = policy.retune;
    estimator =
      Estimator.create ~window:policy.estimator_window
        ~smoothing:policy.smoothing ();
    controller =
      Controller.create ~hysteresis:policy.hysteresis ~cooldown:policy.cooldown
        ~solve:policy.solve ~limits ~initial ();
    sends = 0;
    duplications = 0;
    deletions = 0;
    to_dead = 0;
    edges_added = 0;
    edges_removed = 0;
    edges;
  }

let tick t ~sends ~duplications ~deletions ~to_dead ~edges_added ~edges_removed
    ~edges =
  Estimator.observe t.estimator ~sends:(sends - t.sends)
    ~duplications:(duplications - t.duplications)
    ~deletions:(deletions - t.deletions) ~to_dead:(to_dead - t.to_dead)
    ~churn_edges_added:(edges_added - t.edges_added)
    ~churn_edges_removed:(edges_removed - t.edges_removed)
    ~edge_delta:(edges - t.edges);
  t.sends <- sends;
  t.duplications <- duplications;
  t.deletions <- deletions;
  t.to_dead <- to_dead;
  t.edges_added <- edges_added;
  t.edges_removed <- edges_removed;
  t.edges <- edges;
  if t.retune && Estimator.confident t.estimator then
    Controller.decide t.controller ~loss:(Estimator.estimate t.estimator)
  else None

let estimate t = Estimator.estimate t.estimator

let supervisor (policy : Policy.t) ~rng =
  if policy.recover then
    Some (Supervisor.create ~backoff:(Backoff.create ~rng ()) ())
  else None

type stats = {
  loss_estimate : float;
  estimator_confident : bool;
  estimator_windows : int;
  retunes : int;
  repair_attempts : int;
  recoveries : int;
}

let stats t supervisor =
  let count f = Option.fold ~none:0 ~some:f supervisor in
  {
    loss_estimate = Estimator.estimate t.estimator;
    estimator_confident = Estimator.confident t.estimator;
    estimator_windows = Estimator.windows t.estimator;
    retunes = Controller.retunes t.controller;
    repair_attempts = count Supervisor.attempts;
    recoveries = count Supervisor.recoveries;
  }
