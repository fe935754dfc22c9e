(* Runtime fault engine: a scenario's loss-process position and window
   state ({!Windows}) under a driver clock, plus cause-resolved drop
   counters.  All randomness comes from the RNG passed to [judge], so the
   default scenario replays the exact pre-fault RNG stream. *)

type cause = Chance | Partitioned | Crashed

type verdict = Deliver | Corrupt_payload | Drop of cause

type stats = {
  judged : int;
  chance_drops : int;
  burst_drops : int;
  partition_drops : int;
  crash_drops : int;
  corruptions : int;
  fault_transitions : int;
}

(* Cause-resolved counters, registered once in the driver's metrics
   registry (a private registry when the driver passes none): each judge
   outcome is a single O(1) counter increment, exactly the cost of the
   mutable int fields these replaced. *)
type counters = {
  judged : Sf_obs.Metrics.counter;
  chance_drops : Sf_obs.Metrics.counter;
  burst_drops : Sf_obs.Metrics.counter;
  partition_drops : Sf_obs.Metrics.counter;
  crash_drops : Sf_obs.Metrics.counter;
  corruptions : Sf_obs.Metrics.counter;
  fault_transitions : Sf_obs.Metrics.counter;
}

type t = {
  scenario : Scenario.t;
  loss : Loss.t;
  windows : Windows.t;
  c : counters;
  mutable clock : unit -> float;
}

let create ?metrics ~scenario ~n () =
  let m =
    match metrics with Some m -> m | None -> Sf_obs.Metrics.create ()
  in
  {
    scenario;
    loss = Loss.create scenario.Scenario.loss;
    windows = Windows.create ~n scenario.Scenario.windows;
    c =
      {
        judged = Sf_obs.Metrics.counter m "faults_judged";
        chance_drops = Sf_obs.Metrics.counter m "faults_chance_drops";
        burst_drops = Sf_obs.Metrics.counter m "faults_burst_drops";
        partition_drops = Sf_obs.Metrics.counter m "faults_partition_drops";
        crash_drops = Sf_obs.Metrics.counter m "faults_crash_drops";
        corruptions = Sf_obs.Metrics.counter m "faults_corruptions";
        fault_transitions = Sf_obs.Metrics.counter m "faults_transitions";
      };
    clock = (fun () -> 0.);
  }

let set_clock t clock = t.clock <- clock

(* A window-free scenario never reads the clock: a clock call returns a
   boxed float. *)
let refresh t =
  if t.scenario.Scenario.windows <> [] then begin
    let before = Windows.transitions t.windows in
    Windows.refresh t.windows ~now:(t.clock ());
    Sf_obs.Metrics.add t.c.fault_transitions (Windows.transitions t.windows - before)
  end

let transitions t = Windows.drain t.windows

let is_crashed t id =
  refresh t;
  Windows.crashed t.windows id

let crash_active t =
  refresh t;
  Windows.crash_active t.windows

let delay_factor t =
  refresh t;
  Windows.delay_factor t.windows

let judge t rng ~chance ~src ~dst =
  refresh t;
  Sf_obs.Metrics.incr t.c.judged;
  if Windows.crashed t.windows src then begin
    Sf_obs.Metrics.incr t.c.crash_drops;
    Drop Crashed
  end
  else
    match Windows.judge t.windows t.loss rng ~chance ~src ~dst with
    | Windows.Crashed ->
      Sf_obs.Metrics.incr t.c.crash_drops;
      Drop Crashed
    | Windows.Partitioned ->
      Sf_obs.Metrics.incr t.c.partition_drops;
      Drop Partitioned
    | Windows.Lost ->
      Sf_obs.Metrics.incr t.c.chance_drops;
      if Loss.in_burst t.loss then Sf_obs.Metrics.incr t.c.burst_drops;
      Drop Chance
    | Windows.Pass ->
      if Windows.corrupts t.windows rng then begin
        Sf_obs.Metrics.incr t.c.corruptions;
        Corrupt_payload
      end
      else Deliver

let statistics t : stats =
  let count = Sf_obs.Metrics.count in
  {
    judged = count t.c.judged;
    chance_drops = count t.c.chance_drops;
    burst_drops = count t.c.burst_drops;
    partition_drops = count t.c.partition_drops;
    crash_drops = count t.c.crash_drops;
    corruptions = count t.c.corruptions;
    fault_transitions = count t.c.fault_transitions;
  }
