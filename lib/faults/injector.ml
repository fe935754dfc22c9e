(* Runtime fault engine.  Holds the mutable state of a running scenario:
   the loss-process position, which windows are active, the boundary
   transitions not yet drained by the driver, and cause-resolved drop
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

type wstate = { window : Scenario.window; mutable active : bool }

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
  n : int;
  loss : Loss.t;
  windows : wstate array;
  c : counters;
  mutable clock : unit -> float;
  mutable pending : string list;  (* boundary transitions, newest first *)
}

let create ?metrics ~scenario ~n () =
  if n <= 0 then invalid_arg "Injector.create: need a positive population";
  List.iter Scenario.validate_window scenario.Scenario.windows;
  let m =
    match metrics with Some m -> m | None -> Sf_obs.Metrics.create ()
  in
  {
    scenario;
    n;
    loss = Loss.create scenario.Scenario.loss;
    windows =
      Array.of_list
        (List.map (fun w -> { window = w; active = false }) scenario.Scenario.windows);
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
    pending = [];
  }

let set_clock t clock = t.clock <- clock

let scenario t = t.scenario

(* The helpers on the verdict path are plain loops: a closure over the
   windows would cost an allocation per verdict. *)
let refresh t =
  if Array.length t.windows > 0 then begin
    let now = t.clock () in
    for k = 0 to Array.length t.windows - 1 do
      let ws = t.windows.(k) in
      let active = ws.window.Scenario.start <= now && now < ws.window.Scenario.stop in
      if active <> ws.active then begin
        ws.active <- active;
        Sf_obs.Metrics.incr t.c.fault_transitions;
        t.pending <-
          Fmt.str "%s:%s"
            (if active then "fault-start" else "fault-end")
            (Scenario.fault_kind ws.window.Scenario.fault)
          :: t.pending
      end
    done
  end

let transitions t =
  let drained = List.rev t.pending in
  t.pending <- [];
  drained

(* Partition block of an id: contiguous blocks of the initial id space;
   joiner ids beyond it wrap by [id mod n]. *)
let block t ~parts id =
  let id = ((id mod t.n) + t.n) mod t.n in
  min (parts - 1) (id * parts / t.n)

let is_crashed t id =
  refresh t;
  let crashed = ref false in
  for k = 0 to Array.length t.windows - 1 do
    let ws = t.windows.(k) in
    if ws.active then
      match ws.window.Scenario.fault with
      | Scenario.Crash { first; last } -> if first <= id && id <= last then crashed := true
      | Scenario.Partition _ | Scenario.Delay _ | Scenario.Corrupt _ -> ()
  done;
  !crashed

let crash_active t =
  refresh t;
  Array.exists
    (fun ws ->
      ws.active
      && match ws.window.Scenario.fault with Scenario.Crash _ -> true | _ -> false)
    t.windows

let has_crash_windows t =
  Array.exists
    (fun ws ->
      match ws.window.Scenario.fault with Scenario.Crash _ -> true | _ -> false)
    t.windows

let partitioned t ~src ~dst =
  let split = ref false in
  for k = 0 to Array.length t.windows - 1 do
    let ws = t.windows.(k) in
    if ws.active then
      match ws.window.Scenario.fault with
      | Scenario.Partition { parts } ->
        if src >= 0 && block t ~parts src <> block t ~parts dst then split := true
      | Scenario.Crash _ | Scenario.Delay _ | Scenario.Corrupt _ -> ()
  done;
  !split

(* One trial at the highest active corruption rate; no draw when no
   corruption window is active.  Returns a bool, not the rate: a float
   result would be boxed on every delivered verdict. *)
let corrupts t rng =
  let rate = ref 0. in
  for k = 0 to Array.length t.windows - 1 do
    let ws = t.windows.(k) in
    if ws.active then
      match ws.window.Scenario.fault with
      | Scenario.Corrupt { rate = r } -> rate := Float.max !rate r
      | Scenario.Crash _ | Scenario.Partition _ | Scenario.Delay _ -> ()
  done;
  !rate > 0. && Sf_prng.Rng.bernoulli rng !rate

let delay_factor t =
  refresh t;
  Array.fold_left
    (fun acc ws ->
      if ws.active then
        match ws.window.Scenario.fault with
        | Scenario.Delay { factor } -> acc *. factor
        | _ -> acc
      else acc)
    1. t.windows

let judge t rng ~chance ~src ~dst =
  refresh t;
  Sf_obs.Metrics.incr t.c.judged;
  if is_crashed t src || is_crashed t dst then begin
    Sf_obs.Metrics.incr t.c.crash_drops;
    Drop Crashed
  end
  else if partitioned t ~src ~dst then begin
    Sf_obs.Metrics.incr t.c.partition_drops;
    Drop Partitioned
  end
  else if Loss.drop t.loss rng ~chance ~src ~dst then begin
    Sf_obs.Metrics.incr t.c.chance_drops;
    if Loss.in_burst t.loss then Sf_obs.Metrics.incr t.c.burst_drops;
    Drop Chance
  end
  else if corrupts t rng then begin
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
