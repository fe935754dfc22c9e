(* Point-to-point message layer with uniform i.i.d. loss (the paper's loss
   model, section 4.1) and configurable delivery latency.  Messages to nodes
   without a registered handler are counted as lost-to-crash, which is how
   the churn driver models failed nodes: the id of a dead node stays in
   views until the protocol erodes it, exactly as in section 6.5.2.

   An optional fault injector (lib/faults) generalizes the loss draw to
   stateful processes (Gilbert-Elliott bursts, per-link loss) and timed
   fault windows (partitions, crashes, delay spikes, corruption).  Without
   an injector — or with the all-default scenario — the send path performs
   exactly the historical single Bernoulli draw, so fault-free runs replay
   byte-identically. *)

type 'msg t = {
  sim : Sim.t;
  rng : Sf_prng.Rng.t;
  loss_rate : float;  (* nominal/mean rate, also the uniform default *)
  (* Per-destination loss probability, overriding the uniform rate — the
     non-uniform loss regime the paper's section 4.1 mentions but does not
     analyze (e.g. nodes behind lossy last-mile links). *)
  destination_loss : (int -> float) option;
  injector : Sf_faults.Injector.t option;
  latency : Sf_prng.Rng.t -> float;
  handlers : (int, 'msg -> unit) Hashtbl.t;
  obs : Sf_obs.Obs.t;
  (* Clock stamping trace records.  Defaults to the virtual clock; a
     driver whose time unit is not virtual time (the sequential runner's
     action-count round clock) overrides it so one dump never mixes
     clocks. *)
  mutable trace_clock : unit -> float;
  (* Registry counters; each update is one O(1) increment, the same cost
     as the mutable int fields they replaced. *)
  sent : Sf_obs.Metrics.counter;
  delivered : Sf_obs.Metrics.counter;
  lost : Sf_obs.Metrics.counter;
  dropped_no_handler : Sf_obs.Metrics.counter;
}

type statistics = {
  messages_sent : int;
  messages_delivered : int;
  messages_lost : int;
  messages_to_dead_nodes : int;
}

let default_latency rng = 0.5 +. Sf_prng.Rng.float rng
(* Uniform in [0.5, 1.5): asynchronous but loosely synchronized, matching the
   paper's assumption that nodes invoke actions at similar rates. *)

let create ?(latency = default_latency) ?destination_loss ?injector ?obs ~sim
    ~rng ~loss_rate () =
  if loss_rate < 0. || loss_rate > 1. then
    invalid_arg "Network.create: loss_rate must lie in [0,1]";
  let obs = match obs with Some o -> o | None -> Sf_obs.Obs.create () in
  let m = Sf_obs.Obs.metrics obs in
  {
    sim;
    rng;
    loss_rate;
    destination_loss;
    injector;
    latency;
    handlers = Hashtbl.create 64;
    obs;
    trace_clock = (fun () -> Sim.now sim);
    sent = Sf_obs.Metrics.counter m "net_sent";
    delivered = Sf_obs.Metrics.counter m "net_delivered";
    lost = Sf_obs.Metrics.counter m "net_lost";
    dropped_no_handler = Sf_obs.Metrics.counter m "net_no_handler";
  }

let register t node handler = Hashtbl.replace t.handlers node handler

let unregister t node = Hashtbl.remove t.handlers node

let is_registered t node = Hashtbl.mem t.handlers node

let loss_rate t = t.loss_rate

let drop_probability t ~dst =
  match t.destination_loss with None -> t.loss_rate | Some f -> f dst

(* The loss decision for one message: the historical single Bernoulli draw
   without an injector, the injector's full fault pipeline with one.  The
   simulator's messages never leave memory, so a corrupted payload is
   indistinguishable from a drop at the receiver (the cluster, which sends
   real bytes, instead flips them and lets the codec reject).  The drop
   payload names the cause for the trace record; metrics and the RNG
   stream are unaffected by it. *)
let judge t ~src ~dst =
  match t.injector with
  | None ->
    if Sf_prng.Rng.bernoulli t.rng (drop_probability t ~dst) then `Drop "chance"
    else `Deliver
  | Some injector -> (
    match
      Sf_faults.Injector.judge injector t.rng ~chance:(drop_probability t ~dst) ~src
        ~dst
    with
    | Sf_faults.Injector.Deliver -> `Deliver
    | Sf_faults.Injector.Corrupt_payload -> `Drop "corrupt"
    | Sf_faults.Injector.Drop Sf_faults.Injector.Chance -> `Drop "chance"
    | Sf_faults.Injector.Drop Sf_faults.Injector.Partitioned -> `Drop "partition"
    | Sf_faults.Injector.Drop Sf_faults.Injector.Crashed -> `Drop "crash")

let set_trace_clock t clock = t.trace_clock <- clock

(* Trace stamps come from the injected clock, so traces are deterministic
   and equal-seed runs dump identical bytes. *)
let trace t event =
  if Sf_obs.Obs.tracing t.obs then
    Sf_obs.Obs.trace t.obs ~now:(t.trace_clock ()) event

(* Fire-and-forget send: the sender cannot detect loss, so the loss draw
   happens here and lost messages are simply never scheduled.  [src] feeds
   the fault injector's partition/crash checks; [-1] (unknown sender) is
   exempt from them.  [duplicated] only annotates the trace record — the
   duplication decision itself lives in the protocol layer. *)
let send t ?(src = -1) ?(duplicated = false) ~dst msg =
  Sf_obs.Metrics.incr t.sent;
  trace t (Sf_obs.Trace.Send { src; dst; duplicated });
  match judge t ~src ~dst with
  | `Drop cause ->
    Sf_obs.Metrics.incr t.lost;
    trace t (Sf_obs.Trace.Drop { src; dst; cause })
  | `Deliver ->
    let delay =
      match t.injector with
      | None -> t.latency t.rng
      | Some injector -> t.latency t.rng *. Sf_faults.Injector.delay_factor injector
    in
    Sim.schedule t.sim ~delay (fun () ->
        (* A destination that crashed while the message was in flight
           drops it on arrival. *)
        let crashed =
          match t.injector with
          | None -> false
          | Some injector -> Sf_faults.Injector.is_crashed injector dst
        in
        if crashed then begin
          Sf_obs.Metrics.incr t.lost;
          trace t (Sf_obs.Trace.Drop { src; dst; cause = "crash" })
        end
        else
          match Hashtbl.find_opt t.handlers dst with
          | None ->
            Sf_obs.Metrics.incr t.dropped_no_handler;
            trace t (Sf_obs.Trace.Deliver { dst; accepted = false })
          | Some handler ->
            Sf_obs.Metrics.incr t.delivered;
            trace t (Sf_obs.Trace.Deliver { dst; accepted = true });
            handler msg)

(* Synchronous delivery used by the sequential-action scheduler of the
   analysis model: the receive step runs immediately (actions are serial).
   Returns whether the message was delivered to a live handler. *)
let send_immediate t ?(src = -1) ?(duplicated = false) ~dst msg =
  Sf_obs.Metrics.incr t.sent;
  trace t (Sf_obs.Trace.Send { src; dst; duplicated });
  match judge t ~src ~dst with
  | `Drop cause ->
    Sf_obs.Metrics.incr t.lost;
    trace t (Sf_obs.Trace.Drop { src; dst; cause });
    false
  | `Deliver -> (
    match Hashtbl.find_opt t.handlers dst with
    | None ->
      Sf_obs.Metrics.incr t.dropped_no_handler;
      trace t (Sf_obs.Trace.Deliver { dst; accepted = false });
      false
    | Some handler ->
      Sf_obs.Metrics.incr t.delivered;
      trace t (Sf_obs.Trace.Deliver { dst; accepted = true });
      handler msg;
      true)

let statistics t =
  {
    messages_sent = Sf_obs.Metrics.count t.sent;
    messages_delivered = Sf_obs.Metrics.count t.delivered;
    messages_lost = Sf_obs.Metrics.count t.lost;
    messages_to_dead_nodes = Sf_obs.Metrics.count t.dropped_no_handler;
  }

let observed_loss_rate t =
  let sent = Sf_obs.Metrics.count t.sent in
  if sent = 0 then 0.
  else float_of_int (Sf_obs.Metrics.count t.lost) /. float_of_int sent
