(* Orchestration of an S&F system.

   Two execution modes mirror the paper's two levels of realism:

   - *Sequential actions* (the analysis model, section 5): a central loop
     repeatedly picks a uniformly random live node, runs its initiate step,
     and — if the message survives loss — runs the receive step
     synchronously.  All reproduction experiments use this mode.
   - *Timed execution* (the practical implementation the paper sketches):
     every node initiates on its own periodic or Poisson clock and each
     surviving message arrives after a latency, as a discrete event.  The
     [ablation_scheduler] bench (A1) compares the sequential model with
     Poisson clocks, which give each node the same per-round law of
     initiations.

   Both modes hold the world as the rows of one [View.create_rows] store,
   row = node id, as the sharded engine below does: the step rule is
   [Protocol]'s row kernel on that store, a join past the last row grows
   it by doubling ([View.grow_rows]) and a leave clears the row.

   The runner is its own transport: [send] judges a message and [deliver]
   runs the receive step at the destination's row, at once or as a
   scheduled arrival.

   The runner also provides churn (joins and leaves), snapshots of the
   global membership graph, and the world-level counters used to verify
   Lemmas 6.6/6.7 (duplication = loss + deletion).  Both modes and the
   sharded engine below judge every send through one fault verdict,
   [Sf_faults.Windows.judge]: the sequential modes via the injector, the
   sharded engine directly on per-shard loss chains. *)

type scheduling = Poisson of float | Periodic of float

(* --- Audit events ---

   Every action (and, in timed mode, every delivery) is reported to an
   optional audit callback with enough context to re-check the paper's
   invariants from outside: the initiator's outdegree before and after, the
   duplication decision, and the fate of the message.  [Sf_check.Invariant]
   is the standard consumer; the runner itself never interprets events. *)

type delivery =
  | Accepted   (* placed in the receiver's view *)
  | Deleted    (* receiver full: both ids dropped *)
  | Lost       (* eaten by the network *)
  | To_dead    (* destination has left *)
  | In_flight  (* timed mode: outcome not yet known *)

type action_outcome =
  | Audit_self_loop
  | Audit_send of { destination : int; duplicated : bool; delivery : delivery }

type audit_event =
  | Action of {
      initiator : int;
      degree_before : int;
      degree_after : int;
      outcome : action_outcome;
    }
  | Receipt of { receiver : int; accepted : bool }
      (** timed-mode delivery, asynchronous w.r.t. actions *)
  | Structural of string
      (** join/leave/reconnect/rebootstrap: edge totals changed out of band *)

(* --- Resilience state (lib/resilience) ---

   Installed by passing [?resilience] to [create]; absent, every code
   path below matches [None] once and the runner is bit-for-bit the
   pre-resilience runner.  Once per round the tuner reads the world
   counters and may retune the live dL, and the supervisor drives
   section 5 repairs under backoff — see [resil_tick] at the bottom of
   this file. *)
type resil = {
  tuner : Sf_resil.Loop.tuner;
  supervisor : Sf_resil.Supervisor.t option;  (* under a recovering policy *)
  mutable last_sent : int;         (* baselines for the true-loss gauge *)
  mutable last_lost : int;
  mutable ticks : int;              (* resilience decision ticks (rounds) *)
  g_estimate : Sf_obs.Metrics.gauge;
  g_true : Sf_obs.Metrics.gauge;
  c_retunes : Sf_obs.Metrics.counter;
  c_repair_attempts : Sf_obs.Metrics.counter;
  c_recoveries : Sf_obs.Metrics.counter;
  h_backoff : Sf_obs.Metrics.histogram;
}

type t = {
  (* The config every node runs: the base config until a retune moves
     its dL. *)
  mutable config : Protocol.config;
  resilience : resil option;
  scheduler_rng : Sf_prng.Rng.t;  (* picks initiators and timing *)
  protocol_rng : Sf_prng.Rng.t;   (* slot selections inside nodes *)
  network_rng : Sf_prng.Rng.t;    (* loss verdicts and latencies *)
  sim : Sf_engine.Sim.t;
  loss_rate : float;
  (* Judges every send: built from [Sf_faults.Scenario.default] when no
     scenario is given, which makes the plain single Bernoulli draw.  The
     injector's round clock is actions / initial population in sequential
     mode and virtual time in timed mode. *)
  injector : Sf_faults.Injector.t;
  faulted : bool;                 (* a scenario was passed to [create] *)
  initial_population : int;
  (* The world, one row per node id.  Every per-node array has the
     store's row count; [grow] doubles them all together. *)
  mutable store : View.Flat.t;
  mutable alive : bool array;
  (* Recently received ids, newest first, deduplicated and bounded: the
     "previously seen ids" the section 5 joining rule probes. *)
  mutable seen : int list array;
  (* The section 5 probe's union-find arrays, re-initialised in place
     at each probe. *)
  mutable forest : Overlay.forest;
  (* The live ids, sorted: [Rng.choose] draws initiators from it, so its
     order is part of the scheduler stream.  Ids are minted in increasing
     order, so a join appends; a leave splices.  Never mutated in place:
     [live_ids] hands it out. *)
  mutable live : int array;
  msg : Protocol.row_message;  (* the initiate step's message buffer *)
  mutable next_serial : int;
  mutable actions : int;           (* initiate steps executed *)
  mutable next_node_id : int;
  mutable timed : scheduling option;
  (* Observability: registry counters are the world counters (they
     survive node removal — one O(1) increment per update); the gauge
     tracks the live population. *)
  obs : Sf_obs.Obs.t;
  total_self_loops : Sf_obs.Metrics.counter;
  total_sends : Sf_obs.Metrics.counter;
  total_duplications : Sf_obs.Metrics.counter;
  total_receipts : Sf_obs.Metrics.counter;
  total_deletions : Sf_obs.Metrics.counter;
  total_lost : Sf_obs.Metrics.counter;
  total_to_dead : Sf_obs.Metrics.counter;
  total_reconnections : Sf_obs.Metrics.counter;
  total_rebootstraps : Sf_obs.Metrics.counter;
  live_gauge : Sf_obs.Metrics.gauge;
  (* Audit plumbing. *)
  mutable audit : (t -> audit_event -> unit) option;
}

let set_audit t audit = t.audit <- audit

let emit t event = match t.audit with Some f -> f t event | None -> ()

let store t = t.store

let is_live t id = id >= 0 && id < Array.length t.alive && t.alive.(id)

(* The injected trace clock: the sequential round clock (actions per
   initial node) before [start_timed], virtual time after — matching the
   fault injector's clock, and never an ambient wall clock. *)
let obs_now t =
  match t.timed with
  | Some _ -> Sf_engine.Sim.now t.sim
  | None -> float_of_int t.actions /. float_of_int (max 1 t.initial_population)

let trace t event =
  if Sf_obs.Obs.tracing t.obs then Sf_obs.Obs.trace t.obs ~now:(obs_now t) event

(* Surface fault-window boundary crossings as structural audit events, so
   the invariant auditor resyncs its edge-conservation baseline exactly when
   the fault regime changes. *)
let poll_faults t =
  Sf_faults.Injector.refresh t.injector;
  List.iter
    (fun reason ->
      trace t (Sf_obs.Trace.Fault { transition = reason });
      emit t (Structural reason))
    (Sf_faults.Injector.transitions t.injector)

let is_crashed t id = Sf_faults.Injector.is_crashed t.injector id

let fault_statistics t =
  if t.faulted then Some (Sf_faults.Injector.statistics t.injector) else None

let fresh_serial t () =
  let s = t.next_serial in
  t.next_serial <- s + 1;
  s

(* Bound on the per-node cache of previously seen ids, which only
   [reconnect] reads. *)
let seen_cache_capacity = 32

let remember_seen t u id =
  if id <> u then begin
    let rest = List.filter (fun x -> x <> id) t.seen.(u) in
    t.seen.(u) <- id :: List.filteri (fun k _ -> k < seen_cache_capacity - 1) rest
  end

(* The ids in row [u], in slot order. *)
let row_ids store u = List.init (View.Flat.degree store u) (View.Flat.id_at store u)

(* --- Transport ---

   Messages never leave memory: a send is judged by the injector (one
   draw from the network stream under the default scenario), and a
   surviving message is handed to the destination's receive step, at once
   in sequential mode or after a latency in timed mode.  A message to a
   node that has left is counted to-dead: its id stays in views until the
   protocol erodes it, exactly as in section 6.5.2. *)

(* The drop cause of one message, or [None] when it survives.  A corrupted
   payload is indistinguishable from a drop at the receiver (the cluster,
   which sends real bytes, instead flips them and lets the codec
   reject). *)
let judge t ~src ~dst =
  match
    Sf_faults.Injector.judge t.injector t.network_rng ~chance:t.loss_rate ~src ~dst
  with
  | Sf_faults.Injector.Deliver -> None
  | Sf_faults.Injector.Corrupt_payload -> Some "corrupt"
  | Sf_faults.Injector.Drop Sf_faults.Injector.Chance -> Some "chance"
  | Sf_faults.Injector.Drop Sf_faults.Injector.Partitioned -> Some "partition"
  | Sf_faults.Injector.Drop Sf_faults.Injector.Crashed -> Some "crash"

let lose t ~src ~dst ~cause =
  Sf_obs.Metrics.incr t.total_lost;
  trace t (Sf_obs.Trace.Drop { src; dst; cause })

(* The receive step at row [dst]: [Accepted] or [Deleted], or [To_dead]
   when [dst] has left. *)
let deliver t ~dst (msg : Protocol.row_message) =
  if not (is_live t dst) then begin
    Sf_obs.Metrics.incr t.total_to_dead;
    trace t (Sf_obs.Trace.Deliver { dst; accepted = false });
    To_dead
  end
  else begin
    trace t (Sf_obs.Trace.Deliver { dst; accepted = true });
    Sf_obs.Metrics.incr t.total_receipts;
    let accepted =
      Protocol.receive_row t.protocol_rng t.store dst msg
    in
    remember_seen t dst msg.r_id;
    remember_seen t dst msg.m_id;
    if accepted then Accepted
    else begin
      Sf_obs.Metrics.incr t.total_deletions;
      trace t (Sf_obs.Trace.Delete { node = dst });
      Deleted
    end
  end

(* Uniform in [0.5, 1.5): asynchronous but loosely synchronized, matching
   the paper's assumption that nodes invoke actions at similar rates. *)
let latency t = 0.5 +. Sf_prng.Rng.float t.network_rng

(* A timed-mode arrival.  A destination that crashed while the message was
   in flight drops it; an arrival stands alone, so it is reported as its
   own [Receipt]. *)
let arrive t ~src ~dst msg =
  if is_crashed t dst then lose t ~src ~dst ~cause:"crash"
  else
    match deliver t ~dst msg with
    | (Accepted | Deleted) as fate ->
      emit t (Receipt { receiver = dst; accepted = fate = Accepted })
    | Lost | To_dead | In_flight -> ()

(* Fire-and-forget: the sender cannot detect loss, so the verdict is drawn
   here, then the latency.  A message put in flight takes its own copy of
   the buffer.  Returns the message's fate as the audit reports it. *)
let send t ~synchronous ~src ~duplicated ~dst (msg : Protocol.row_message) =
  trace t (Sf_obs.Trace.Send { src; dst; duplicated });
  match judge t ~src ~dst with
  | Some cause ->
    lose t ~src ~dst ~cause;
    Lost
  | None when synchronous -> deliver t ~dst msg
  | None ->
    let delay = latency t *. Sf_faults.Injector.delay_factor t.injector in
    let msg = { msg with duplicated } in
    Sf_engine.Sim.schedule t.sim ~delay (fun () -> arrive t ~src ~dst msg);
    In_flight

(* A join past the last row doubles the store and every per-node array;
   earlier rows are copied bit for bit. *)
let grow t =
  let rows = 2 * View.Flat.node_count t.store in
  let extend a fill =
    Array.init rows (fun k -> if k < Array.length a then a.(k) else fill)
  in
  t.store <- View.grow_rows t.store ~nodes:rows;
  t.alive <- extend t.alive false;
  t.seen <- extend t.seen [];
  t.forest <- Overlay.forest rows

let set_live t id live =
  t.alive.(id) <- live;
  Sf_obs.Metrics.set t.live_gauge (float_of_int (Array.length t.live))

let create ?scenario ?obs ?resilience ~seed ~n ~loss_rate ~config ~topology
    () =
  if loss_rate < 0. || loss_rate > 1. then
    invalid_arg "Runner.create: loss_rate must lie in [0,1]";
  let root = Sf_prng.Rng.create seed in
  let scheduler_rng = Sf_prng.Rng.split root in
  let protocol_rng = Sf_prng.Rng.split root in
  let network_rng = Sf_prng.Rng.split root in
  (* Split last, and only when the layer is enabled: the three streams
     above are byte-identical with and without resilience, which is what
     keeps the observe-only identity test honest. *)
  let resil_rng = Option.map (fun _ -> Sf_prng.Rng.split root) resilience in
  let sim = Sf_engine.Sim.create () in
  let obs = match obs with Some o -> o | None -> Sf_obs.Obs.create () in
  let metrics = Sf_obs.Obs.metrics obs in
  let injector =
    Sf_faults.Injector.create ~metrics
      ~scenario:(Option.value scenario ~default:Sf_faults.Scenario.default)
      ~n ()
  in
  let resilience =
    match (resilience, resil_rng) with
    | Some policy, Some rng ->
      Some
        {
          tuner =
            Sf_resil.Loop.tuner policy ~initial:config.Protocol.lower_threshold
              ~view_size:config.Protocol.view_size ~edges:0;
          supervisor = Sf_resil.Loop.supervisor policy ~rng;
          last_sent = 0;
          last_lost = 0;
          ticks = 0;
          (* Registered eagerly so exports show the resilience series from
             round zero, not from the first decision. *)
          g_estimate = Sf_obs.Metrics.gauge metrics "resil_loss_estimate";
          g_true = Sf_obs.Metrics.gauge metrics "resil_loss_true";
          c_retunes = Sf_obs.Metrics.counter metrics "resil_retunes_total";
          c_repair_attempts =
            Sf_obs.Metrics.counter metrics "resil_repair_attempts_total";
          c_recoveries = Sf_obs.Metrics.counter metrics "resil_recoveries_total";
          h_backoff = Sf_obs.Metrics.histogram metrics "resil_backoff_rounds";
        }
    | _ -> None
  in
  let rows = max 1 n in
  let t =
    {
      config;
      resilience;
      scheduler_rng;
      protocol_rng;
      network_rng;
      sim;
      loss_rate;
      injector;
      faulted = Option.is_some scenario;
      initial_population = n;
      store = View.create_rows ~nodes:rows config.Protocol.view_size;
      alive = Array.make rows false;
      seen = Array.make rows [];
      forest = Overlay.forest rows;
      live = Array.init n Fun.id;
      msg = Protocol.row_message ();
      next_serial = 0;
      actions = 0;
      next_node_id = n;
      timed = None;
      obs;
      total_self_loops = Sf_obs.Metrics.counter metrics "runner_self_loops";
      total_sends = Sf_obs.Metrics.counter metrics "runner_sends";
      total_duplications = Sf_obs.Metrics.counter metrics "runner_duplications";
      total_receipts = Sf_obs.Metrics.counter metrics "runner_receipts";
      total_deletions = Sf_obs.Metrics.counter metrics "runner_deletions";
      total_lost = Sf_obs.Metrics.counter metrics "runner_lost";
      total_to_dead = Sf_obs.Metrics.counter metrics "runner_to_dead";
      total_reconnections = Sf_obs.Metrics.counter metrics "runner_reconnections";
      total_rebootstraps = Sf_obs.Metrics.counter metrics "runner_rebootstraps";
      live_gauge = Sf_obs.Metrics.gauge metrics "runner_live_nodes";
      audit = None;
    }
  in
  for u = 0 to n - 1 do
    Protocol.install_ids t.store u (Array.of_list (topology u)) ~born:0
      ~mint:(fresh_serial t);
    set_live t u true
  done;
  Sf_faults.Injector.set_clock t.injector (fun () -> obs_now t);
  t

let config t = t.config
let action_count t = t.actions
let minted_serials t = t.next_serial
let live_count t = Array.length t.live
let live_ids t = t.live
let seen_ids t = t.seen
let simulator t = t.sim

let random_live_id t =
  if Array.length t.live = 0 then invalid_arg "Runner.random_live_id: no live nodes";
  Sf_prng.Rng.choose t.scheduler_rng t.live

(* One initiate step at row [u]; the transport depends on the mode.  The
   action counter increments only after the audit event fires, so the
   sequential round clock (actions / n) is constant across the whole action
   — initiate, loss draw, synchronous receive and audit all see the same
   round. *)
let initiate_at t ~synchronous u =
  let degree_before = View.Flat.degree t.store u in
  let msg = t.msg in
  let destination =
    Protocol.initiate_row t.protocol_rng t.store u ~owner:u
      ~dl:t.config.Protocol.lower_threshold ~born:t.actions
      ~mint:(fresh_serial t) msg
  in
  let outcome =
    if destination < 0 then begin
      Sf_obs.Metrics.incr t.total_self_loops;
      Audit_self_loop
    end
    else begin
      let duplicated = msg.duplicated in
      Sf_obs.Metrics.incr t.total_sends;
      if duplicated then begin
        Sf_obs.Metrics.incr t.total_duplications;
        trace t (Sf_obs.Trace.Duplicate { node = u })
      end;
      let delivery = send t ~synchronous ~src:u ~duplicated ~dst:destination msg in
      Audit_send { destination; duplicated; delivery }
    end
  in
  emit t
    (Action
       {
         initiator = u;
         degree_before;
         degree_after = View.Flat.degree t.store u;
         outcome;
       });
  t.actions <- t.actions + 1

(* --- Sequential-action mode --- *)

(* One global action: a random initiator, synchronous delivery unless
   lost.  Crashed nodes do not initiate.  Outside an active crash window a
   step makes the single [Rng.choose]; only while one is active does the
   pick rejection-sample. *)
let step t =
  poll_faults t;
  if Sf_faults.Injector.crash_active t.injector then begin
    let live = t.live in
    let up id = not (is_crashed t id) in
    if Array.exists up live then begin
      let rec pick () =
        let id = Sf_prng.Rng.choose t.scheduler_rng live in
        if up id then id else pick ()
      in
      initiate_at t ~synchronous:true (pick ())
    end
    else
      (* Every live node is frozen: the round clock still has to advance or
         the crash window would never end. *)
      t.actions <- t.actions + 1
  end
  else initiate_at t ~synchronous:true (random_live_id t)

let run_actions t k =
  for _ = 1 to k do
    step t
  done

(* [run_rounds] is defined at the bottom of this file: it interleaves
   rounds with the resilience tick, which needs the connectivity probes
   below. *)

(* --- Timed mode --- *)

let schedule_node t scheduling id =
  let delay () =
    match scheduling with
    | Poisson rate -> Sf_prng.Rng.exponential t.scheduler_rng rate
    | Periodic period ->
      (* Jitter the period slightly: loosely synchronized nodes. *)
      period *. (0.95 +. (0.1 *. Sf_prng.Rng.float t.scheduler_rng))
  in
  let rec tick () =
    (* The node may have left since this event was scheduled. *)
    if is_live t id then begin
      trace t (Sf_obs.Trace.Timer { node = id });
      poll_faults t;
      (* A crashed node skips its initiation but keeps its clock running, so
         it resumes — with its stale view — when the window closes. *)
      if not (is_crashed t id) then initiate_at t ~synchronous:false id;
      Sf_engine.Sim.schedule t.sim ~delay:(delay ()) tick
    end
  in
  Sf_engine.Sim.schedule t.sim ~delay:(delay ()) tick

let start_timed t scheduling =
  if t.timed <> None then invalid_arg "Runner.start_timed: already started";
  t.timed <- Some scheduling;
  Array.iter (schedule_node t scheduling) t.live

let run_until t horizon =
  ignore (Sf_engine.Sim.run ~horizon t.sim)

(* --- Churn and repair: the one install rule ---

   A joiner and a repaired node copy a live donor's view through
   [Protocol.install_copy] (the section 6.5 joining rule): the donor's id,
   then its live entries other than the node's own in slot order, up to
   max(2, dL) of the dL the node runs under, padded with the donor's id
   to that count, every entry
   anchored at the donor because the donor keeps its copy.  The runner's
   only policy is its choice of donor. *)

let install_from t u donor =
  Protocol.install_copy t.store u ~owner:u ~donor ~from:t.store ~from_row:donor
    ~dl:t.config.Protocol.lower_threshold ~live:(is_live t)
    ~born:t.actions ~mint:(fresh_serial t)

let add_node t =
  let donor = random_live_id t in
  let id = t.next_node_id in
  t.next_node_id <- id + 1;
  if id >= View.Flat.node_count t.store then grow t;
  ignore (install_from t id donor);
  t.live <- Array.append t.live [| id |];
  set_live t id true;
  (match t.timed with Some s -> schedule_node t s id | None -> ());
  trace t (Sf_obs.Trace.Mark { label = "add_node" });
  emit t (Structural "add_node");
  id

let live_position live id =
  let lo = ref 0 and hi = ref (Array.length live) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if live.(mid) < id then lo := mid + 1 else hi := mid
  done;
  !lo

let remove_node t id =
  if not (is_live t id) then false
  else begin
    let live = t.live in
    let pos = live_position live id in
    t.live <-
      Array.append (Array.sub live 0 pos)
        (Array.sub live (pos + 1) (Array.length live - pos - 1));
    ignore (View.Flat.clear_row t.store id);
    set_live t id false;
    trace t (Sf_obs.Trace.Mark { label = "remove_node" });
    emit t (Structural "remove_node");
    true
  end

(* --- Reconnection (paper, section 5 joining rule) ---

   A node whose neighbors have all departed can no longer exchange ids: its
   sends go to dead destinations and nobody holds its id.  The paper's
   remedy is the joining rule: reconnect "by probing previously seen ids".
   [reconnect] probes the node's seen-cache (then its current view ids) in
   order; each probe costs a request and a response message, each judged
   like a send, so loss, a partition or a crashed donor defeats it.  Probes
   are not S&F messages: they move no world counter.  The first live,
   responsive target is the donor. *)

type reconnect_result =
  | Reconnected of { donor : int; probes : int; installed : int }
  | Exhausted of { probes : int }

let reconnect t ~node_id =
  if not (is_live t node_id) then invalid_arg "Runner.reconnect: unknown node";
  (* The seen-cache (deduplicated, never the node itself) in recency
     order, then the view's other ids in increasing order. *)
  let seen = t.seen.(node_id) in
  let ordered =
    seen
    @ List.filter
        (fun id -> id <> node_id && not (List.mem id seen))
        (List.sort_uniq compare (row_ids t.store node_id))
  in
  let probes = ref 0 in
  let rec try_candidates = function
    | [] -> Exhausted { probes = !probes }
    | candidate :: rest ->
      incr probes;
      let request_arrives = judge t ~src:node_id ~dst:candidate = None in
      if
        request_arrives && is_live t candidate
        && judge t ~src:candidate ~dst:node_id = None
      then begin
        let installed = install_from t node_id candidate in
        Sf_obs.Metrics.incr t.total_reconnections;
        trace t (Sf_obs.Trace.Mark { label = "reconnect" });
        emit t (Structural "reconnect");
        Reconnected { donor = candidate; probes = !probes; installed }
      end
      else try_candidates rest
  in
  try_candidates ordered

(* A node is starved when its view holds no live id: every send is wasted.
   Starvation is transient while other live nodes still hold the node's
   id (an incoming message restocks the view). *)
let is_starved t u = not (List.exists (is_live t) (row_ids t.store u))

let starved_nodes t = List.filter (is_starved t) (Array.to_list t.live)

let count_id_instances t id =
  Array.fold_left
    (fun acc u -> acc + List.length (List.filter (( = ) id) (row_ids t.store u)))
    0 t.live

(* --- The section 5 repair pass ([Overlay], shared with [Sharded]) ---

   A root alone in its component first probes its seen ids
   ([reconnect]); otherwise it copies a donor of the largest component
   drawn from the scheduler stream, out of band, as from a rendezvous
   service ("copy another node's view"). *)

let probe t = Overlay.probe t.forest t.store ~live:(is_live t)
let isolated_nodes t = List.filter (Overlay.alone (probe t)) (Array.to_list t.live)

let rebootstrap_from t u donor =
  let installed = install_from t u donor in
  Sf_obs.Metrics.incr t.total_rebootstraps;
  trace t (Sf_obs.Trace.Mark { label = "rebootstrap" });
  emit t (Structural "rebootstrap");
  installed

let rebootstrap t ~node_id =
  if not (is_live t node_id) then invalid_arg "Runner.rebootstrap: unknown node";
  let donor = Overlay.donor (probe t) t.scheduler_rng node_id in
  if donor < 0 then 0 else rebootstrap_from t node_id donor

let repair_probe t p =
  Overlay.repair p t.scheduler_rng
    ~reconnect:(fun u ->
      match reconnect t ~node_id:u with Reconnected _ -> true | Exhausted _ -> false)
    ~install:(fun u ~donor -> ignore (rebootstrap_from t u donor))

let repair t = repair_probe t (probe t)

(* --- Measurement --- *)

let membership_graph t =
  let g = Sf_graph.Digraph.create () in
  Array.iter
    (fun u ->
      Sf_graph.Digraph.ensure_vertex g u;
      List.iter (Sf_graph.Digraph.add_edge g u) (row_ids t.store u))
    t.live;
  g

type world_counters = {
  actions : int;
  self_loops : int;
  sends : int;
  duplications : int;
  receipts : int;
  deletions : int;
  messages_lost : int;
  to_dead : int;
}

let world_counters (t : t) =
  let count = Sf_obs.Metrics.count in
  {
    actions = t.actions;
    self_loops = count t.total_self_loops;
    sends = count t.total_sends;
    duplications = count t.total_duplications;
    receipts = count t.total_receipts;
    deletions = count t.total_deletions;
    messages_lost = count t.total_lost;
    to_dead = count t.total_to_dead;
  }

(* Empirical per-send probabilities for the Lemma 6.6 balance check. *)
type rates = { duplication : float; deletion : float; loss : float }

let rates_since t (baseline : world_counters) =
  let now = world_counters t in
  let sends = now.sends - baseline.sends in
  if sends <= 0 then { duplication = 0.; deletion = 0.; loss = 0. }
  else
    let f x = float_of_int x /. float_of_int sends in
    {
      duplication = f (now.duplications - baseline.duplications);
      deletion = f (now.deletions - baseline.deletions);
      loss = f (now.messages_lost - baseline.messages_lost);
    }

(* --- Resilience decision loop (lib/resilience) ---

   One tick per round, after the round's actions: the tuner reads the
   world counters and may retune the live dL, and the supervisor
   runs the repair pass under backoff.  Everything here is skipped in one
   [None] match when the layer is disabled. *)

let apply_retune t r dl =
  t.config <-
    Protocol.make_config ~view_size:t.config.Protocol.view_size ~lower_threshold:dl;
  Sf_obs.Metrics.incr r.c_retunes;
  trace t (Sf_obs.Trace.Mark { label = "retune" });
  (* Structural, so an attached audit marks the threshold change. *)
  emit t (Structural "retune")

(* The health probe is the simulator's privileged view (weak
   connectivity is directly visible); a sick probe has already run the
   repair pass by the time it reports. *)
let supervise t r supervisor =
  let probe_and_repair () =
    let p = probe t in
    ignore (repair_probe t p);
    Overlay.connected p
  in
  match
    Sf_resil.Supervisor.step supervisor ~now:(float_of_int r.ticks)
      probe_and_repair
  with
  | Sf_resil.Supervisor.Attempted ->
    Sf_obs.Metrics.incr r.c_repair_attempts;
    Sf_obs.Metrics.observe r.h_backoff (Sf_resil.Supervisor.last_delay supervisor);
    trace t (Sf_obs.Trace.Mark { label = "repair" })
  | Sf_resil.Supervisor.Recovered -> Sf_obs.Metrics.incr r.c_recoveries
  | Sf_resil.Supervisor.Not_due | Sf_resil.Supervisor.Healthy -> ()

let resil_tick t =
  match t.resilience with
  | None -> ()
  | Some r ->
    r.ticks <- r.ticks + 1;
    let count = Sf_obs.Metrics.count in
    let retune =
      Sf_resil.Loop.tick r.tuner ~sends:(count t.total_sends)
        ~duplications:(count t.total_duplications)
        ~deletions:(count t.total_deletions) ~to_dead:0 ~edges_added:0
        ~edges_removed:0 ~edges:0
    in
    Sf_obs.Metrics.set r.g_estimate (Sf_resil.Loop.estimate r.tuner);
    (* Ground truth from the send and loss counters over the last round,
       for dashboards and estimator cross-checks; under non-stationary
       loss it tracks the current regime where a cumulative rate would
       lag. *)
    let sends = count t.total_sends and losses = count t.total_lost in
    let sent = sends - r.last_sent and lost = losses - r.last_lost in
    r.last_sent <- sends;
    r.last_lost <- losses;
    if sent > 0 then
      Sf_obs.Metrics.set r.g_true (float_of_int lost /. float_of_int sent);
    Option.iter (apply_retune t r) retune;
    Option.iter (supervise t r) r.supervisor

(* A round = as many actions as live nodes (each node initiates once in
   expectation), the paper's round definition in section 6.5.  The
   resilience tick runs between rounds (a no-op when the layer is off);
   timed mode has no rounds, so resilience decisions are
   sequential-mode-only — documented in the interface. *)
let run_rounds t rounds =
  for _ = 1 to rounds do
    run_actions t (live_count t);
    resil_tick t
  done

type resilience_stats = Sf_resil.Loop.stats = {
  loss_estimate : float;
  estimator_confident : bool;
  estimator_windows : int;
  retunes : int;
  repair_attempts : int;
  recoveries : int;
}

let resilience_statistics t =
  Option.map (fun r -> Sf_resil.Loop.stats r.tuner r.supervisor) t.resilience

(* --- The sharded flat-state runner: the million-node path ---

   The orchestrator above tops out around 1k-10k nodes: boxed audit and
   trace plumbing on every action, and a strictly serial action loop.
   [Sharded] is the million-node path: the whole world lives in one
   [View.Flat] store (contiguous id, anchor and born columns in 32-bit
   lanes, serials and cached degrees in int arrays — nothing per-node for
   the GC to walk), and the action loop is a bulk-synchronous variant of
   the paper's sequential model, partitioned into [shard_count] fixed
   *logical* shards that OCaml 5 domains execute in parallel between
   deterministic barriers.

   One round = every node initiates exactly once (the paper's section 6.5
   round is n actions — here the schedule is the deterministic node order
   rather than n uniform picks.  Bench A1 compares the sequential model
   only with Poisson clocks, the same per-node law, so it does not cover
   this schedule; ROADMAP item 3 measured the deletion-rate gap it
   opens).  Each round runs two phases:

     I.  initiate: each shard walks its own nodes in id order.  An
         initiate touches only the initiator's view; surviving messages
         are appended, flat-encoded, to the source shard's row of the
         message matrix ([Sf_engine.Mailbox], one box per destination
         shard).  Loss is drawn at send time from the source shard's
         stream.
     II. deliver (after the barrier): each shard drains the boxes
         addressed to it — source shards in index order, messages in
         generation order — applying the S&F receive rule to its own
         nodes with draws from its own stream.

   Both phases run Protocol's row kernel ([Protocol.initiate_row],
   [Protocol.receive_row]) on the world store: the step rule the
   sequential runner runs on its store and the UDP driver on the rows of
   its owned nodes' store, not a copy of it.

   Determinism across domain counts is by construction, not by locking:
   every PRNG draw comes from one of [shard_count] streams split from the
   root seed in fixed order; each stream is consumed by exactly one
   logical shard whose work — its own nodes in phase I, a deterministically
   ordered inbox in phase II — does not depend on how logical shards are
   packed onto domains.  Serials are minted per shard with stride
   [shard_count] (shard i mints i, i + S, i + 2S, ...), so minting is
   collision-free and shard-local.  The only cross-shard data flow is the
   message matrix: row [src] is written solely by shard [src] in phase I
   and read after the barrier, so the spawn/join edges of [Sf_engine.Par]
   are the only synchronization needed.  Hence any [domains] value
   replays the [domains = 1] run bit-for-bit — asserted by [equal] in the
   tests and the SCALE bench.  Each shard counts what it does in one int
   array of named cells; every statistic is a sum of those arrays over
   shards, and [equal] compares them whole.

   Chaos at scale.  The engine optionally runs the full robustness stack
   under the same determinism contract:

   - [?scenario] threads an [Sf_faults.Scenario.t] through the round loop.
     Stateful loss processes (the Gilbert–Elliott chain position) are
     per-shard values created from the shared model, so every chain step
     draws from the owning shard's stream; crash and partition windows
     ([Sf_faults.Windows]) are pure functions of the round clock,
     refreshed once per round by the coordinator at the barrier and only
     read inside the phases.  Every send is judged by
     [Sf_faults.Windows.judge], the injector's own verdict: crash drop
     (no randomness), partition drop (no randomness), chance loss
     (shard-stream draw).  Delay and corruption windows are rejected —
     this engine has no latency model and no wire bytes.
   - [?churn] adds join/leave turnover.  The store is allocated with
     [headroom] extra node slots beyond the initial population; slots
     [n + c*S + i] are owned by shard [i] (shard-strided, like serial
     minting) and threaded on a per-shard free list.  Each round opens
     with a churn phase before phase I: every shard walks its own live
     nodes in id order, draws leaves at the configured rate (clearing the
     view and recycling the slot at the back of the free list), then
     performs one join per leave — popping a slot, bootstrapping max(2,
     dL) entries ([Protocol.install_copy]) from a donor drawn among the
     shard's own live nodes.  A join takes only a slot that was free when
     the round began: a slot freed in a round is not reused in that round, so a
     message sent to its old node counts as to-dead and a layered engine
     sees it dead.  Joins left without a slot wait, counted, and are
     placed first in the next round.  All of it is shard-local, so phase
     determinism is untouched.
   - [?resilience] runs the Sf_resil stack at the barrier after phase II,
     on the coordinator: the estimator is fed the round's summed counter
     deltas, a controller retune rewrites the world's live dL (which
     phase I and every join read; s is the allocated view size and never
     moves), and the
     supervisor runs the section 5 probe and repair pass ([Overlay], the
     one the sequential runner runs) every [probe_every] rounds,
     rebootstrapping stragglers from a dedicated resilience stream split
     from the root seed after the shard streams.

   The edge ledger extends Lemma 6.6 accordingly: a round moves the edge
   total by 2*accepted duplications - 2*dropped non-duplicated messages
   + edges created by joins/rebootstraps - edges destroyed by
   leaves/rebootstraps ([ledger] exposes all four; crashes freeze nodes
   but destroy edges only through the messages they drop, so they need no
   term of their own). *)

module Sharded = struct
  module Flat = View.Flat

  (* Message rows of matrix 0, [fields] ints per message:
     dst | src << 31 | duplicated << 62, mixing id | mixing born << 31,
     mixing serial, reinforcement serial.  Node slots are below 2^31
     ([Flat.create] refuses more) and ids and round stamps are 31-bit
     lane values ([Flat.fits]), so each packs into 31 bits.  (The
     reinforcement id is the source id and both anchors are derived from
     the duplication flag, so neither is stored; the reinforcement is
     born in the sending round.) *)
  let fields = 4
  let lane_mask = (1 lsl 31) - 1

  (* Read the message at [b.(i)] back into [msg]; the reinforcement was
     born in the sending round, [born]. *)
  let[@inline] read_message b i ~born (msg : Protocol.row_message) =
    let head = b.(i) and mixing = b.(i + 1) in
    let src = (head lsr 31) land lane_mask and duplicated = head lsr 62 = 1 in
    let anchor = if duplicated then src else -1 in
    msg.duplicated <- duplicated;
    msg.r_id <- src;
    msg.r_serial <- b.(i + 3);
    msg.r_anchor <- anchor;
    msg.r_born <- born;
    msg.m_id <- mixing land lane_mask;
    msg.m_serial <- b.(i + 2);
    msg.m_anchor <- anchor;
    msg.m_born <- mixing lsr 31

  type churn = {
    churn_rate : float;  (* per-round leave probability of each live node *)
    headroom : int;  (* extra node slots beyond n, rounded up to a multiple
                        of the shard count and strided across shards *)
  }

  type churn_stats = {
    joins : int;
    leaves : int;
    join_skips : int;  (* joins skipped because a shard had no live donor *)
    joins_waiting : int;  (* joins waiting for a slot free at a round's start *)
    deliveries_to_dead : int;
  }

  type ledger = {
    accepted_duplications : int;
    dropped_non_duplicated : int;
    churn_edges_added : int;  (* installed by joins and rebootstraps *)
    churn_edges_removed : int;  (* cleared by leaves and rebootstraps *)
  }

  (* Per-shard counters: cells of one int array per shard.  Every total
     is one sum over shards ([totals]) and [equal] compares the arrays
     whole, so a cell added here is covered by both. *)
  let c_actions = 0
  let c_self_loops = 1
  let c_sends = 2
  let c_duplications = 3
  let c_receipts = 4
  let c_deletions = 5
  let c_lost = 6
  let c_burst_drops = 7  (* subset of c_lost drawn in a Bad state *)
  let c_crash_drops = 8
  let c_partition_drops = 9
  let c_joins = 10
  let c_leaves = 11
  let c_join_skips = 12
  let c_to_dead = 13
  let c_waiting = 14  (* joins waiting for a slot (not monotone) *)

  (* Edge-conservation ledger (Lemma 6.6 at round granularity): a round
     moves the global edge count by exactly
     2 * accepted_dup - 2 * dropped_nondup + edges_added - edges_removed. *)
  let c_accepted_dup = 15
  let c_dropped_nondup = 16
  let c_edges_added = 17
  let c_edges_removed = 18
  let counters = 19

  (* All mutable per-shard state: touched only by the domain currently
     running this shard, reduced by the coordinator between barriers. *)
  type shard = {
    index : int;
    lo : int;  (* first owned node *)
    hi : int;  (* one past the last owned node *)
    owned : int array;  (* every owned slot, ascending: lo..hi-1, extras *)
    rng : Sf_prng.Rng.t;
    loss : Sf_faults.Loss.t;
        (* this shard's stateful loss process (Gilbert–Elliott chain
           position); [Iid] without a scenario *)
    mutable live : int;  (* live owned nodes *)
    free : int array;  (* ring buffer of free owned slots; empty without churn *)
    mutable free_head : int;
    mutable free_len : int;
    mutable minted : int;  (* serials handed out: minted * shard_count + index *)
    mint : unit -> int;  (* [mint_serial] as a closure for the kernel, built once *)
    msg : Protocol.row_message;  (* the kernel's buffer, for both phases *)
    count : int array;  (* the [counters] cells above *)
  }

  let[@inline] add sh c k = sh.count.(c) <- sh.count.(c) + k
  let[@inline] bump sh c = add sh c 1

  (* Shard [sh] mints index, index + S, index + 2S, ... with S = [stride],
     the shard count. *)
  let mint_serial ~stride sh =
    sh.minted <- sh.minted + 1;
    ((sh.minted - 1) * stride) + sh.index

  (* Barrier-time resilience state, touched only by the coordinator. *)
  type resil = {
    r_rng : Sf_prng.Rng.t;  (* split from the root after the shard streams *)
    r_tuner : Sf_resil.Loop.tuner;
    r_supervisor : Sf_resil.Supervisor.t option;  (* under a recovering policy *)
    r_probe_every : int;
    r_forest : Overlay.forest;  (* the probe's arrays: [capacity] cells under a supervisor *)
  }

  type t = {
    n : int;  (* initial population; also the partition block base *)
    capacity : int;  (* node slots in the store: n + rounded headroom *)
    shard_count : int;
    chunk : int;  (* initial nodes per shard; shard of node u < n is u / chunk *)
    loss_rate : float;
    scenario : Sf_faults.Scenario.t option;
    churn_spec : churn option;
    store : Flat.t;
    alive : int array;  (* 1 = live; each slot written only by its owner
                           shard (churn phase) or the coordinator (barriers) *)
    shards : shard array;
    (* The message matrices, kept for the world's life: matrix 0 carries
       phase I's sends, drained in phase II; between rounds all three
       are lent to a layered engine ([matrix]). *)
    matrices : Sf_engine.Mailbox.t array;
    mutable rounds : int;
    (* Window activity: a pure function of (scenario, round), refreshed
       once per round by the coordinator before phase I; read-only inside
       the phases. *)
    windows : Sf_faults.Windows.t;
    resil : resil option;
    (* The live dL: rewritten only by the coordinator at barriers
       (resilience retunes), read by the phases. *)
    mutable dl : int;
  }

  type init_topology = Ring | Scatter

  (* SplitMix64-style finalizer truncated to OCaml's 63-bit ints: the
     Scatter start derives every initial edge from this pure function of
     (seed, u, k), so it consumes no RNG stream — enabling it cannot
     perturb the per-shard streams, and the result is identical for every
     shard/domain layout. *)
  let scatter_target ~seed ~n u k =
    let h =
      ref
        ((seed * 0x1E3779B97F4A7C15)
        + (u * 0x3F58476D1CE4E5B9)
        + (k * 0x14D049BB133111EB))
    in
    h := !h lxor (!h lsr 30);
    h := !h * 0x3F58476D1CE4E5B9;
    h := !h lxor (!h lsr 27);
    h := !h * 0x14D049BB133111EB;
    h := !h lxor (!h lsr 31);
    let v = !h land max_int mod (n - 1) in
    if v >= u then v + 1 else v

  let create ?(shards = 16) ?(loss_rate = 0.) ?init_degree ?(init = Ring)
      ?scenario ?churn ?resilience ?(probe_every = 8) ~seed ~n ~config () =
    if n < 3 then invalid_arg "Runner.Sharded.create: need at least 3 nodes";
    if shards < 1 then invalid_arg "Runner.Sharded.create: need at least 1 shard";
    if loss_rate < 0. || loss_rate >= 1. then
      invalid_arg "Runner.Sharded.create: loss rate outside [0, 1)";
    if probe_every < 1 then
      invalid_arg "Runner.Sharded.create: probe_every must be >= 1";
    let windows =
      Sf_faults.Windows.create ~n
        (match scenario with None -> [] | Some sc -> sc.Sf_faults.Scenario.windows)
    in
    (match scenario with
    | None -> ()
    | Some sc ->
      List.iter
        (fun w ->
          match w.Sf_faults.Scenario.fault with
          | Sf_faults.Scenario.Delay _ | Sf_faults.Scenario.Corrupt _ ->
            invalid_arg
              (Fmt.str
                 "Runner.Sharded.create: %s windows are not supported on the \
                  sharded engine (no latency model, no wire bytes)"
                 (Sf_faults.Scenario.fault_kind w.Sf_faults.Scenario.fault))
          | Sf_faults.Scenario.Partition _ | Sf_faults.Scenario.Crash _ -> ())
        sc.Sf_faults.Scenario.windows);
    (match churn with
    | None -> ()
    | Some c ->
      if c.churn_rate < 0. || c.churn_rate >= 1. then
        invalid_arg "Runner.Sharded.create: churn rate outside [0, 1)";
      if c.headroom < 0 then
        invalid_arg "Runner.Sharded.create: negative churn headroom");
    let view_size = config.Protocol.view_size in
    let d0 =
      match init_degree with
      | Some d ->
        if d < 2 || d > view_size || d >= n || d land 1 = 1 then
          invalid_arg
            "Runner.Sharded.create: init_degree must be even, >= 2, <= view \
             size and < n";
        d
      | None -> Protocol.start_degree config ~n
    in
    let chunk = (n + shards - 1) / shards in
    (* Headroom slots live at n + c*S + i (owned by shard i): strided like
       serial minting, so every shard can mint fresh node slots without
       coordination. *)
    let per_shard_extra =
      match churn with
      | None -> 0
      | Some c -> (c.headroom + shards - 1) / shards
    in
    let capacity = n + (per_shard_extra * shards) in
    let root = Sf_prng.Rng.create seed in
    let store = Flat.create ~nodes:capacity ~view_size in
    (* Streams are split from the root in shard order — explicitly, because
       the split advances the root and the order is part of the seed
       contract.  The resilience stream, when present, splits after all
       shard streams, so enabling resilience never perturbs them. *)
    let shard_list = ref [] in
    for index = 0 to shards - 1 do
      let lo = min n (index * chunk) and hi = min n ((index + 1) * chunk) in
      let owned =
        Array.init
          (hi - lo + per_shard_extra)
          (fun k -> if k < hi - lo then lo + k else n + ((k - (hi - lo)) * shards) + index)
      in
      (* Only churn pushes freed slots, at most every owned one. *)
      let free =
        match churn with None -> [||] | Some _ -> Array.make (max 1 (Array.length owned)) 0
      in
      for c = 0 to per_shard_extra - 1 do
        free.(c) <- n + (c * shards) + index
      done;
      let rec sh =
        {
          index;
          lo;
          hi;
          owned;
          rng = Sf_prng.Rng.split root;
          loss =
            Sf_faults.Loss.create
              (match scenario with
              | None -> Sf_faults.Loss.Iid
              | Some sc -> sc.Sf_faults.Scenario.loss);
          live = hi - lo;
          free;
          free_head = 0;
          free_len = per_shard_extra;
          minted = 0;
          mint = (fun () -> mint_serial ~stride:shards sh);
          msg = Protocol.row_message ();
          count = Array.make counters 0;
        }
      in
      shard_list := sh :: !shard_list
    done;
    let alive = Array.make capacity 0 in
    Array.fill alive 0 n 1;
    let shards_arr = Array.of_list (List.rev !shard_list) in
    (* Uniform even outdegree d0 — the section 4 requirement — installed
       shard by shard so initial serials are shard-strided like every
       later mint.  Ring: u points at u+1 .. u+d0 mod n (the historical
       deterministic start; weakly connected, but a 1-D cycle, so views
       mix only at random-walk speed).  Scatter: u points at d0
       hash-scattered non-self ids — an expander-like start whose views
       mix in O(log n) rounds, which rumor-spreading workloads need. *)
    let ids = Array.make d0 0 in
    Array.iter
      (fun sh ->
        for u = sh.lo to sh.hi - 1 do
          for k = 0 to d0 - 1 do
            ids.(k) <-
              (match init with
              | Ring -> (u + k + 1) mod n
              | Scatter -> scatter_target ~seed ~n u k)
          done;
          Protocol.install_ids store u ids ~born:0 ~mint:sh.mint
        done)
      shards_arr;
    let resil =
      Option.map
        (fun policy ->
          let r_rng = Sf_prng.Rng.split root in
          let r_supervisor = Sf_resil.Loop.supervisor policy ~rng:r_rng in
          {
            r_rng;
            (* The edge baseline includes the start just installed, or the
               first window would see a spurious +n*d0 drift. *)
            r_tuner =
              Sf_resil.Loop.tuner policy ~initial:config.Protocol.lower_threshold
                ~view_size ~edges:(Flat.total_edges store);
            r_supervisor;
            r_probe_every = probe_every;
            r_forest = Overlay.forest (if Option.is_some r_supervisor then capacity else 0);
          })
        resilience
    in
    {
      n;
      capacity;
      shard_count = shards;
      chunk;
      loss_rate;
      scenario;
      churn_spec = churn;
      store;
      alive;
      shards = shards_arr;
      matrices = Array.init 3 (fun _ -> Sf_engine.Mailbox.create ~shards);
      rounds = 0;
      windows;
      resil;
      dl = config.Protocol.lower_threshold;
    }

  let shard_of t id = if id < t.n then id / t.chunk else (id - t.n) mod t.shard_count

  let windows t = t.windows
  let is_crashed t id = Sf_faults.Windows.crashed t.windows id

  (* --- Per-shard free list of node slots (ring buffer) --- *)

  let free_push sh slot =
    sh.free.((sh.free_head + sh.free_len) mod Array.length sh.free) <- slot;
    sh.free_len <- sh.free_len + 1

  let free_pop sh =
    let slot = sh.free.(sh.free_head) in
    sh.free_head <- (sh.free_head + 1) mod Array.length sh.free;
    sh.free_len <- sh.free_len - 1;
    slot

  (* --- Churn phase (before phase I; every shard touches only its own
     slots and its own stream) --- *)

  let churn_shard t spec sh =
    let rate = spec.churn_rate in
    (* A join takes only a slot that was free when the round began.  A
       slot freed now still has this round's messages addressed to its
       old node, and a layered engine must see it dead before it holds
       a new one; so it waits a round at the back of the free list. *)
    let free_at_start = sh.free_len in
    Array.iter
      (fun u ->
        if t.alive.(u) = 1 && Sf_prng.Rng.bernoulli sh.rng rate then begin
          add sh c_edges_removed (Flat.clear_row t.store u);
          t.alive.(u) <- 0;
          sh.live <- sh.live - 1;
          free_push sh u;
          bump sh c_leaves;
          bump sh c_waiting
        end)
      sh.owned;
    (* One join per leave, so the population is stationary with [rate]
       turnover while the headroom lasts.  Joins left without a slot wait
       and are placed first in the next round.  Slots are popped
       oldest-first, delaying id reuse by the full depth of the free
       list. *)
    let placed = min sh.count.(c_waiting) free_at_start in
    add sh c_waiting (-placed);
    let owned_n = Array.length sh.owned in
    for _ = 1 to placed do
      if sh.live = 0 then bump sh c_join_skips
      else begin
        let slot = free_pop sh in
        let donor = ref sh.owned.(Sf_prng.Rng.int sh.rng owned_n) in
        while t.alive.(!donor) = 0 do
          donor := sh.owned.(Sf_prng.Rng.int sh.rng owned_n)
        done;
        (* The joining rule, with serials minted by the owning shard.  No
           liveness filter: other shards are flipping their alive bits
           now, and stale ids decay like any dead reference.  A recycled
           slot's donor may still hold the previous incarnation's id,
           which the rule's self filter drops. *)
        add sh c_edges_added
          (Protocol.install_copy t.store slot ~owner:slot ~donor:!donor ~from:t.store
             ~from_row:!donor ~dl:t.dl ~live:(fun _ -> true) ~born:t.rounds
             ~mint:sh.mint);
        t.alive.(slot) <- 1;
        sh.live <- sh.live + 1;
        bump sh c_joins
      end
    done

  (* Append [msg], addressed to [dst], to the sending shard's mailbox row
     in the layout [read_message] reads back. *)
  let[@inline] post t sh ~dst (msg : Protocol.row_message) =
    let to_shard = shard_of t dst in
    let mail = t.matrices.(0) in
    let i = Sf_engine.Mailbox.push mail ~src:sh.index ~dst:to_shard ~width:fields in
    let b = Sf_engine.Mailbox.ints mail ~src:sh.index ~dst:to_shard in
    b.(i) <- dst lor (msg.r_id lsl 31) lor (if msg.duplicated then 1 lsl 62 else 0);
    b.(i + 1) <- msg.m_id lor (msg.m_born lsl 31);
    b.(i + 2) <- msg.m_serial;
    b.(i + 3) <- msg.r_serial

  (* Phase I: every owned live, un-crashed node initiates once, in id
     order, through Protocol's row kernel. *)
  let initiate_shard t sh =
    (* The previous round's row has been fully drained (the barrier
       guarantees it); reclaim it before writing this round's messages. *)
    Sf_engine.Mailbox.clear t.matrices.(0) ~src:sh.index;
    let store = t.store in
    let born = t.rounds in
    let msg = sh.msg in
    Array.iter
      (fun u ->
        (* Dead slots hold no node; crashed nodes freeze (no initiations —
           the source half of Injector.judge's crash verdict). *)
        if t.alive.(u) = 1 && not (is_crashed t u) then begin
          bump sh c_actions;
          let target =
            Protocol.initiate_row sh.rng store u ~owner:u ~dl:t.dl ~born
              ~mint:sh.mint msg
          in
          if target < 0 then bump sh c_self_loops
          else begin
            let duplicated = msg.Protocol.duplicated in
            if duplicated then bump sh c_duplications;
            bump sh c_sends;
            let fate =
              Sf_faults.Windows.judge t.windows sh.loss sh.rng
                ~chance:t.loss_rate ~src:u ~dst:target
            in
            (match fate with
            | Sf_faults.Windows.Pass -> post t sh ~dst:target msg
            | Sf_faults.Windows.Crashed -> bump sh c_crash_drops
            | Sf_faults.Windows.Partitioned -> bump sh c_partition_drops
            | Sf_faults.Windows.Lost ->
              bump sh c_lost;
              if Sf_faults.Loss.in_burst sh.loss then bump sh c_burst_drops);
            if fate <> Sf_faults.Windows.Pass && not duplicated then
              bump sh c_dropped_nondup
          end
        end)
      sh.owned

  (* Phase II: drain the mailbox column addressed to this shard — source
     shards in index order, messages in generation order — running
     Protocol's receive kernel at owned nodes. *)
  let deliver_shard t sh =
    let store = t.store in
    let born = t.rounds in
    let msg = sh.msg in
    let mail = t.matrices.(0) in
    for src = 0 to t.shard_count - 1 do
      let b = Sf_engine.Mailbox.ints mail ~src ~dst:sh.index in
      let len = Sf_engine.Mailbox.length mail ~src ~dst:sh.index in
      let i = ref 0 in
      while !i < len do
        let head = b.(!i) in
        let dst = head land lane_mask and dup = head lsr 62 in
        if t.alive.(dst) = 0 then begin
          (* The destination left (or its slot was never live): the sender
             cannot know — the message is simply lost on the floor. *)
          bump sh c_to_dead;
          if dup = 0 then bump sh c_dropped_nondup
        end
        else begin
          bump sh c_receipts;
          read_message b !i ~born msg;
          if Protocol.receive_row sh.rng store dst msg then begin
            if dup = 1 then bump sh c_accepted_dup
          end
          else begin
            bump sh c_deletions;
            if dup = 0 then bump sh c_dropped_nondup
          end
        end;
        i := !i + fields
      done
    done

  let config t =
    Protocol.make_config ~view_size:(Flat.view_size t.store) ~lower_threshold:t.dl
  let capacity t = t.capacity
  let shard_count t = t.shard_count
  let owned t i = t.shards.(i).owned
  let matrix t i = t.matrices.(i)
  let scenario t = t.scenario
  let loss_rate t = t.loss_rate
  let rounds_completed t = t.rounds
  let store t = t.store
  let total_edges t = Flat.total_edges t.store
  let is_live t id = id >= 0 && id < t.capacity && t.alive.(id) = 1
  let live_count t = Array.fold_left (fun acc sh -> acc + sh.live) 0 t.shards

  let minted t = Array.map (fun sh -> sh.minted) t.shards

  (* Every counter cell summed over shards. *)
  let totals t =
    let sum = Array.make counters 0 in
    Array.iter
      (fun sh ->
        for c = 0 to counters - 1 do
          sum.(c) <- sum.(c) + sh.count.(c)
        done)
      t.shards;
    sum

  let ledger t =
    let c = totals t in
    {
      accepted_duplications = c.(c_accepted_dup);
      dropped_non_duplicated = c.(c_dropped_nondup);
      churn_edges_added = c.(c_edges_added);
      churn_edges_removed = c.(c_edges_removed);
    }

  let churn_statistics t =
    let c = totals t in
    {
      joins = c.(c_joins);
      leaves = c.(c_leaves);
      join_skips = c.(c_join_skips);
      joins_waiting = c.(c_waiting);
      deliveries_to_dead = c.(c_to_dead);
    }

  let fault_statistics t =
    match t.scenario with
    | None -> None
    | Some _ ->
      let c = totals t in
      Some
        {
          Sf_faults.Injector.judged = c.(c_sends);
          chance_drops = c.(c_lost);
          burst_drops = c.(c_burst_drops);
          partition_drops = c.(c_partition_drops);
          crash_drops = c.(c_crash_drops);
          corruptions = 0;
          fault_transitions = Sf_faults.Windows.transitions t.windows;
        }

  let world_counters t =
    let c = totals t in
    {
      actions = c.(c_actions);
      self_loops = c.(c_self_loops);
      sends = c.(c_sends);
      duplications = c.(c_duplications);
      receipts = c.(c_receipts);
      deletions = c.(c_deletions);
      messages_lost = c.(c_lost);
      to_dead = c.(c_to_dead);
    }

  (* --- Barrier-time resilience (coordinator only) --- *)

  (* The section 5 probe and repair pass ([Overlay]): every straggler
     root copies a donor of the largest component, drawn from the
     resilience stream, charging both sides of the churn edge ledger to
     its owning shard (the alive array is quiescent at the barrier). *)
  let probe_and_repair t r =
    let store = t.store in
    let live id = t.alive.(id) = 1 in
    let p = Overlay.probe r.r_forest store ~live in
    ignore
      (Overlay.repair p r.r_rng
         ~install:(fun v ~donor ->
           let sh = t.shards.(shard_of t v) in
           add sh c_edges_removed (Flat.degree store v);
           add sh c_edges_added
             (Protocol.install_copy store v ~owner:v ~donor ~from:store ~from_row:donor
                ~dl:t.dl ~live ~born:t.rounds ~mint:sh.mint)));
    Overlay.connected p

  let resil_tick t =
    match t.resil with
    | None -> ()
    | Some r ->
      let c = totals t in
      (* Churn-aware Lemma 6.6 inversion: the sends swallowed by departed
         slots, the ledger's out-of-band edge flux (bootstraps, leaves,
         rebootstraps) and the overlay's edge-count drift are exactly the
         terms that biased the bare estimate under churn and fault
         transients. *)
      (match
         Sf_resil.Loop.tick r.r_tuner ~sends:c.(c_sends)
           ~duplications:c.(c_duplications) ~deletions:c.(c_deletions)
           ~to_dead:c.(c_to_dead) ~edges_added:c.(c_edges_added)
           ~edges_removed:c.(c_edges_removed) ~edges:(Flat.total_edges t.store)
       with
      | None -> ()
      | Some dl -> t.dl <- dl);
      match r.r_supervisor with
      | Some supervisor when t.rounds mod r.r_probe_every = 0 ->
        ignore
          (Sf_resil.Supervisor.step supervisor ~now:(float_of_int t.rounds)
             (fun () -> probe_and_repair t r))
      | Some _ | None -> ()

  let resilience_statistics t =
    Option.map
      (fun r -> Sf_resil.Loop.stats r.r_tuner r.r_supervisor)
      t.resil

  let live_thresholds t = (t.dl, Flat.view_size t.store)

  let run_round t ~domains =
    Sf_faults.Windows.refresh t.windows ~now:(float_of_int t.rounds);
    (match t.churn_spec with
    | Some spec when spec.churn_rate > 0. ->
      Sf_engine.Par.run ~domains ~tasks:t.shard_count (fun i ->
          churn_shard t spec t.shards.(i))
    | Some _ | None -> ());
    Sf_engine.Par.run ~domains ~tasks:t.shard_count (fun i ->
        initiate_shard t t.shards.(i));
    Sf_engine.Par.run ~domains ~tasks:t.shard_count (fun i ->
        deliver_shard t t.shards.(i));
    t.rounds <- t.rounds + 1;
    resil_tick t

  let run_rounds t ?(domains = 1) rounds =
    for _ = 1 to rounds do
      run_round t ~domains
    done

  (* Bit-for-bit world equality: the domain-count determinism oracle.
     Covers the full store (ids, serials, anchors, born stamps, cached
     degrees), the round clock, the alive map, whether a scenario is
     installed, the window state (every window's activity flag and the
     transition count), the live dL, every per-shard counter, free-list
     position, loss-chain state, mint position and RNG stream position,
     and the resilience stream when both worlds run one (an observe-only
     policy draws nothing, so its world still equals its policy-free
     twin). *)
  let equal a b =
    let free_equal x y =
      x.free_len = y.free_len
      &&
      let same = ref true in
      for k = 0 to x.free_len - 1 do
        if
          x.free.((x.free_head + k) mod Array.length x.free)
          <> y.free.((y.free_head + k) mod Array.length y.free)
        then same := false
      done;
      !same
    in
    a.n = b.n && a.capacity = b.capacity && a.dl = b.dl
    && a.shard_count = b.shard_count
    && a.rounds = b.rounds
    && Option.is_some a.scenario = Option.is_some b.scenario
    && Sf_faults.Windows.equal a.windows b.windows
    && a.alive = b.alive
    && Flat.equal a.store b.store
    && (match (a.resil, b.resil) with
       | Some ra, Some rb -> Sf_prng.Rng.equal ra.r_rng rb.r_rng
       | None, _ | _, None -> true)
    && Array.for_all2
         (fun (x : shard) (y : shard) ->
           Sf_prng.Rng.equal x.rng y.rng
           && x.minted = y.minted && x.count = y.count
           && x.live = y.live && free_equal x y
           && Sf_faults.Loss.in_burst x.loss = Sf_faults.Loss.in_burst y.loss)
         a.shards b.shards
end
