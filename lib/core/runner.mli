(** Orchestration of an S&F system: nodes, lossy message delivery, churn,
    and measurement.

    Sequential-action mode implements the paper's analysis model (a central
    scheduler runs one action at a time); timed mode runs each node on its
    own clock, and messages arrive after a latency as discrete events.

    Both modes hold the world as the rows of one {!View.create_rows}
    store, row = node id ({!store}), and step it with the row kernel
    ({!Protocol.initiate_row}/{!Protocol.receive_row}). *)

type t

type scheduling =
  | Poisson of float   (** initiations as a Poisson process with this rate *)
  | Periodic of float  (** fixed period with small jitter *)

(** {2 Audit events}

    An optional audit callback observes every action with enough context to
    re-check the paper's invariants from outside the runner: the initiator's
    outdegree before and after, the duplication decision, and the fate of
    the message.  [Sf_check.Invariant] is the standard consumer. *)

type delivery =
  | Accepted   (** placed in the receiver's view *)
  | Deleted    (** receiver full: both ids dropped *)
  | Lost       (** eaten by the network *)
  | To_dead    (** destination has left *)
  | In_flight  (** timed mode: outcome not yet known *)

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

val set_audit : t -> (t -> audit_event -> unit) option -> unit
(** Install (or clear) the audit callback.  The callback runs after the
    reported transition has fully taken effect. *)

val create :
  ?scenario:Sf_faults.Scenario.t ->
  ?obs:Sf_obs.Obs.t ->
  ?resilience:Sf_resil.Policy.t ->
  seed:int ->
  n:int ->
  loss_rate:float ->
  config:Protocol.config ->
  topology:Topology.t ->
  unit ->
  t
(** Build a system of [n] nodes with the given initial topology: node
    [u]'s view is [topology u], unanchored, born 0, in slot order
    ({!Protocol.install_ids}, which raises [Invalid_argument] on more
    ids than view slots).  All randomness derives from [seed].

    Every send is judged by a {!Sf_faults.Injector} over [scenario] (bursty
    or per-link loss, partitions, crashes, delay spikes, corruption — see
    {!Sf_faults.Scenario}); {!Sf_faults.Scenario.default}, the same as
    omitting it, makes one Bernoulli draw at [loss_rate] per send.  A
    message that survives runs the receive step at once in sequential
    mode; in timed mode it arrives after a latency uniform in [0.5, 1.5)
    times the active delay factor, and is dropped if its destination has
    crashed meanwhile.  The scenario's round clock is [actions / n] in
    sequential mode and virtual time in timed mode; window boundary
    crossings surface as [Structural] audit events so the invariant auditor
    resyncs its conservation baseline.  Raises [Invalid_argument] unless
    [0 <= loss_rate <= 1].

    [obs] is the observability bundle shared by the runner and its fault
    injector: all [runner_*] and [faults_*] metrics land in its registry,
    and — when a tracer is attached —
    protocol events (Send/Drop/Deliver/Duplicate/Delete/Timer/Fault/Mark)
    are recorded, stamped with the injected round clock (sequential mode)
    or virtual time (timed mode).  A private bundle is used when omitted.
    Observation consumes no randomness: instrumented runs replay
    byte-identically.

    [resilience] installs the self-healing layer (lib/resilience): once
    per round — sequential mode only; timed mode has no rounds — the
    runner ticks a {!Sf_resil.Loop} tuner with its world counters,
    makes each retune its live dL (see {!config}), and runs
    {!Sf_resil.Supervisor.step} over the section 5 repair pass
    ({!repair}) under capped jittered backoff; an attempt is confirmed by the next due probe.
    Decisions surface as [resil_*] metrics, [retune]/[repair] trace
    marks, and [Structural] audit events; the [resil_loss_true] gauge is
    the last round's lost over sent, as deltas of {!world_counters}.
    The resilience RNG is split from the root seed after every other
    stream, so omitting the option — or passing
    {!Sf_resil.Policy.observe_only} — replays the unadorned runner
    byte-for-byte. *)

val config : t -> Protocol.config
(** The configuration every node runs: the one given to {!create} until
    a resilience retune moves its dL.  The view size never moves. *)

val action_count : t -> int
(** Initiate steps executed so far. *)

val minted_serials : t -> int
(** Instance serials handed out so far; every serial stored in any view is
    strictly below this bound. *)

val store : t -> View.Flat.t
(** The world: row [u] is node [u]'s view (live: mutated by later
    steps).  Rows of departed nodes, and rows no node has joined yet, are
    empty.  A join past the last row ({!add_node}) replaces the store by
    a larger copy, so re-read it after {!add_node}. *)

val is_live : t -> int -> bool
(** Has this id joined and not left? *)

val live_count : t -> int

val live_ids : t -> int array
(** The live ids in increasing order.  Shared, and replaced (not
    mutated) by every join and leave: do not write to it. *)

val random_live_id : t -> int
(** A uniform live id, drawn from the scheduler stream (the draw that
    picks initiators).  Raises [Invalid_argument] when no node is
    live. *)

val seen_ids : t -> int list array
(** The seen-id caches {!reconnect} probes, indexed by id: recently
    received ids, newest first, deduplicated, at most 32.  Live, and
    replaced with the store by a join that grows it. *)

val simulator : t -> Sf_engine.Sim.t

val is_crashed : t -> int -> bool
(** [true] while the fault scenario holds the id inside an active crash
    window (always [false] without a scenario).  Crashed nodes neither
    initiate nor receive; they resume with their stale views. *)

val fault_statistics : t -> Sf_faults.Injector.stats option
(** Fault-injection counters; [None] unless [scenario] was passed to
    {!create}.  Its [judged] count and drop counts include the request
    and response messages of {!reconnect}'s probes, which
    {!world_counters} leaves out. *)

val run_actions : t -> int -> unit

val run_rounds : t -> int -> unit
(** One round = [live_count t] actions (paper, section 6.5).  When a
    resilience policy is installed, each round is followed by one
    resilience tick (estimator feed, possible retune, possible supervised
    repair). *)

val start_timed : t -> scheduling -> unit
(** Switch to timed mode: every live node initiates on its own clock. *)

val run_until : t -> float -> unit
(** Timed mode: run the event loop to the given virtual time. *)

val add_node : t -> int
(** Join a new node by the section 6.5 joining rule and return its id: a
    random live donor is drawn from the scheduler stream and its view
    copied through {!Protocol.install_copy} — the donor's id, then its
    live ids other than the joiner's in slot order, up to max(2, dL)
    entries of the joiner's dL, padded with the donor's id to that
    count, all anchored at the donor.  Ids are minted in increasing order; a join
    past the store's last row doubles the store, copying every earlier
    row as it is, so {!store} returns a new value afterwards.  Raises
    [Invalid_argument] when no node is live. *)

val remove_node : t -> int -> bool
(** Leave/fail: the node stops participating and its row is cleared; its
    id decays out of other views through normal protocol operation.
    [false] when the id was not live. *)

type reconnect_result =
  | Reconnected of { donor : int; probes : int; installed : int }
  | Exhausted of { probes : int }

val reconnect : t -> node_id:int -> reconnect_result
(** The section 5 reconnection rule: probe previously seen ids, newest
    first, then the current view's.  A probe is a request and a response,
    each judged like a send (loss, partitions and crashes apply) but left
    out of {!world_counters}.  The first live candidate whose request and
    response both arrive is the donor, copied as by {!add_node} with the
    node's own dL.  [installed] is the number of entries written. *)

val rebootstrap : t -> node_id:int -> int
(** Out-of-band recovery (the "copy another node's view" joining rule):
    a donor of the largest live component ({!Overlay.donor}, drawn from
    the scheduler stream) is copied as by {!add_node}, with the node's
    own dL.  Returns the number of installed entries, [0] when no donor
    exists. *)

val is_starved : t -> int -> bool
(** No live id in the node's view (transient while others still hold its
    id; permanent once they do not). *)

val starved_nodes : t -> int list
(** The starved live ids, in increasing order. *)

val probe : t -> Overlay.t
(** The live overlay's weak components ({!Overlay.probe} over {!store}),
    computed in the runner's one {!Overlay.forest}, which grows with the
    store: the result holds until the runner's next probe. *)

val isolated_nodes : t -> int list
(** The live nodes alone in their component ({!Overlay.alone}),
    ascending. *)

val repair : t -> int
(** The section 5 repair pass ({!Overlay.repair} on a fresh {!probe}):
    the root of every live component but the largest {!reconnect}s when
    alone in its component, else {!rebootstrap}s.  Returns the number
    repaired: [0] when the overlay is connected, at least [1] when it is
    split and its largest component holds a node of degree >= 2. *)

val membership_graph : t -> Sf_graph.Digraph.t
(** Snapshot of the global membership multigraph over live nodes (edges to
    departed ids included — they are real view entries). *)

val count_id_instances : t -> int -> int
(** Instances of an id across all live views (decays per Lemma 6.10 after
    the node leaves). *)

type world_counters = {
  actions : int;
  self_loops : int;
  sends : int;
  duplications : int;
  receipts : int;
  deletions : int;
  messages_lost : int;  (** dropped by loss or a fault *)
  to_dead : int;  (** survived loss but found their destination gone *)
}

val world_counters : t -> world_counters
(** Counts since creation.  In sequential mode
    [sends = receipts + messages_lost + to_dead]; in timed mode the
    difference is the messages still in flight. *)

type rates = { duplication : float; deletion : float; loss : float }

val rates_since : t -> world_counters -> rates
(** Per-send duplication/deletion/loss rates since a counter baseline — the
    quantities balanced by Lemma 6.6. *)

(** {2 Resilience} *)

type resilience_stats = Sf_resil.Loop.stats = {
  loss_estimate : float;       (** current smoothed Lemma 6.6 inversion *)
  estimator_confident : bool;  (** at least one full window folded *)
  estimator_windows : int;
  retunes : int;               (** controller decisions applied *)
  repair_attempts : int;       (** supervised repair passes charged *)
  recoveries : int;            (** attempts confirmed by a healthy probe *)
}

val resilience_statistics : t -> resilience_stats option
(** [None] unless a resilience policy was installed at {!create}. *)

(** {2 Million-node scale: the sharded flat-state runner}

    A second execution engine for the same protocol, built for n in the
    10{^4}-10{^6} range: the whole world lives in one {!View.Flat} packed
    store, and rounds run as a bulk-synchronous schedule over a fixed
    number of logical shards that OCaml 5 domains execute in parallel
    between deterministic barriers.

    One round = every node initiates exactly once (phase I, per shard in
    node-id order), a barrier, then every surviving message is delivered
    (phase II, per destination shard; source shards in index order,
    messages in generation order).  Each logical shard draws from its own
    PRNG stream, split from the root seed in shard order, and touches only
    its own nodes' state — so the run is a pure function of
    [(seed, n, config, shards, loss_rate, scenario, churn, resilience)]:
    any [domains] value replays the single-domain run bit-for-bit
    ({!Sharded.equal} is the oracle).

    The full robustness stack runs under the same contract: crash and
    partition windows ({!Sf_faults.Windows}) are refreshed from the round
    clock at the barrier, every send is judged by the injector's verdict
    {!Sf_faults.Windows.judge} on a per-shard stateful loss chain, churn
    turns the population over on per-shard free lists (an extra churn
    phase precedes phase I), and the resilience layer
    estimates/retunes/repairs at the barrier after phase II — see
    {!Sharded.create}. *)

module Sharded : sig
  type t

  type churn = {
    churn_rate : float;
        (** per-round leave probability of each live node.  Every leave
            queues a join in the same shard; a join takes only a slot
            that was free when the round began (a slot freed in a round
            is not reused in that round), and joins left without one
            wait for the next round, placed first.  So the population
            is stationary with [churn_rate] turnover while each shard's
            free slots outnumber its leaves; with less headroom it runs
            up to one round's leaves short. *)
    headroom : int;
        (** extra node slots beyond [n], rounded up to a multiple of the
            shard count and strided across shards ([n + c*S + i] belongs
            to shard [i]); depth of the id-reuse delay *)
  }

  type churn_stats = {
    joins : int;
    leaves : int;
    join_skips : int;
        (** joins skipped because the shard had no live donor left *)
    joins_waiting : int;
        (** joins waiting now for a slot that is free at a round's
            start; placed first in the next round *)
    deliveries_to_dead : int;
        (** messages that arrived at a departed node's slot *)
  }

  type ledger = {
    accepted_duplications : int;
    dropped_non_duplicated : int;
    churn_edges_added : int;
        (** edges installed out of band by joins and rebootstraps *)
    churn_edges_removed : int;
        (** edges cleared out of band by leaves and rebootstraps *)
  }
  (** The extended Lemma 6.6 balance: since creation the edge total has
      moved by exactly [2*accepted_duplications - 2*dropped_non_duplicated
      + churn_edges_added - churn_edges_removed].  Crashes freeze nodes
      but destroy edges only through the messages they drop, so they need
      no term of their own. *)

  type init_topology =
    | Ring
        (** node [u] starts pointing at [u+1 .. u+d0] (mod [n]): the
            historical deterministic start.  Weakly connected, but a 1-D
            cycle — views mix only at random-walk speed, so rumors crawl
            for a long time after creation. *)
    | Scatter
        (** node [u] starts pointing at [d0] hash-scattered non-self ids
            (a pure integer-hash function of [(seed, u, slot)] — no RNG
            stream is consumed, so enabling it cannot perturb the
            per-shard streams).  An expander-like random [d0]-out digraph
            whose views mix in O(log n) rounds — the start
            rumor-spreading workloads need. *)

  val create :
    ?shards:int ->
    ?loss_rate:float ->
    ?init_degree:int ->
    ?init:init_topology ->
    ?scenario:Sf_faults.Scenario.t ->
    ?churn:churn ->
    ?resilience:Sf_resil.Policy.t ->
    ?probe_every:int ->
    seed:int ->
    n:int ->
    config:Protocol.config ->
    unit ->
    t
  (** Build an [n]-node world whose initial topology is [init] (default
      {!Ring}) with uniform outdegree [d0]: [init_degree] (must be even,
      in [2, view_size], below [n]) or an even default between dL and s.
      [shards] (default 16) is the {e logical} shard count — part of the
      world's identity: changing it changes the run, changing the later
      [domains] argument does not.  [loss_rate] must lie in [0, 1).

      [scenario] runs crash/partition windows and stateful loss (the
      Gilbert–Elliott chain state is split per shard, so every domain
      count replays the same run); [Delay]/[Corrupt] windows are
      rejected — the engine has no latency model and no wire bytes.
      [churn] adds per-round join/leave turnover on per-shard free lists.
      [resilience] runs the estimator/controller/supervisor stack at the
      barrier after each round, probing the overlay every [probe_every]
      (default 8) rounds when recovery is enabled.  All three are part of
      the world's identity; omitting them replays the historical
      scenario-free engine bit-for-bit.

      Raises [Invalid_argument] on out-of-range arguments, unsupported
      windows, or [n < 3], and on any window {!Sf_faults.Injector.create}
      rejects, with the same message (see {!Sf_faults.Windows.create}). *)

  val run_round : t -> domains:int -> unit
  (** One bulk-synchronous round: all initiates, barrier, all
      deliveries, barrier.  [domains] is the physical parallelism used
      for this round; the result is identical for every value. *)

  val run_rounds : t -> ?domains:int -> int -> unit
  (** [run_rounds t ~domains r] runs [r] rounds ([domains] defaults
      to 1). *)

  val config : t -> Protocol.config
  (** The configuration in force: the one given to {!create}, with the
      live dL (see {!live_thresholds}). *)

  val capacity : t -> int
  (** Node slots in the store: [n] plus the rounded churn headroom. *)

  val shard_count : t -> int

  val rounds_completed : t -> int
  (** Rounds fully executed so far. *)

  val store : t -> View.Flat.t
  (** The packed world state (live view: mutated by later rounds).  Its
      node count is {!capacity}; dead slots have empty views. *)

  val is_live : t -> int -> bool
  (** Is this node slot currently occupied by a live node?  (Without
      churn, exactly the ids in [0, n).) *)

  val live_count : t -> int
  (** Live nodes across all shards. *)

  val shard_of : t -> int -> int
  (** The shard owning a node slot: [id / chunk] for initial ids,
      [(id - n) mod shard_count] for strided headroom slots.  Layered
      engines (e.g. the dissemination layer) partition their per-node
      state by the same map so owner-only write discipline carries
      over. *)

  val owned : t -> int -> int array
  (** [owned t i]: every node slot shard [i] owns, ascending — the order
      its phases walk them.  The world's own array: read it, never write
      it. *)

  val matrix : t -> int -> Sf_engine.Mailbox.t
  (** [matrix t i], [i] in 0..2: the world's message matrices, kept for
      its whole life so that no round, rumor or layered engine allocates
      buffers once they have grown.  Matrix 0 carries the membership
      phases.  Between rounds all three are lent to an engine layered on
      the world, which may fill them after {!run_round} has drained
      matrix 0.  Every phase clears its row before filling it and drains
      it before the round ends, so a matrix holds nothing between rounds
      and no message passes from one engine to another. *)

  val scenario : t -> Sf_faults.Scenario.t option
  (** The installed fault scenario, if any. *)

  val loss_rate : t -> float
  (** The configured uniform chance-loss probability. *)

  val is_crashed : t -> int -> bool
  (** [true] while some crash window active {e this round} covers the
      id.  Window activity is refreshed once per round at the barrier
      (a pure function of the round clock), so the answer is stable —
      and safe to read from any domain — for the whole round. *)

  val windows : t -> Sf_faults.Windows.t
  (** The world's window state, refreshed at the barrier before each
      round; a layered engine judges its own messages through
      {!Sf_faults.Windows.judge} on it.  Stable per round, like
      {!is_crashed}.  Read it, never {!Sf_faults.Windows.refresh} it. *)

  val total_edges : t -> int
  (** Global outdegree sum, from the store's cached degrees. *)

  val minted : t -> int array
  (** Per-shard mint positions: shard [i] has handed out serials
      [i, i + S, ..., (minted.(i) - 1) * S + i] where [S] is the shard
      count — every serial stored anywhere is one of these. *)

  val ledger : t -> ledger
  (** The full extended edge ledger since creation. *)

  val churn_statistics : t -> churn_stats
  (** Join/leave bookkeeping (all zero without churn). *)

  val fault_statistics : t -> Sf_faults.Injector.stats option
  (** Injector-vocabulary fault evidence — judged sends, chance/burst/
      partition/crash drops, window transitions — or [None] when the
      world runs without a scenario.  Corruptions are always 0 here. *)

  val resilience_statistics : t -> resilience_stats option
  (** Estimator/controller/supervisor state, or [None] when the world
      runs without a resilience policy. *)

  val live_thresholds : t -> int * int
  (** The (dL, s) in force: the live dL, which a retune rewrites at a
      barrier, and the allocated view size, which never moves. *)

  val world_counters : t -> world_counters
  (** Same counter vocabulary as the orchestrated runner, summed over
      shards. *)

  val equal : t -> t -> bool
  (** Bit-for-bit world equality — store contents, round clock, alive
      map, window state, free-list positions, loss-chain states, the
      live dL, every per-shard counter and mint position, and the
      position of every shard's RNG stream and, when both worlds run a
      resilience layer, of its stream.  The determinism oracle for
      domain-count invariance. *)
end
