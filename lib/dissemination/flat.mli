(** The flat-state spreading engine: rumor rounds layered on the sharded
    million-node runner ({!Sf_core.Runner.Sharded}).

    The engine owns no membership state.  It reads the world through its
    public surface (packed store, liveness, round-stable crash/partition
    windows, each shard's owned slots) and keeps its spread state indexed
    by node id, as the world's store is: an infection byte per node slot
    and the Direct rings of every slot ({!Rings}).  Per shard it keeps an
    RNG stream, a loss-chain instance and a counter array; messages
    travel through the world's {!Sf_engine.Mailbox} matrices
    ({!Sf_core.Runner.Sharded.matrix}), so creating an engine builds no
    message buffer.  A shard writes the
    state only of slots it owns, so the owner-only write discipline
    carries over and any [domains] value replays the single-domain run
    bit-for-bit ({!equal} is the oracle).  Its RNG streams split from its
    {e own} seed, so attaching a spread to a world leaves the membership
    replay bit-for-bit unchanged.

    One spreading round = one membership round of the world, then a
    bulk-synchronous spread schedule: generate (census + emit, verdicts
    judged at send time with the sending shard's RNG), barrier, deliver
    (source shards in index order, rows in generation order; push-pull
    responses judged with the responder shard's RNG), barrier, and — for
    push-pull — a response-delivery phase. *)

type t

val create :
  ?coverage_target:float ->
  ?fanout:int ->
  ?metrics:Sf_obs.Metrics.t ->
  strategy:Strategy.t ->
  source:int ->
  seed:int ->
  Sf_core.Runner.Sharded.t ->
  t
(** Attach a spread of one rumor, known initially by [source], to a
    world.  [coverage_target] defaults to 0.99, [fanout] to 2; [seed]
    derives the engine's own per-shard RNG streams.  [metrics] receives
    the [spread_coverage] gauge (a private registry when omitted).

    Raises [Invalid_argument] for [fanout < 1], a [coverage_target]
    outside (0, 1], or a [source] that is not live. *)

val run_round : t -> domains:int -> unit
(** One spreading round (advances the world one membership round first).
    [domains] is the physical parallelism; the result is identical for
    every value. *)

val run : ?max_rounds:int -> domains:int -> t -> Report.t
(** Run rounds until the coverage target is reached or [max_rounds]
    (default 200) {e total} rounds have run, then {!report}. *)

val report : t -> Report.t
(** The run's accounting so far (callable at any point). *)

val world : t -> Sf_core.Runner.Sharded.t

val reached : t -> bool
(** The coverage target has been reached. *)

val infected_count : t -> int
(** Informed {e live} nodes right now (infection bits of departed slots
    are cleared as the census passes them). *)

val equal : t -> t -> bool
(** Bit-for-bit engine equality: {!Sf_core.Runner.Sharded.equal} on the
    worlds plus every piece of spread state (infection bytes, counters,
    Direct rings, loss-chain positions, RNG stream positions, coverage
    history).  The
    domain-count determinism oracle for spreading runs. *)
