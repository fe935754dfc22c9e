(** Runtime audit of the paper's invariants.

    Encodes the guarantees the analysis relies on as checkable predicates
    and threads them through a running {!Sf_core.Runner} via its audit
    hook (and {!Sf_engine.Sim.set_monitor} for timed runs):

    - {b M1 / Observation 5.1}: every outdegree stays within [[0, s]], and
      even for systems started from an even topology;
    - {b degree conservation}: a loss-free, non-duplicating action moves
      exactly two edges from sender to receiver (global edge count
      unchanged); duplication adds two, loss/deletion removes two — the
      balance behind Lemma 6.6;
    - {b the dL rule} (section 6.3): an action duplicates iff the sender's
      outdegree was at or below dL at initiation;
    - {b view soundness}: cached degrees match occupied slots, serials are
      globally unique and below the mint bound, birth times never exceed
      the action clock;
    - {b crash discipline} (fault scenarios, {!Sf_faults}): a node inside
      an active crash window neither initiates nor receives.

    Fault windows surface as [Structural] audit events, which resync the
    conservation baseline — the invariants above keep holding under every
    fault the scenario language can express.

    Per-action checks cost O(store rows); full scans cost O(rows × s) and
    run every [scan_every] actions. *)

type mode =
  | Warn    (** log violations via [Logs] and keep counting *)
  | Strict  (** raise {!Violation} on the first one *)

type violation = { invariant : string; detail : string }

exception Violation of violation

val pp_violation : violation Fmt.t

(** {2 Pure checks} *)

val check_view : Sf_core.View.t -> violation option
(** Structural soundness of one view: cached degree = occupied slots.
    Kept for perfbench's cluster workload; the gates use {!check_rows}. *)

val check_rows : config:Sf_core.Protocol.config -> Sf_core.View.Flat.t -> violation list
(** The M1 degree bounds and parity, and the soundness, of every row of a
    store, row [u] = node [u]: a UDP cluster's final views. *)

val check_reports :
  config:Sf_core.Protocol.config -> n:int -> (int * Sf_core.View.entry list) list ->
  violation list
(** The final [(node, entries)] views an [n]-node cluster's hosts reported,
    checked in one store; each violation names its node: a report outside
    [[0, n)] or repeated, a count over s or odd, an entry id outside
    [[0, n)], an entry no view can hold, a missing report, and (all
    reported) each component cut off the largest ({!Sf_core.Overlay}). *)

val scan : Sf_core.Runner.t -> violation list
(** Full structural scan of a system's store ({!Sf_core.Runner.store}):
    M1 bounds and parity against the live config, cached degrees
    against slot recounts, id range, global serial uniqueness, serials
    below {!Sf_core.Runner.minted_serials}, birth stamps within the
    action clock, and emptiness of every row no live node owns.  The
    same walk as {!scan_sharded}.  Empty means every invariant holds. *)

(** {2 Attached audit} *)

type stats = {
  mutable actions_checked : int;
  mutable receipts_seen : int;
  mutable full_scans : int;
  mutable resyncs : int;
  mutable violation_count : int;
  mutable violations : violation list;
      (** newest first; bounded to the first 100 in [Warn] mode *)
}

val attach : ?mode:mode -> ?scan_every:int -> Sf_core.Runner.t -> stats
(** Install the auditor on a runner.  Defaults: [Strict], a full scan every
    1000 actions.  Parity is always required.  Returns live statistics.  Degree
    conservation is only checked while actions are serial; it disarms
    itself when timed-mode deliveries interleave. *)

val detach : Sf_core.Runner.t -> unit
(** Remove the auditor and the sim monitor. *)

val audited_run : ?mode:mode -> ?scan_every:int -> Sf_core.Runner.t -> rounds:int -> stats
(** [attach], run [rounds] sequential rounds, final full scan, [detach]
    (also on exception). *)

(** {2 Sharded flat-state audit}

    The bulk-synchronous {!Sf_core.Runner.Sharded} engine has no
    per-action hook, so its audit moves to round granularity: an edge
    ledger checked after every round, full structural scans at a
    configurable cadence. *)

val scan_sharded : Sf_core.Runner.Sharded.t -> violation list
(** Full structural scan of a packed world, the walk of {!scan}: M1
    bounds and parity, cached degrees against slot recounts, global
    serial uniqueness, the shard-strided serial bound, birth-round
    bounds, id range, and — under churn — emptiness of every dead slot.
    Live views may hold stale references to departed ids (they decay
    through the protocol); dead slots must hold nothing.  Empty means
    every invariant holds.  O(capacity × s). *)

val audited_sharded_run :
  ?mode:mode ->
  ?scan_every:int ->
  ?domains:int ->
  Sf_core.Runner.Sharded.t ->
  rounds:int ->
  stats
(** Run [rounds] bulk-synchronous rounds, checking after each that the
    global edge count moved by exactly [2 × accepted duplications − 2 ×
    dropped non-duplicated messages + churn edges added − churn edges
    removed] (Lemma 6.6's balance at round granularity, extended for
    joins, leaves and supervised rebootstraps — crash and partition drops
    land in the dropped term), with a {!scan_sharded} every [scan_every]
    rounds (default 10) and at the end.  In the returned {!stats},
    [actions_checked] counts audited rounds.  Defaults: [Strict] mode,
    one domain. *)
