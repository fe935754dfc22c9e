(** Online loss estimation by inverting the Lemma 6.6 rate balance.

    In a steady S&F system the per-send rates satisfy
    [duplication = loss + deletion] (paper, Lemma 6.6).  Duplications and
    deletions are locally observable protocol events while loss is not, so

      [loss ~= duplications/sends - deletions/sends]

    estimates the effective loss rate — chance drops, burst drops and
    partition drops alike — from signals a deployed node already has.
    Windowed, EWMA-smoothed, allocation-free and randomness-free.

    {2 Churn correction}

    The bare inversion assumes every edge enters and leaves the overlay
    through a send.  Churn breaks that: join/rebootstrap bootstraps
    install edges out of band, leaves clear whole views, and sends to
    departed slots vanish producing neither a duplication nor a
    deletion, so the bare estimate is biased (it read low in the PR 8
    chaos runs).  Classifying each send as exactly one of {lost,
    to-dead, deleted, accepted}, the round-granular edge conservation
    ledger of the sharded engine reads, exactly,

      [delta_edges = 2 dup - 2 (lost + to_dead + del) + added - removed]

    and solving for the loss rate yields

      [loss ~= (dup - del - to_dead
                + (added - removed - delta_edges)/2) / sends]

    where [delta_edges] — the change in the total edge count over the
    window, a sum of locally observable view-size changes — absorbs the
    warm-up and fault transients that break the steady-state
    [delta_edges = 0] assumption.  Feed the ledger deltas through
    {!observe}'s correction arguments to apply it; zeros reproduce the
    bare inversion exactly. *)

type t

val create : ?window:int -> ?smoothing:float -> unit -> t
(** [window] is the number of sends per estimation window (default 2000);
    [smoothing] the EWMA weight of each fresh window in (0, 1] (default
    0.3).  The first completed window initializes the estimate directly. *)

val observe :
  t ->
  sends:int ->
  duplications:int ->
  deletions:int ->
  to_dead:int ->
  churn_edges_added:int ->
  churn_edges_removed:int ->
  edge_delta:int ->
  unit
(** Feed counter {e deltas} since the previous call.  Whenever a full
    window of sends completes, its inverted rate — clamped into [0, 0.99]
    — folds into the smoothed estimate; a large delta can complete several
    windows.  Raises [Invalid_argument] on negative deltas.

    [to_dead] is the count of sends delivered to departed slots,
    [churn_edges_added]/[churn_edges_removed] the out-of-band edge flux of
    joins, leaves and rebootstraps (the sharded engine's ledger terms), and
    [edge_delta] the signed change in the total edge count over the delta —
    the only argument allowed to be negative.  With all four [0] this is
    the bare Lemma 6.6 inversion.  No argument is optional, so a call
    allocates nothing unless it completes a window; {!Loop.tick} is the
    engines' one caller. *)

val estimate : t -> float
(** The current smoothed loss estimate in [0, 0.99]; [0.] before the
    first window completes (see {!confident}). *)

val confident : t -> bool
(** At least one full window has been folded. *)

val windows : t -> int
(** Completed windows so far. *)
