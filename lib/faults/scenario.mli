(** Declarative, deterministic fault plans.

    A scenario is a loss process plus a list of timed fault windows.  The
    same value drives both the discrete-event simulator
    ({!Sf_core.Runner}) and the real UDP cluster ({!Sf_net.Driver}), so a
    fault experiment validated in simulation replays unchanged on real
    sockets.

    {2 Time}

    Window bounds are in {e rounds}, the paper's time unit (one round = one
    expected action per node).  Each driver supplies its own clock mapping
    to {!Injector.set_clock}: the sequential runner counts [actions / n],
    the timed runner uses virtual time (Poisson rate 1 ≈ one round per time
    unit), and the UDP cluster counts elapsed wall time over its firing
    period.

    {2 Textual syntax}

    [of_string] parses semicolon-separated items:

    - [iid] — the driver's configured uniform loss (the default);
    - [ge:MEAN:BURST] — Gilbert–Elliott bursty loss with stationary mean
      [MEAN] and mean burst length [BURST] sends;
    - [partition\@A-B:K] — from round [A] to round [B], drop every message
      between different blocks of a [K]-way split of the id space;
    - [crash\@A-B:LO-HI] — nodes [LO..HI] freeze at round [A] (no
      initiations, all messages to them dropped) and resume at round [B]
      with their stale views;
    - [delay\@A-B:F] — deliveries take [F]× the normal latency;
    - [corrupt\@A-B:R] — surviving messages are corrupted with probability
      [R] (the cluster flips datagram bytes to drive the codec error path;
      the simulator counts them as undecodable drops).

    Example:
    [ge:0.2:8;partition\@10-20:2;crash\@25-35:0-9;delay\@40-45:4;corrupt\@50-55:0.01] *)

type fault =
  | Partition of { parts : int }
      (** [K]-way split into contiguous blocks of the initial id space;
          ids beyond it (joiners) are mapped by [id mod n] *)
  | Crash of { first : int; last : int }  (** freeze node ids in [first..last] *)
  | Delay of { factor : float }           (** latency multiplier, > 0 *)
  | Corrupt of { rate : float }           (** per-message corruption probability *)

type window = { start : float; stop : float; fault : fault }
(** Half-open activity interval [[start, stop)] in rounds. *)

type t = { loss : Loss.model; windows : window list }

val default : t
(** [{ loss = Iid; windows = [] }] — drivers given this scenario behave
    byte-identically (same RNG stream, same results) to drivers given no
    scenario at all. *)

val make : ?loss:Loss.model -> ?windows:window list -> unit -> t
(** Validating constructor.  Raises [Invalid_argument] on a malformed
    window (negative times, [stop <= start], [parts < 2], [last < first],
    non-positive delay factor, corruption rate outside [0,1]), or when two
    crash windows overlap in time {e and} their node ranges intersect.
    Same-class windows without a node range may overlap freely: active
    partitions compose by OR, delay factors multiply, corruption takes the
    max. *)

val of_string : string -> (t, string) result
(** Parse the textual syntax above.  At most one loss item is allowed.
    Every window passes through {!validate_window} (and the crash-overlap
    check of {!make}), so parsed and programmatically built scenarios
    share one validation path and one set of error messages. *)

val to_string : t -> string
(** Render a scenario back to the textual syntax ([Per_link] loss, which
    carries a closure, renders as ["per-link"] and does not re-parse). *)

val pp : t Fmt.t

val fault_kind : fault -> string
(** ["partition"], ["crash"], ["delay"] or ["corrupt"]. *)

val validate_window : window -> unit
(** Raise [Invalid_argument] on a malformed window (see {!make}). *)
