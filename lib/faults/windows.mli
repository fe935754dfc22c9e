(** Fault-window state and the per-message verdict, shared by every
    engine.

    A value holds which windows of a scenario are active at the last
    {!refresh}, and answers the round-stable queries on that state: is an
    id crashed, are two ids partitioned apart, how much delay is in force.
    {!judge} decides one message in the fixed order destination crash →
    partition → loss process.  {!Injector.judge}, the sharded runner and
    the rumor engine all judge through it, so the order is written once.

    {!refresh} is the only writer of window state.  The sharded runner
    calls it at the round barrier, so the queries are safe to read from
    any domain during a phase.  Nothing here draws randomness except the
    loss process inside {!judge} and the corruption trial of {!corrupts}. *)

type t

val create : n:int -> Scenario.window list -> t
(** All windows start inactive.  [n] is the initial population, the base
    of the partition blocks.  Raises [Invalid_argument] unless [n > 0],
    and on any window {!Scenario.validate_window} rejects (with its
    message). *)

val refresh : t -> now:float -> unit
(** Set each window active iff [start <= now < stop].  Every flip counts
    as a transition and is logged for {!drain}. *)

val transitions : t -> int
(** Window activations plus deactivations since creation. *)

val drain : t -> string list
(** The flips logged since the last call, oldest first, e.g.
    ["fault-start:partition"]. *)

val equal : t -> t -> bool
(** Same activity flag on every window and the same transition count. *)

val block : n:int -> parts:int -> int -> int
(** The partition block of an id: contiguous blocks of [[0, n)]; ids
    outside it (joiners) wrap by [id mod n]. *)

val crashed : t -> int -> bool
(** Some active crash window covers the id. *)

val partitioned : t -> src:int -> dst:int -> bool
(** Some active partition window puts [src] and [dst] in different
    blocks.  A negative [src] (a sender outside the id space) is never
    partitioned. *)

type fate = Pass | Crashed | Partitioned | Lost

val judge :
  t -> Loss.t -> Sf_prng.Rng.t -> chance:float -> src:int -> dst:int -> fate
(** One message: [Crashed] when the destination is crashed, else
    [Partitioned], else [Lost] when {!Loss.drop} drops it, else [Pass].
    Only the loss step draws.  Crashed {e sources} are the caller's to
    exclude: engines do not let them initiate.  Allocates nothing. *)

val corrupts : t -> Sf_prng.Rng.t -> bool
(** One trial at the highest active corruption rate; no draw when no
    corruption window is active. *)

val crash_active : t -> bool
(** Some crash window is active. *)

val delay_factor : t -> float
(** Product of the active delay factors ([1.] when none). *)
