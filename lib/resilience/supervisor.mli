(** Scheduling state machine for connectivity repairs.

    Engines probe their own health signals (weak connectivity of the
    live overlay, degree-0 nodes) and perform their own repairs (the section 5
    reconnect/rebootstrap rules); the supervisor decides {e when} a probe
    may run, spacing failures out under capped exponential {!Backoff} so
    a sick system is not hammered by its own recovery.  Every engine runs
    the same cycle, {!step}.  All times are in rounds from the caller's
    injected clock. *)

type t

val create : backoff:Backoff.t -> unit -> t

type outcome =
  | Not_due    (** inside a backoff window: nothing probed *)
  | Healthy    (** probed healthy with no attempt pending *)
  | Recovered  (** probed healthy: the pending attempt is confirmed *)
  | Attempted  (** probed sick and repaired: one attempt charged *)

val step : t -> now:float -> (unit -> bool) -> outcome
(** One probe -> attempt -> confirm cycle.  When {!due}, run
    [probe_and_repair], which repairs what it finds and returns whether
    the overlay was already healthy.  A sick probe charges a pending
    attempt ({!record_attempt}); the next due probe that finds the
    overlay healthy confirms it ({!record_success}), and one with nothing
    pending only resets the backoff ({!record_healthy}). *)

val due : t -> now:float -> bool
(** May a probe run now?  Always true while healthy; false inside a
    backoff window. *)

val record_attempt : t -> now:float -> float
(** Charge one repair attempt, pending until {!record_success}, and open
    the next backoff window; returns the drawn delay in rounds (for
    histogram export). *)

val record_success : t -> unit
(** The follow-up probe found the system healthy: count one recovery and
    reset the backoff. *)

val record_healthy : t -> unit
(** A routine probe found nothing to repair: reset any stale backoff. *)

val attempts : t -> int
(** Repair attempts charged so far. *)

val recoveries : t -> int
(** Attempts confirmed successful by a later probe. *)

val last_delay : t -> float
(** The delay drawn by the most recent {!record_attempt} ([0.] before
    any). *)
