(** Discrete-event simulation core: virtual clock + event queue of thunks. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time. *)

val executed_events : t -> int

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Schedule a thunk [delay] after the current time. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit

val stop : t -> unit
(** Request the run loop to stop after the current event. *)

val set_monitor : t -> (unit -> unit) option -> unit
(** Install (or clear) a hook that runs after every executed event — the
    attachment point for runtime audits such as [Sf_check.Invariant]. *)

val pending : t -> int
(** Number of queued events. *)

type outcome = Drained | Reached_horizon | Budget_exhausted | Stopped

val run : ?horizon:float -> ?max_events:int -> t -> outcome
(** Execute events in time order until the queue drains, the next event lies
    beyond [horizon], [max_events] have run, or {!stop} is called. *)
