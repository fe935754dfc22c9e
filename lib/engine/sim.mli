(** Discrete-event simulation core: virtual clock + event queue of thunks. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Schedule a thunk [delay] after the current time. *)

val set_monitor : t -> (unit -> unit) option -> unit
(** Install (or clear) a hook that runs after every executed event — the
    attachment point for runtime audits such as [Sf_check.Invariant]. *)

type outcome = Drained | Reached_horizon | Budget_exhausted

val run : ?horizon:float -> ?max_events:int -> t -> outcome
(** Execute events in time order until the queue drains, the next event lies
    beyond [horizon], or [max_events] have run. *)
