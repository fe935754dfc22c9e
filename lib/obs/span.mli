(** Span timers: profile a named section into a per-span histogram.

    The clock is {e injected} at creation ({!Clock.wall} for real cost,
    a virtual clock for simulated time), keeping instrumented libraries
    free of ambient clocks. *)

type t

val create : clock:(unit -> float) -> Metrics.t -> string -> t
(** Get-or-create the histogram named [name] in the registry and attach
    the clock to it. *)

val histogram : t -> Metrics.histogram

val time : t -> (unit -> 'a) -> 'a
(** Run the thunk, observing its duration (clock units) even when it
    raises. *)

val observe_ns : t -> int -> unit
(** Record an externally measured duration, given in integer nanoseconds
    and stored in seconds (the unit of a wall-clock {!time}).  An int
    argument is never boxed, so a native call allocates nothing. *)
