(** The single ambient time source in the tree.

    All other modules receive clocks by injection (an explicit
    [unit -> float] or a virtual clock like [Sf_engine.Sim.now]); the
    sf_lint [clock-discipline] rule enforces that wall/process clocks are
    opened only here.  Drivers that default to real time (the UDP cluster,
    bench timing) take their default from {!wall}. *)

external wall : unit -> (float[@unboxed])
  = "caml_unix_gettimeofday" "caml_unix_gettimeofday_unboxed"
[@@noalloc]
(** The wall clock, in seconds since the epoch: [Unix.gettimeofday]'s own
    primitive, so a native call returns the reading unboxed and allocates
    nothing.  Passed as a value ([~clock:Clock.wall]) it is an ordinary
    [unit -> float] closure that boxes each reading. *)

val cpu : unit -> float
(** Per-process CPU seconds ([Sys.time]): preferred for overhead ratios,
    which wall time misstates whenever another process preempts the run. *)

val stopwatch : clock:(unit -> float) -> unit -> float
(** [stopwatch ~clock] samples [clock] now and returns a thunk yielding
    the elapsed amount on each call. *)

val peak_rss_kb : unit -> int option
(** Peak resident set size of this process in kB (the kernel's VmHWM
    high-water mark); [None] where /proc/self/status is unavailable. *)
