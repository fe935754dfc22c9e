(** Runtime fault engine: evaluates a {!Scenario} against a driver clock
    and answers, per message, whether it is delivered, dropped (and why) or
    corrupted — plus whether a node is currently crashed and how much extra
    latency is in force.  Window state and the drop verdict live in
    {!Windows}; the injector adds the clock, the source-crash check,
    corruption and the [faults_*] counters.

    One injector instance is shared by a driver's send path and its
    scheduler ({!Sf_core.Runner}, or {!Sf_net.Driver} and its timer loop),
    so every component sees the same fault state.  Both drivers always
    build one, from {!Scenario.default} when given no scenario.

    {b Determinism.}  The injector owns no randomness: {!judge} draws from
    the RNG the caller passes (the driver's network RNG).  Under
    {!Scenario.default} it performs exactly one Bernoulli draw per send at
    the driver's configured rate — the pre-fault-layer RNG stream,
    byte-for-byte.  Window activation consumes no randomness. *)

type cause =
  | Chance       (** the loss process (i.i.d. draw or Gilbert–Elliott burst) *)
  | Partitioned  (** source and destination sit in different partition blocks *)
  | Crashed      (** source or destination is inside an active crash window *)

type verdict =
  | Deliver
  | Corrupt_payload
      (** deliver a corrupted payload: the cluster flips datagram bytes (the
          codec rejects them at the receiver); the simulator, whose messages
          never leave memory, counts the message as an undecodable drop *)
  | Drop of cause

type stats = {
  judged : int;           (** messages submitted to {!judge} *)
  chance_drops : int;
  burst_drops : int;      (** subset of [chance_drops] drawn in a Bad state *)
  partition_drops : int;
  crash_drops : int;
  corruptions : int;
  fault_transitions : int;  (** window activations + deactivations seen *)
}

type t

val create : ?metrics:Sf_obs.Metrics.t -> scenario:Scenario.t -> n:int -> unit -> t
(** [n] is the initial population size, used to map ids onto partition
    blocks.  The clock defaults to a constant [0.]; drivers must call
    {!set_clock} before running.  [metrics] is the registry receiving the
    [faults_*] counters ({!statistics} reads them back); a private registry
    is used when omitted.  Raises [Invalid_argument] as {!Windows.create}
    does. *)

val set_clock : t -> (unit -> float) -> unit
(** Install the driver's round clock (see {!Scenario} for the unit). *)

val refresh : t -> unit
(** Re-evaluate window activity at the current clock.  Called implicitly by
    every query below; drivers may also call it between sends so boundary
    transitions surface promptly. *)

val transitions : t -> string list
(** Drain the log of boundary crossings since the last call (oldest first),
    e.g. ["fault-start:partition"].  Drivers forward these as structural
    audit events so {!Sf_check.Invariant} resyncs its conservation baseline
    at fault boundaries. *)

val judge : t -> Sf_prng.Rng.t -> chance:float -> src:int -> dst:int -> verdict
(** Decide the fate of one message: {!refresh}, a crashed source, then
    {!Windows.judge} (crashed destination, partition, the loss process),
    then corruption.  [chance] is the driver's configured drop probability
    for this destination (used by the i.i.d. process only). *)

val is_crashed : t -> int -> bool
(** [true] while some active crash window covers the id.  Drivers must not
    let crashed nodes initiate; {!Sf_check.Invariant} flags violations. *)

val crash_active : t -> bool
(** [true] iff some crash window is currently active. *)

val delay_factor : t -> float
(** Product of the factors of all active delay windows ([1.] when none). *)

val statistics : t -> stats
