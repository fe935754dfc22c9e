(** Point-to-point messaging with uniform i.i.d. loss (the paper's loss
    model). Messages to unregistered destinations model sends to
    failed/departed nodes. *)

type 'msg t

type statistics = {
  messages_sent : int;
  messages_delivered : int;
  messages_lost : int;
  messages_to_dead_nodes : int;
}

val default_latency : Sf_prng.Rng.t -> float
(** Uniform latency in [0.5, 1.5) time units. *)

val create :
  ?latency:(Sf_prng.Rng.t -> float) ->
  ?destination_loss:(int -> float) ->
  ?injector:Sf_faults.Injector.t ->
  ?obs:Sf_obs.Obs.t ->
  sim:Sim.t ->
  rng:Sf_prng.Rng.t ->
  loss_rate:float ->
  unit ->
  'msg t
(** [destination_loss] overrides the uniform [loss_rate] with a
    per-destination drop probability — the non-uniform loss regime the
    paper's section 4.1 mentions but leaves unanalyzed. [loss_rate] remains
    the nominal mean reported by {!loss_rate}.

    [injector] routes every send through a fault scenario (bursty loss,
    partitions, crashes, delay spikes, corruption — see {!Sf_faults}).
    Without one — or with {!Sf_faults.Scenario.default} — the send path
    performs the historical single Bernoulli draw per message, so
    fault-free runs replay byte-identically.

    [obs] is the observability bundle receiving the [net_*] counters and
    (when a tracer is attached) Send/Drop/Deliver trace records stamped
    with virtual time; a private bundle is used when omitted.  Observation
    consumes no randomness, so instrumented runs replay byte-identically
    too. *)

val register : 'msg t -> int -> ('msg -> unit) -> unit
(** Attach the receive handler of a (live) node. *)

val unregister : 'msg t -> int -> unit
(** Detach a node's handler — the node has left or failed. *)

val is_registered : 'msg t -> int -> bool

val loss_rate : 'msg t -> float

val set_trace_clock : 'msg t -> (unit -> float) -> unit
(** Override the clock stamping trace records (default: the virtual
    clock).  The sequential runner installs its action-count round clock
    so one trace dump never mixes time units. *)

val send : 'msg t -> ?src:int -> ?duplicated:bool -> dst:int -> 'msg -> unit
(** Fire-and-forget asynchronous send; lost with probability [loss_rate]
    (or per the fault injector), otherwise delivered after a latency draw.
    [src] identifies the sender to the injector's partition and crash
    checks; the default [-1] is exempt from them.  [duplicated] annotates
    the Send trace record (the protocol layer owns the decision). *)

val send_immediate :
  'msg t -> ?src:int -> ?duplicated:bool -> dst:int -> 'msg -> bool
(** Sequential-action send: runs the receive step synchronously. Returns
    [true] iff delivered to a live handler. *)

val statistics : 'msg t -> statistics

val observed_loss_rate : 'msg t -> float
