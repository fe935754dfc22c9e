(** The reusable UDP driver behind every real S&F deployment: one
    datagram socket per owned node on the loopback interface, jittered
    periodic initiations, send-side fault injection, all in one event
    loop that allocates nothing in its steady state.

    A driver owns a contiguous slice [first, first + count) of a global id
    space of [n] nodes, all sharing one port map (node [i] lives at
    [base_port + i] in whichever process owns it).  The default slice is
    the whole space in one process; {!Nodehost} wraps a slice in a
    controllable process of its own.  The slice's views are the rows of
    one store ({!store}): row [i] is node [first + i].

    The loop waits on all of a driver's sockets and channels with one
    ppoll(2) call, which scans every fd per wake: a multi-process
    cluster composes slices to reach thousands of sockets. *)

type t

val create :
  ?period:float ->
  ?now:(unit -> float) ->
  ?scenario:Sf_faults.Scenario.t ->
  ?obs:Sf_obs.Obs.t ->
  ?resilience:Sf_resil.Policy.t ->
  ?first:int ->
  ?count:int ->
  ?serial_stride:int ->
  ?serial_offset:int ->
  base_port:int ->
  n:int ->
  config:Sf_core.Protocol.config ->
  loss_rate:float ->
  seed:int ->
  topology:Sf_core.Topology.t ->
  unit ->
  t
(** Bind UDP sockets on 127.0.0.1 ports [base_port + first .. base_port +
    first + count - 1] (the owned slice; [first] defaults to 0 and [count]
    to [n - first], i.e. the whole space) and seed the owned views from
    [topology], which maps {e global} ids and must be identical in every
    process of a multi-process cluster.  [period] is the mean time between
    a node's initiations in seconds (default 10 ms).  [loss_rate] is
    injected at the sender (loopback UDP rarely drops on its own).  [now]
    is the clock driving timers and deadlines, in seconds; inject a
    virtual clock to make runs time-deterministic in tests.  When it is
    omitted the driver reads {!Sf_obs.Clock.wall} through its unboxed
    primitive, so a reading allocates nothing; an injected closure is
    called as given and returns a boxed float.

    Messages leave as {!Codec} batch datagrams.  Each destination of a
    loop iteration gets a batch buffer from a preallocated pool of
    {!Codec.max_datagram_size}-byte buffers, and {!Codec.write_frame}
    writes each message into it as the initiate step makes it.  Buffers
    flush in first-enqueue order at the end of the iteration, or as soon
    as one holds {!Codec.max_batch} frames.  A corrupt verdict flips one
    byte of the message's own frame, so the receiver counts it in
    [frames_crc_rejected].  Received frames decode into a preallocated
    inbox, so the steady-state loop builds no boxed message either way.
    Raises [Invalid_argument] when [n < 1], when a port falls outside
    [1024, 65535], when the slice leaves the id space or when the serial
    striding is inconsistent.

    [serial_stride]/[serial_offset] stride the minted serials
    ([k * stride + offset]): sibling processes use stride = process count
    and distinct offsets so concurrently minted serials never collide
    cluster-wide.

    [obs] is the observability bundle: all [cluster_*] counters, the
    [codec_*_seconds] spans (one frame written, one datagram checked and
    read) and the [cluster_action_seconds] per-action latency histogram
    land in its registry (a private one when omitted).  The spans are
    timed with [now], handed to {!Sf_obs.Span.observe_ns} as whole
    nanoseconds (truncated) and stored in seconds.

    [scenario] routes every datagram through the same fault plan the
    simulator uses ({!Sf_faults.Scenario}); one round of the scenario
    clock = one firing [period] elapsed.  Omitting it is the same as
    {!Sf_faults.Scenario.default}: one Bernoulli draw at [loss_rate] per
    datagram.  Without [resilience] a crash
    window freezes its nodes: no initiations, arrivals discarded, views
    kept.  [resilience] installs the self-healing layer: per-node
    estimator/controller retuning; crash-restarts, where a node is down
    for its window and rejoins at its end with the first max(2, dL) ids
    of its view as fresh instances (a copy of a live sibling's view when
    it has none); and — when the policy's [recover] is set — a repair
    probe every two periods that rebootstraps isolated (degree-0) owned
    nodes from a live sibling's view under capped backoff.

    Each socket is bound once, here, and closed by {!shutdown}; crash
    windows never touch it.  A port
    another socket holds fails the bind with [Unix_error (EADDRINUSE, _,
    _)].  If any socket operation fails mid-construction, every socket
    already opened is closed before the exception propagates. *)

val node_count : t -> int
(** Owned nodes (the slice size). *)

val first : t -> int
(** The global id of the slice's first node. *)

val store : t -> Sf_core.View.Flat.t
(** The live views of the owned nodes: row [i] is node [first t + i].
    Reports read it in place, and so do the {!Sf_core.Properties}
    monitors and {!Sf_core.Census.of_flat}, which take row [u] as node
    [u]: they read a driver of [first = 0].  A test may edit it before a
    run. *)

val actions : t -> int
(** Initiate actions so far: [statistics]'s [actions] without building
    the record (a heartbeat reads it). *)

val live_dl : t -> int -> int
(** [live_dl t i]: owned row [i]'s live dL, which its initiations and
    rejoins read.  It starts at the config's and moves only when the
    row's own tuner retunes. *)

val run : t -> duration:float -> unit
(** Drive the loop for [duration] seconds of the injected clock, or until
    {!request_stop}.  Each wake reads at most one datagram from each
    readable socket; a socket with more queued stays readable and is
    served on the following iterations.  A signal interrupting the wait
    is retried after its handler runs, so a handler's {!request_stop}
    ends the run at once.  Raises [Unix.Unix_error (EBADF, _, _)] if a
    socket or channel was closed under it (after {!shutdown}, say). *)

val request_stop : t -> unit
(** Make the current {!run} return at its next loop head (idempotent;
    typically called from a control-channel callback or signal handler). *)

val add_channel : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Add [fd] to the fds the loop waits on; the callback must drain it (it
    runs once per wake that finds [fd] readable, after the wake's
    datagrams, channels in the order they were added).  This is how a
    node-host listens to stdin and its control socket without a second
    loop. *)

val add_periodic : t -> every:float -> (unit -> unit) -> unit
(** Run a callback every [every] seconds of the injected clock while the
    loop runs (heartbeats, progress reports). *)

val set_partition_filter : t -> parts:int option -> unit
(** The cross-process form of a partition window: with [Some parts] the
    send path drops datagrams crossing block boundaries, blocks computed
    from global ids by the injector's partition arithmetic (identical in
    every process, so no coordination is needed).  [None] heals.  Raises
    [Invalid_argument] when [parts < 2]. *)

val shutdown : t -> unit
(** Close every owned socket. *)

val is_crashed : t -> int -> bool
(** [true] while the fault scenario holds the id inside an active crash
    window (always [false] without a scenario). *)

val fault_statistics : t -> Sf_faults.Injector.stats option
(** Fault-injection counters; [None] unless [scenario] was passed to
    {!create}. *)

type statistics = {
  actions : int;
  datagrams_sent : int;           (** protocol messages offered to the wire *)
  datagrams_dropped : int;        (** send-side injected loss, any fault cause *)
  datagrams_received : int;       (** datagrams arriving at owned sockets *)
  datagrams_corrupted : int;      (** sent with flipped bytes (corrupt windows) *)
  datagrams_delayed : int;        (** held back by a delay window *)
  datagrams_crash_dropped : int;  (** discarded on arrival at a down or crashed node *)
  datagrams_oversized : int;      (** longer than the wire format allows *)
  datagrams_truncated : int;      (** shorter than their layout declares *)
  decode_errors : int;
      (** undecodable datagrams (magic/version/kind/count), plus CRC-clean
          frames with an id or anchor that {!Sf_core.View.fits} refuses *)
  send_errors : int;
  rejoins : int;                  (** crash-restart recoveries (resilience mode) *)
  retunes : int;                  (** per-node dL retunes (resilience mode) *)
  datagrams_emitted : int;        (** datagrams actually sent (batches coalesce) *)
  messages_received : int;        (** decoded protocol messages (frames add up) *)
  batches_sent : int;             (** batch datagrams *)
  frames_sent : int;              (** messages carried inside those batches *)
  frames_crc_rejected : int;      (** single frames rejected by their CRC *)
  datagrams_filtered : int;       (** dropped by the cross-process partition filter *)
  repair_attempts : int;          (** supervised rebootstrap attempts *)
  recoveries : int;               (** repair attempts confirmed by a later probe *)
}

val statistics : t -> statistics
(** Thin reads of the registry counters (plus the action count). *)

val action_latency_quantile : t -> float -> float
(** Quantile (in seconds) of the per-initiate-action latency histogram;
    [nan] before any action fires. *)
