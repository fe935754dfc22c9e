(* The reusable UDP driver: every owned node has a datagram socket bound
   to 127.0.0.1 on port [base_port + id], messages travel as actual
   datagrams, and nodes initiate on jittered periodic timers — the
   "practical implementation" the paper sketches in section 5, running on
   a real network stack instead of the discrete-event simulator.

   One driver owns a contiguous *slice* [first, first + count) of a global
   id space of [n] nodes, held as the rows of one view store: row [i] is
   node [first + i], and every step works on (store, row), the way the
   sharded runner holds its world.  A single-process deployment is the
   whole-space slice (the default); a node-host process ({!Nodehost})
   owns one slice while sibling processes own the others, all sharing the
   same port map — the address of node [i] is [base_port + i] no matter
   which process computes it, so datagrams cross process boundaries with
   no routing layer.

   Each owned node's socket is bound once, in [create], and closed only
   by [shutdown].  The loop waits on a fixed fd array — the node sockets
   in node order, then any registered control channels — with a ppoll(2)
   stub ([wait]): wait for readable fds or the next timer, read one
   datagram from each readable socket (sockets are non-blocking), decode
   and run the receive step, then run the initiate steps that have come
   due.  A ready flag maps to its node or channel by its index in the
   array, so no fd is looked up.  Send-side loss injection keeps loss
   experiments controlled even though loopback UDP rarely drops on its
   own.

   The steady-state loop allocates nothing.  The wait writes its ready
   flags into a driver-owned [bytes] and takes its timeout unboxed.  The
   initiate step writes one driver-owned row message
   ([Protocol.initiate_row]), the codec writes it straight into the
   destination's batch buffer ([Codec.write_frame]), and received frames
   decode into a preallocated inbox ([Codec.read_frame]) that
   [Protocol.receive_row] reads.  No float crosses a call in the loop:
   clock readings are stored straight into the unboxed [times] array
   ({!Sf_obs.Clock.wall} is an unboxed primitive), spans take integer
   nanoseconds, and the timer jitter scales an int draw in place.

   Outbound messages queue per destination and leave as {!Codec} batch
   datagrams at the end of each loop iteration (or as soon as a batch
   holds [Codec.max_batch] messages).  Batching draws no randomness, so
   the protocol RNG stream does not depend on it.

   An optional fault scenario (lib/faults) generalizes the send-side loss
   draw exactly as in the simulator; [set_partition_filter] adds the
   cross-process form of a partition window, where a controller tells each
   process which block it is in and the send path drops cross-block
   datagrams.  A crash window stops its nodes from firing and receiving,
   and under resilience also restarts them in place (see the
   crash-restart section); it never touches a socket.  Fire-and-forget
   UDP matches S&F's assumptions exactly: no connection state, no
   retransmission, the sender never learns whether the message
   arrived. *)

(* The loop's clock: the wall clock read through its unboxed primitive,
   or a caller's closure (the virtual clocks of tests). *)
type clock = Wall | Injected of (unit -> float)

(* A datagram held back by an active delay window: release time, sending
   socket, wire bytes, destination. *)
type delayed_datagram = {
  release_at : float;
  via : Unix.file_descr;
  packet : bytes;
  target : Unix.sockaddr;
}

(* An outbound batch under construction: one destination's frames,
   written into the wire buffer as their messages are made, and flushed
   as one datagram through the socket of the node that enqueued the
   first frame. *)
type batch = {
  packet : bytes;               (* Codec.max_datagram_size *)
  mutable destination : int;
  mutable frames : int;
  mutable corrupt : int;        (* bit i set: a corrupt verdict hit frame i *)
  mutable src_index : int;
}

(* A callback run on a schedule by the event loop (heartbeats, probes).
   The times sit in a float-only record, which stores them unboxed, so
   rescheduling allocates nothing. *)
type schedule = { every : float; mutable due_at : float }
type periodic = { schedule : schedule; callback : unit -> unit }

(* Slots of [t.times]. *)
let now_slot = 0        (* the current loop iteration's clock reading *)
let deadline_slot = 1   (* when the current [run] ends *)
let wake_slot = 2       (* the earliest pending event ([next_event]) *)
(* Starts of the three spans being timed (see [observe_since]). *)
let action_slot = 3
let encode_slot = 4
let decode_slot = 5
let time_slots = 6

type t = {
  n_global : int;  (* the full id space *)
  period : float;
  loss_rate : float;
  (* Injected clock: tests drive virtual time; production reads
     [Sf_obs.Clock.wall] — the tree's single sanctioned wall-clock
     source. *)
  clock : clock;
  (* Clock readings and the times derived from them, in seconds, indexed
     by the [*_slot] constants: a float array stores them unboxed. *)
  times : float array;
  started : float;  (* clock reading at creation; trace stamps are rounds
                       since then, matching the injector's round clock *)
  rng : Sf_prng.Rng.t;
  (* Mints the next global serial, [k * stride + offset]: sibling
     processes use stride = process count and distinct offsets, so
     concurrently minted serials never collide across the cluster. *)
  mint : unit -> int;
  (* Judges every datagram; built from [Sf_faults.Scenario.default] when
     no scenario is given, which makes the plain single Bernoulli draw. *)
  injector : Sf_faults.Injector.t;
  faulted : bool;  (* a scenario was passed to [create] *)
  resilience : Sf_resil.Policy.t option;
  (* Cross-process repair scheduling under a recovering policy: see
     [repair_isolated]. *)
  supervisor : Sf_resil.Supervisor.t option;
  first : int;  (* the global id of row 0 *)
  (* The owned nodes' views: row i is node [first + i]. *)
  store : Sf_core.View.Flat.t;
  (* Row i's current thresholds: the cluster config at first, diverging
     under adaptive retuning. *)
  configs : Sf_core.Protocol.config array;
  (* Resilience mode only: an active crash window holds a row down until
     it rejoins. *)
  down : bool array;
  (* Resilience (lib/resilience): one tuner per row, fed only that row's
     counters, since a deployed node has nobody else's; empty without
     resilience.  The counters are cumulative sends, duplications and
     deletions. *)
  tuners : Sf_resil.Loop.tuner array;
  sends : int array;
  duplications : int array;
  deletions : int array;
  next_fire : float array;   (* row i's next initiation, unboxed *)
  addresses : Unix.sockaddr array;  (* the port map: global id -> address *)
  (* The fds the loop waits on: every owned socket in row order (bound in
     [create], closed in [shutdown]), then the control channels oldest
     first.  [ready] holds one flag per fd, written by [wait]. *)
  mutable fds : Unix.file_descr array;
  mutable ready : bytes;
  read_buffer : bytes;
  (* The outbound row message, written by the initiate step. *)
  outbox : Sf_core.Protocol.row_message;
  (* A received batch's CRC-clean frames, in batch order. *)
  inbox : Sf_core.Protocol.row_message array;
  (* Outbound batches: [batches.(0 .. pending - 1)] hold this iteration's
     destinations in first-enqueue order, which is the flush order, and
     [batch_of] maps a destination to its index there (-1: none).  The
     pool only grows, the first time an iteration has more destinations
     than any before it. *)
  mutable batches : batch array;
  mutable pending : int;
  batch_of : int array;
  (* Control channels: the callback of [fds.(count + j)] is
     [channels.(j)], and drains its fd (a node-host's stdin and control
     socket). *)
  mutable channels : (unit -> unit) array;
  mutable periodics : periodic list;
  mutable stop_requested : bool;
  (* Cross-process partition window: with [Some parts], cross-block
     datagrams are dropped at the sender (blocks per the injector's
     partition arithmetic, identical in every process). *)
  mutable filter_parts : int option;
  obs : Sf_obs.Obs.t;
  (* Registry counters (one O(1) increment each, the same cost as the
     mutable int fields they replaced); [statistics] reads them back. *)
  c_sent : Sf_obs.Metrics.counter;
  c_dropped : Sf_obs.Metrics.counter;  (* injected loss (any fault cause) *)
  c_received : Sf_obs.Metrics.counter;
  c_corrupted : Sf_obs.Metrics.counter;
  c_delayed : Sf_obs.Metrics.counter;
  c_crash_dropped : Sf_obs.Metrics.counter;
  c_oversized : Sf_obs.Metrics.counter;
  c_truncated : Sf_obs.Metrics.counter;
  c_decode_errors : Sf_obs.Metrics.counter;
  c_send_errors : Sf_obs.Metrics.counter;
  c_rejoins : Sf_obs.Metrics.counter;  (* crash-restart rejoin recoveries *)
  c_retunes : Sf_obs.Metrics.counter;  (* per-node threshold retunes *)
  c_emitted : Sf_obs.Metrics.counter;  (* datagrams actually sent on the wire *)
  c_messages_received : Sf_obs.Metrics.counter;  (* decoded protocol messages *)
  c_batches : Sf_obs.Metrics.counter;
  c_frames : Sf_obs.Metrics.counter;
  c_crc_rejected : Sf_obs.Metrics.counter;
  c_filtered : Sf_obs.Metrics.counter;
  c_repairs : Sf_obs.Metrics.counter;  (* supervised rebootstrap attempts *)
  (* Codec profiling, timed with the injected clock and observed in
     integer nanoseconds: one frame written, one datagram checked and
     read. *)
  encode_span : Sf_obs.Span.t;
  decode_span : Sf_obs.Span.t;
  (* Whole initiate-action latency (protocol step + encode + sendto). *)
  action_span : Sf_obs.Span.t;
  mutable delayed : delayed_datagram list;
  mutable actions : int;
}

let new_batch () =
  {
    packet = Bytes.create Codec.max_datagram_size;
    destination = -1;
    frames = 0;
    corrupt = 0;
    src_index = 0;
  }

(* The clock reading, in seconds.  Inlined: stored into a float array or
   used in arithmetic, the wall clock's result is never boxed. *)
let[@inline] read = function
  | Wall -> Sf_obs.Clock.wall ()
  | Injected now -> now ()

(* A non-blocking datagram socket bound to [address].  A failing call
   (a port another socket holds: EADDRINUSE) closes the socket before the
   error propagates. *)
let bound_socket address =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  match
    Unix.set_nonblock socket;
    Unix.bind socket address
  with
  | () -> socket
  | exception e ->
    (try Unix.close socket with Unix.Unix_error _ -> ());
    raise e

(* A uniform float in [0, 1): [Rng.float]'s value from an int draw,
   scaled where it is used so no boxed float crosses a call. *)
let[@inline] uniform rng = float_of_int (Sf_prng.Rng.float_bits rng) *. 0x1p-53

let is_crashed t node_id = Sf_faults.Injector.is_crashed t.injector node_id

(* Trace stamps are rounds since creation — the same unit as the
   injector's round clock, and derived from the injected [now] so
   virtual-clock tests stay deterministic.  Call sites test [tracing]
   first, so no event is built while tracing is off. *)
let tracing t = Sf_obs.Obs.tracing t.obs

let trace t event =
  Sf_obs.Obs.trace t.obs ~now:((read t.clock -. t.started) /. t.period) event

let node_count t = Sf_core.View.Flat.node_count t.store

(* --- The joining rule --- *)

(* The row a view is copied from: a live owned sibling of row [i], drawn
   from the protocol stream (8 tries), or -1. *)
let pick_donor t i =
  let rec pick tries =
    if tries = 0 then -1
    else
      let candidate = Sf_prng.Rng.int t.rng (node_count t) in
      if candidate <> i && not t.down.(candidate) then candidate
      else pick (tries - 1)
  in
  pick 8

(* The one install rule with the driver's choice of donor: the paper's
   "copy another node's view" joining rule.  A node cannot see which
   remote ids are alive, so none are filtered. *)
let copy_view t i donor =
  ignore
    (Sf_core.Protocol.install_copy t.store i ~owner:(t.first + i)
       ~donor:(t.first + donor) ~from:t.store ~from_row:donor
       ~dl:t.configs.(i).Sf_core.Protocol.lower_threshold ~live:(fun _ -> true)
       ~born:t.actions ~mint:t.mint)

(* --- Supervised connectivity repair ---

   In a multi-process cluster a node can lose its whole view to causes no
   crash window announces (its neighbours' processes were kill -9'd and
   their views of it decayed).  The probe, a periodic every two firing
   periods, finds owned, live, isolated (degree-0) nodes and rebootstraps
   them from a live sibling's view — the same joining rule as a rejoin —
   with the supervisor spacing attempts under capped backoff and
   confirming recovery on the next due probe. *)

(* One probe pass, scanning the nodes in place: rebootstrap every owned,
   live, isolated node and say whether there was none.  A repair writes
   only its own node's view, so repairing during the scan finds the same
   nodes, and draws the same donors, as finding them all first. *)
let repair_isolated t =
  let healthy = ref true in
  for i = 0 to node_count t - 1 do
    if
      (not t.down.(i))
      && (not (is_crashed t (t.first + i)))
      && Sf_core.View.Flat.degree t.store i = 0
    then begin
      healthy := false;
      let donor = pick_donor t i in
      if donor >= 0 then begin
        copy_view t i donor;
        if tracing t then trace t (Sf_obs.Trace.Mark { label = "rebootstrap" })
      end
    end
  done;
  !healthy

(* [probe] is [repair_isolated t], made once in [create]. *)
let probe_repairs t supervisor probe =
  match
    Sf_resil.Supervisor.step supervisor
      ~now:((t.times.(now_slot) -. t.started) /. t.period)
      probe
  with
  | Sf_resil.Supervisor.Attempted -> Sf_obs.Metrics.incr t.c_repairs
  | Sf_resil.Supervisor.Not_due | Sf_resil.Supervisor.Healthy
  | Sf_resil.Supervisor.Recovered ->
    ()

let create ?(period = 0.01) ?now ?scenario ?obs ?resilience
    ?(first = 0) ?count ?(serial_stride = 1) ?(serial_offset = 0)
    ~base_port ~n ~config ~loss_rate ~seed ~topology () =
  let count = match count with Some c -> c | None -> n - first in
  if n <= 0 then invalid_arg "Driver.create: need at least one node";
  if base_port < 1024 || base_port + n - 1 > 65_535 then
    invalid_arg "Driver.create: port range out of bounds";
  if first < 0 || count < 1 || first + count > n then
    invalid_arg "Driver.create: owned slice outside the id space";
  if serial_stride < 1 || serial_offset < 0 || serial_offset >= serial_stride
  then invalid_arg "Driver.create: bad serial striding";
  let rng = Sf_prng.Rng.create seed in
  let obs = match obs with Some o -> o | None -> Sf_obs.Obs.create () in
  let metrics = Sf_obs.Obs.metrics obs in
  let injector =
    Sf_faults.Injector.create ~metrics
      ~scenario:(Option.value scenario ~default:Sf_faults.Scenario.default)
      ~n ()
  in
  (* The supervisor exists only under a recovering policy, and its jitter
     stream is separate from the protocol RNG: non-recovering runs replay
     byte-identically to drivers that predate the supervisor. *)
  let supervisor =
    Option.bind resilience (fun policy ->
        Sf_resil.Loop.supervisor policy
          ~rng:(Sf_prng.Rng.create (seed lxor 0x5f17)))
  in
  let serials = ref 0 in
  let mint () =
    let k = !serials in
    serials := k + 1;
    (k * serial_stride) + serial_offset
  in
  let addresses =
    Array.init n (fun id -> Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + id))
  in
  let clock = match now with None -> Wall | Some now -> Injected now in
  let span = Sf_obs.Span.create ~clock:(fun () -> read clock) metrics in
  let start = read clock in
  (* One round of the scenario clock = one firing period elapsed.  A
     window-free scenario never reads it. *)
  Sf_faults.Injector.set_clock injector (fun () -> (read clock -. start) /. period);
  let s = config.Sf_core.Protocol.view_size in
  let store = Sf_core.View.create_rows ~nodes:count s in
  let next_fire = Array.make count 0. in
  for i = 0 to count - 1 do
    Sf_core.Protocol.install_ids store i (Array.of_list (topology (first + i))) ~born:0
      ~mint;
    (* Stagger first firings across one period. *)
    next_fire.(i) <- start +. (period *. uniform rng)
  done;
  (* Bound last, so only a bind can fail with sockets open: if row k's
     fails, the k sockets already open must not leak. *)
  let fds = Array.make count Unix.stdin and opened = ref 0 in
  (try
     while !opened < count do
       fds.(!opened) <- bound_socket addresses.(first + !opened);
       incr opened
     done
   with e ->
     for k = 0 to !opened - 1 do
       try Unix.close fds.(k) with Unix.Unix_error _ -> ()
     done;
     raise e);
  let t =
    {
      n_global = n;
      period;
      loss_rate;
      clock;
      times = Array.make time_slots 0.;
      started = start;
      rng;
      mint;
      injector;
      faulted = Option.is_some scenario;
      resilience;
      supervisor;
      first;
      store;
      configs = Array.make count config;
      down = Array.make count false;
      tuners =
        (match resilience with
        | None -> [||]
        | Some policy ->
          Array.init count (fun _ ->
              Sf_resil.Loop.tuner policy
                ~initial:(config.Sf_core.Protocol.lower_threshold, s)
                ~capacity:s ~edges:0));
      sends = Array.make count 0;
      duplications = Array.make count 0;
      deletions = Array.make count 0;
      next_fire;
      addresses;
      fds;
      ready = Bytes.make count '\000';
      read_buffer = Bytes.create Codec.recv_buffer_size;
      outbox = Sf_core.Protocol.row_message ();
      inbox = Array.init Codec.max_batch (fun _ -> Sf_core.Protocol.row_message ());
      batches = Array.init 8 (fun _ -> new_batch ());
      pending = 0;
      batch_of = Array.make n (-1);
      channels = [||];
      periodics = [];
      stop_requested = false;
      filter_parts = None;
      obs;
      c_sent = Sf_obs.Metrics.counter metrics "cluster_datagrams_sent";
      c_dropped = Sf_obs.Metrics.counter metrics "cluster_datagrams_dropped";
      c_received = Sf_obs.Metrics.counter metrics "cluster_datagrams_received";
      c_corrupted = Sf_obs.Metrics.counter metrics "cluster_datagrams_corrupted";
      c_delayed = Sf_obs.Metrics.counter metrics "cluster_datagrams_delayed";
      c_crash_dropped =
        Sf_obs.Metrics.counter metrics "cluster_datagrams_crash_dropped";
      c_oversized = Sf_obs.Metrics.counter metrics "cluster_datagrams_oversized";
      c_truncated = Sf_obs.Metrics.counter metrics "cluster_datagrams_truncated";
      c_decode_errors = Sf_obs.Metrics.counter metrics "cluster_decode_errors";
      c_send_errors = Sf_obs.Metrics.counter metrics "cluster_send_errors";
      c_rejoins = Sf_obs.Metrics.counter metrics "cluster_rejoins";
      c_retunes = Sf_obs.Metrics.counter metrics "cluster_retunes";
      c_emitted = Sf_obs.Metrics.counter metrics "cluster_datagrams_emitted";
      c_messages_received =
        Sf_obs.Metrics.counter metrics "cluster_messages_received";
      c_batches = Sf_obs.Metrics.counter metrics "cluster_batches_sent";
      c_frames = Sf_obs.Metrics.counter metrics "cluster_frames_sent";
      c_crc_rejected =
        Sf_obs.Metrics.counter metrics "cluster_frames_crc_rejected";
      c_filtered = Sf_obs.Metrics.counter metrics "cluster_datagrams_filtered";
      c_repairs = Sf_obs.Metrics.counter metrics "cluster_repair_attempts";
      encode_span = span "codec_encode_seconds";
      decode_span = span "codec_decode_seconds";
      action_span = span "cluster_action_seconds";
      delayed = [];
      actions = 0;
    }
  in
  (* The repair probe, registered before any caller's periodic so it runs
     after them ([add_periodic] puts each new one in front). *)
  Option.iter
    (fun supervisor ->
      let every = 2.0 *. period in
      let probe () = repair_isolated t in
      t.periodics <-
        [
          {
            schedule = { every; due_at = start +. every };
            callback = (fun () -> probe_repairs t supervisor probe);
          };
        ])
    supervisor;
  t

(* Store the clock reading in [t.times.(slot)]. *)
let stamp t slot = t.times.(slot) <- read t.clock

(* Observe the time since [stamp t slot] on [span], handed over in
   integer nanoseconds (the histogram stores seconds). *)
let observe_since t span slot =
  Sf_obs.Span.observe_ns span
    (Float.to_int ((read t.clock -. t.times.(slot)) *. 1e9))

let first t = t.first
let store t = t.store
let actions t = t.actions
let request_stop t = t.stop_requested <- true

let add_channel t fd callback =
  t.fds <- Array.append t.fds [| fd |];
  t.ready <- Bytes.make (Array.length t.fds) '\000';
  t.channels <- Array.append t.channels [| callback |]

let add_periodic t ~every callback =
  t.periodics <-
    { schedule = { every; due_at = read t.clock +. every }; callback }
    :: t.periodics

let set_partition_filter t ~parts =
  (match parts with
  | Some p when p < 2 -> invalid_arg "Driver.set_partition_filter: parts < 2"
  | _ -> ());
  t.filter_parts <- parts

(* The injector's partition block rule, applied locally: every process
   computes the same block for the same id, so the drop decision is
   consistent cluster-wide without coordination. *)
let filtered t ~src ~dst =
  match t.filter_parts with
  | None -> false
  | Some parts ->
    Sf_faults.Windows.block ~n:t.n_global ~parts src
    <> Sf_faults.Windows.block ~n:t.n_global ~parts dst

let shutdown t =
  for i = 0 to node_count t - 1 do
    try Unix.close t.fds.(i) with Unix.Unix_error _ -> ()
  done

let reject t ~dst =
  if tracing t then trace t (Sf_obs.Trace.Deliver { dst; accepted = false })

(* A signal landing mid-sendto must not cost the datagram: retry on EINTR
   (the kernel sent nothing), count everything else as a send error —
   including ECONNREFUSED, which on loopback means a previous datagram
   bounced off a port nobody holds (a killed node-host's). *)
let rec transmit t ~via ~packet ~length ~target =
  match Unix.sendto via packet 0 length [] target with
  | _ -> Sf_obs.Metrics.incr t.c_emitted
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
    transmit t ~via ~packet ~length ~target
  | exception Unix.Unix_error _ -> Sf_obs.Metrics.incr t.c_send_errors

(* --- Outbound batching --- *)

let delay_factor t = Sf_faults.Injector.delay_factor t.injector

let send_batch t (b : batch) =
  let frames = b.frames in
  (* Corrupt verdicts flip one payload byte of their own frame after
     encoding: the receiver's CRC rejects exactly that frame. *)
  for i = 0 to frames - 1 do
    if b.corrupt land (1 lsl i) <> 0 then begin
      Sf_obs.Metrics.incr t.c_corrupted;
      Codec.corrupt_frame b.packet i
    end
  done;
  b.frames <- 0;
  b.corrupt <- 0;
  Sf_obs.Metrics.incr t.c_batches;
  Sf_obs.Metrics.add t.c_frames frames;
  let length = Codec.frame_offset frames in
  let target = t.addresses.(b.destination) in
  let via = t.fds.(b.src_index) in
  let factor = delay_factor t in
  if factor > 1.0 then begin
    (* Loopback latency is negligible, so a delay window holds the
       datagram for [factor] firing periods instead. *)
    Sf_obs.Metrics.incr t.c_delayed;
    t.delayed <-
      {
        release_at = read t.clock +. (factor *. t.period);
        via;
        packet = Bytes.sub b.packet 0 length;
        target;
      }
      :: t.delayed
  end
  else transmit t ~via ~packet:b.packet ~length ~target

let flush_batches t =
  for k = 0 to t.pending - 1 do
    let b = t.batches.(k) in
    (* A batch flushed early at [max_batch] may be empty again. *)
    if b.frames > 0 then send_batch t b;
    t.batch_of.(b.destination) <- -1
  done;
  t.pending <- 0

(* The batch collecting frames for [destination] this iteration. *)
let batch_for t destination =
  match t.batch_of.(destination) with
  | -1 ->
    if t.pending = Array.length t.batches then
      t.batches <-
        Array.append t.batches
          (Array.init (Array.length t.batches) (fun _ -> new_batch ()));
    let k = t.pending in
    t.pending <- k + 1;
    t.batch_of.(destination) <- k;
    let b = t.batches.(k) in
    b.destination <- destination;
    b
  | k -> t.batches.(k)

(* Append the outbound row message to [destination]'s batch as its next
   frame. *)
let enqueue_frame t ~src_index ~destination ~corrupt =
  let b = batch_for t destination in
  if b.frames = 0 then b.src_index <- src_index;
  stamp t encode_slot;
  Codec.write_frame b.packet b.frames t.outbox;
  observe_since t t.encode_span encode_slot;
  if corrupt then b.corrupt <- b.corrupt lor (1 lsl b.frames);
  b.frames <- b.frames + 1;
  if b.frames >= Codec.max_batch then send_batch t b

(* Per-row resilience tick, run after each initiation: the row's tuner
   reads the row's own counters, and a retune becomes the row's config.
   The controller's cooldown is counted in these ticks, i.e. in
   firings. *)
let resil_tick t i =
  if Array.length t.tuners > 0 then
    match
      Sf_resil.Loop.tick t.tuners.(i) ~sends:t.sends.(i)
        ~duplications:t.duplications.(i) ~deletions:t.deletions.(i) ~to_dead:0
        ~edges_added:0 ~edges_removed:0 ~edges:0
    with
    | None -> ()
    | Some pair ->
      t.configs.(i) <-
        Sf_core.Protocol.clamped_config
          ~capacity:(Sf_core.View.Flat.view_size t.store)
          ~degree:(Sf_core.View.Flat.degree t.store i) pair;
      Sf_obs.Metrics.incr t.c_retunes;
      if tracing t then trace t (Sf_obs.Trace.Mark { label = "retune" })

let drop t ~src ~dst ~cause =
  Sf_obs.Metrics.incr t.c_dropped;
  if tracing t then trace t (Sf_obs.Trace.Drop { src; dst; cause })

(* One initiate step at row [i]; the message goes out as a frame of its
   destination's batch unless the loss draw — or an active fault window,
   or the cross-process partition filter — eats it. *)
let fire t i =
  stamp t action_slot;
  let src = t.first + i in
  t.actions <- t.actions + 1;
  if tracing t then trace t (Sf_obs.Trace.Timer { node = src });
  let dst =
    Sf_core.Protocol.initiate_row t.rng t.store i ~owner:src
      ~dl:t.configs.(i).Sf_core.Protocol.lower_threshold ~born:t.actions ~mint:t.mint
      t.outbox
  in
  if dst >= 0 then begin
    t.sends.(i) <- t.sends.(i) + 1;
    if t.outbox.Sf_core.Protocol.duplicated then
      t.duplications.(i) <- t.duplications.(i) + 1;
    Sf_obs.Metrics.incr t.c_sent;
    if tracing t then
      trace t
        (Sf_obs.Trace.Send
           { src; dst; duplicated = t.outbox.Sf_core.Protocol.duplicated });
    if filtered t ~src ~dst then begin
      Sf_obs.Metrics.incr t.c_filtered;
      drop t ~src ~dst ~cause:"filtered"
    end
    else begin
      match Sf_faults.Injector.judge t.injector t.rng ~chance:t.loss_rate ~src ~dst with
      | Sf_faults.Injector.Drop _ -> drop t ~src ~dst ~cause:"injected"
      | (Sf_faults.Injector.Deliver | Sf_faults.Injector.Corrupt_payload) as fate ->
        if dst < t.n_global then
          enqueue_frame t ~src_index:i ~destination:dst
            ~corrupt:(fate = Sf_faults.Injector.Corrupt_payload)
    end
  end;
  observe_since t t.action_span action_slot

let flush_delayed t =
  match t.delayed with
  | [] -> ()
  | delayed ->
    let now = t.times.(now_slot) in
    let due, pending = List.partition (fun d -> d.release_at <= now) delayed in
    t.delayed <- pending;
    (* The list is newest-first; release oldest-first. *)
    List.iter
      (fun d ->
        transmit t ~via:d.via ~packet:d.packet ~length:(Bytes.length d.packet)
          ~target:d.target)
      (List.rev due)

(* One received frame for row [i].  A CRC-clean frame no view can hold is
   forged: undecodable.  A retune never lifts a row's s above the
   store's, so the receive step's [s] is the row's config. *)
let deliver t i msg =
  let dst = t.first + i in
  if not (Sf_core.Protocol.row_fits t.store msg) then begin
    Sf_obs.Metrics.incr t.c_decode_errors;
    reject t ~dst
  end
  else begin
    Sf_obs.Metrics.incr t.c_messages_received;
    if tracing t then trace t (Sf_obs.Trace.Deliver { dst; accepted = true });
    if
      not
        (Sf_core.Protocol.receive_row t.rng t.store i
           ~s:t.configs.(i).Sf_core.Protocol.view_size msg)
    then t.deletions.(i) <- t.deletions.(i) + 1
  end

(* One datagram of [length] bytes in the read buffer, for row [i]: its
   CRC-clean frames decode into the inbox, then each is delivered, in
   batch order.  A down or crashed receiver discards it instead: messages
   arriving during a crash window are lost, not queued for the resume. *)
let receive_datagram t i length =
  let dst = t.first + i in
  if t.down.(i) || is_crashed t dst then begin
    Sf_obs.Metrics.incr t.c_crash_dropped;
    if tracing t then trace t (Sf_obs.Trace.Drop { src = -1; dst; cause = "crash" })
  end
  else begin
    Sf_obs.Metrics.incr t.c_received;
    let buffer = t.read_buffer in
    if length >= Bytes.length buffer then
      (* recv filled the whole buffer, so the datagram may have been
         truncated to it: foreign traffic, larger than anything the codec
         produces. *)
      Sf_obs.Metrics.incr t.c_oversized
    else begin
      stamp t decode_slot;
      let error = Codec.check_batch buffer ~length in
      let frames = match error with None -> Codec.complete_frames ~length | Some _ -> 0 in
      let clean = ref 0 in
      for i = 0 to frames - 1 do
        if Codec.read_frame buffer i t.inbox.(!clean) then incr clean
      done;
      observe_since t t.decode_span decode_slot;
      match error with
      | Some (Codec.Too_short _) ->
        Sf_obs.Metrics.incr t.c_truncated;
        reject t ~dst
      | Some (Codec.Oversized _) -> Sf_obs.Metrics.incr t.c_oversized
      | Some _ ->
        Sf_obs.Metrics.incr t.c_decode_errors;
        reject t ~dst
      | None ->
        if Codec.truncated buffer ~length then begin
          Sf_obs.Metrics.incr t.c_truncated;
          reject t ~dst
        end;
        if frames > !clean then begin
          Sf_obs.Metrics.add t.c_crc_rejected (frames - !clean);
          reject t ~dst
        end;
        for k = 0 to !clean - 1 do
          deliver t i t.inbox.(k)
        done
    end
  end

(* Read one datagram from a readable socket.  A socket with more queued
   stays readable and is served after the next wait, so no read ends in
   the exception [EAGAIN] raises. *)
let receive t i =
  match Unix.recv t.fds.(i) t.read_buffer 0 (Bytes.length t.read_buffer) [] with
  | length -> receive_datagram t i length
  | exception
      Unix.Unix_error
        ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR | Unix.ECONNREFUSED), _, _)
    ->
    (* Nothing read: a spurious wakeup, a signal, or (Linux loopback) a
       pending ICMP port-unreachable for an earlier datagram to a port
       nobody holds (a killed node-host's).  The next wait tells
       whether a datagram is still waiting. *)
    ()

(* --- Crash-restart (resilience mode only) ---

   Without resilience a crash window only freezes the node: its timer
   skips and its arrivals are discarded, which models a paused process
   whose view survives.  With resilience the node also restarts: it is
   down for the window, and at the window's end it rejoins with a reset
   view.  The socket stays bound throughout; the dead address space of
   a real crash is the spawner's kill -9 of a whole node-host. *)

(* The node rejoins with the first max(2, dL) ids of its own view (the
   bound the section 5 joining rule donates) as fresh instances.  The
   view is frozen while the node is down, so these are the ids it held
   when it crashed.  An empty view copies a live neighbour's instead
   (the paper's "copy another node's view" rule). *)
let rejoin t i =
  let degree = Sf_core.View.Flat.degree t.store i in
  if degree = 0 then begin
    let donor = pick_donor t i in
    if donor >= 0 then copy_view t i donor
  end
  else begin
    let keep = max 2 t.configs.(i).Sf_core.Protocol.lower_threshold in
    let ids = Array.init (min keep degree) (Sf_core.View.Flat.id_at t.store i) in
    Sf_core.Protocol.install_ids t.store i ids ~born:t.actions ~mint:t.mint
  end;
  t.down.(i) <- false;
  Sf_obs.Metrics.incr t.c_rejoins;
  if tracing t then trace t (Sf_obs.Trace.Mark { label = "rejoin" })

let sync_crash_states t =
  if Option.is_some t.resilience then
    for i = 0 to node_count t - 1 do
      let crashed = is_crashed t (t.first + i) in
      if crashed && not t.down.(i) then begin
        t.down.(i) <- true;
        if tracing t then trace t (Sf_obs.Trace.Mark { label = "crash_down" })
      end
      else if (not crashed) && t.down.(i) then rejoin t i
    done

(* --- The event loop --- *)

let rec run_periodics t = function
  | [] -> ()
  | p :: rest ->
    let now = t.times.(now_slot) in
    if p.schedule.due_at <= now then begin
      p.schedule.due_at <- now +. p.schedule.every;
      p.callback ()
    end;
    run_periodics t rest

let[@inline] wake_at t at = if at < t.times.(wake_slot) then t.times.(wake_slot) <- at

let rec wake_for_delayed t = function
  | [] -> ()
  | d :: rest ->
    wake_at t d.release_at;
    wake_for_delayed t rest

let rec wake_for_periodics t = function
  | [] -> ()
  | p :: rest ->
    wake_at t p.schedule.due_at;
    wake_for_periodics t rest

(* The earliest pending event, into [t.times.(wake_slot)]: a node's
   timer, a delayed datagram's release or a periodic callback. *)
let next_event t =
  let times = t.times in
  times.(wake_slot) <- infinity;
  wake_for_delayed t t.delayed;
  wake_for_periodics t t.periodics;
  for i = 0 to Array.length t.next_fire - 1 do
    if t.next_fire.(i) < times.(wake_slot) then times.(wake_slot) <- t.next_fire.(i)
  done

(* Wait until one of [fds] is readable or [timeout] seconds pass, and
   flag each readable fd in [ready]: the count of ready fds, or -1 when
   a signal (EINTR) or a transient resource squeeze (EAGAIN) cut the
   wait short.  Allocates nothing; see wait_stubs.c. *)
external wait :
  Unix.file_descr array -> bytes -> (float[@unboxed]) -> (int[@untagged])
  = "sf_net_wait_byte" "sf_net_wait"

(* Serve the fds the last [wait] flagged: the nodes from the highest
   index down, then the channels oldest first.  This is the order the
   loop served them in when it waited with OCaml's select, whose result
   list is built by prepending and so reverses its input.  The receive
   steps draw from the protocol stream in this order, so the replay
   digests pin it. *)
let serve_ready t =
  let ready = t.ready in
  let count = node_count t in
  for i = count - 1 downto 0 do
    if Bytes.get ready i <> '\000' then receive t i
  done;
  for j = 0 to Array.length t.channels - 1 do
    if Bytes.get ready (count + j) <> '\000' then t.channels.(j) ()
  done

(* Run the driver for [duration] wall-clock seconds (or until
   [request_stop], typically from a control-channel callback). *)
let run t ~duration =
  t.stop_requested <- false;
  let times = t.times in
  stamp t now_slot;
  times.(deadline_slot) <- times.(now_slot) +. duration;
  let rec loop () =
    stamp t now_slot;
    let now = times.(now_slot) in
    if now >= times.(deadline_slot) || t.stop_requested then flush_batches t
    else begin
      Sf_faults.Injector.refresh t.injector;
      sync_crash_states t;
      flush_delayed t;
      (* Fire all due timers, rescheduling with jitter.  A down or crashed
         node skips its initiation but keeps its timer running, so it
         resumes when the window closes: rejoined with a reset view
         (resilience) or with its stale one. *)
      for i = 0 to node_count t - 1 do
        if t.next_fire.(i) <= now then begin
          if not (t.down.(i) || is_crashed t (t.first + i)) then begin
            fire t i;
            resil_tick t i
          end;
          t.next_fire.(i) <- now +. (t.period *. (0.9 +. (0.2 *. uniform t.rng)))
        end
      done;
      run_periodics t t.periodics;
      (* Batches queued this iteration leave before the loop sleeps: batch
         latency is bounded by one iteration, not by the fill rate. *)
      flush_batches t;
      next_event t;
      let wake =
        if times.(wake_slot) < times.(deadline_slot) then times.(wake_slot)
        else times.(deadline_slot)
      in
      (* -1: a signal (SIGALRM, SIGTERM via a handler, a profiler tick)
         interrupting the wait is routine, not an error, and EAGAIN is a
         transient resource squeeze.  Both mean "try again" — the
         deadline/stop check at the loop head bounds the retry. *)
      if wait t.fds t.ready (if wake > now then wake -. now else 0.) > 0 then
        serve_ready t;
      loop ()
    end
  in
  loop ()

(* --- Measurement (mirrors the simulator's monitors) --- *)

let views t =
  Seq.init (node_count t) (fun i -> (t.first + i, Sf_core.View.copy_row t.store i))

let outdegree_summary t =
  let summary = Sf_stats.Summary.create () in
  for i = 0 to node_count t - 1 do
    Sf_stats.Summary.add_int summary (Sf_core.View.Flat.degree t.store i)
  done;
  summary

let independence_census t = Sf_core.Census.of_views (views t)

let is_weakly_connected t =
  let g = Sf_graph.Digraph.create () in
  for i = 0 to node_count t - 1 do
    let u = t.first + i in
    Sf_graph.Digraph.ensure_vertex g u;
    for slot = 0 to Sf_core.View.Flat.degree t.store i - 1 do
      Sf_graph.Digraph.add_edge g u (Sf_core.View.Flat.id_at t.store i slot)
    done
  done;
  Sf_graph.Digraph.is_weakly_connected g

let fault_statistics t =
  if t.faulted then Some (Sf_faults.Injector.statistics t.injector) else None

type statistics = {
  actions : int;
  datagrams_sent : int;
  datagrams_dropped : int;
  datagrams_received : int;
  datagrams_corrupted : int;
  datagrams_delayed : int;
  datagrams_crash_dropped : int;
  datagrams_oversized : int;
  datagrams_truncated : int;
  decode_errors : int;
  send_errors : int;
  rejoins : int;
  retunes : int;
  datagrams_emitted : int;
  messages_received : int;
  batches_sent : int;
  frames_sent : int;
  frames_crc_rejected : int;
  datagrams_filtered : int;
  repair_attempts : int;
  recoveries : int;
}

let statistics (t : t) =
  let count = Sf_obs.Metrics.count in
  {
    actions = t.actions;
    datagrams_sent = count t.c_sent;
    datagrams_dropped = count t.c_dropped;
    datagrams_received = count t.c_received;
    datagrams_corrupted = count t.c_corrupted;
    datagrams_delayed = count t.c_delayed;
    datagrams_crash_dropped = count t.c_crash_dropped;
    datagrams_oversized = count t.c_oversized;
    datagrams_truncated = count t.c_truncated;
    decode_errors = count t.c_decode_errors;
    send_errors = count t.c_send_errors;
    rejoins = count t.c_rejoins;
    retunes = count t.c_retunes;
    datagrams_emitted = count t.c_emitted;
    messages_received = count t.c_messages_received;
    batches_sent = count t.c_batches;
    frames_sent = count t.c_frames;
    frames_crc_rejected = count t.c_crc_rejected;
    datagrams_filtered = count t.c_filtered;
    repair_attempts = count t.c_repairs;
    recoveries =
      (match t.supervisor with
      | None -> 0
      | Some sup -> Sf_resil.Supervisor.recoveries sup);
  }

(* Per-action latency quantile (seconds) from the action span histogram;
   [nan] before any action. *)
let action_latency_quantile t q =
  Sf_obs.Metrics.quantile (Sf_obs.Span.histogram t.action_span) q
