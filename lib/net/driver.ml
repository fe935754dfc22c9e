(* The reusable UDP select-loop driver: every owned node has a datagram
   socket bound to 127.0.0.1 on port [base_port + id], messages travel as
   actual datagrams, and nodes initiate on jittered periodic timers — the
   "practical implementation" the paper sketches in section 5, running on
   a real network stack instead of the discrete-event simulator.

   One driver owns a contiguous *slice* [first, first + count) of a global
   id space of [n] nodes.  A single-process deployment is the whole-space
   slice (the default); a node-host process ({!Nodehost}) owns one slice
   while sibling processes own the others, all sharing the same port map
   — the address of node [i] is [base_port + i] no matter which process
   computes it, so datagrams cross process boundaries with no routing
   layer.

   The loop multiplexes all owned sockets (plus any registered control
   channels) with [Unix.select]: wait for readable fds or the next timer,
   drain datagrams (sockets are non-blocking), decode and run the receive
   step, then run the initiate steps that have come due.  Send-side loss
   injection keeps loss experiments controlled even though loopback UDP
   rarely drops on its own.

   Outbound messages queue per destination and leave as {!Codec} batch
   datagrams at the end of each loop iteration (or as soon as a queue
   holds [Codec.max_batch] messages).  Batching draws no randomness, so
   the protocol RNG stream does not depend on it.

   An optional fault scenario (lib/faults) generalizes the send-side loss
   draw exactly as in the simulator; [set_partition_filter] adds the
   cross-process form of a partition window, where a controller tells each
   process which block it is in and the send path drops cross-block
   datagrams.  Fire-and-forget UDP matches S&F's assumptions exactly: no
   connection state, no retransmission, the sender never learns whether
   the message arrived. *)

type node_state = {
  node : Sf_core.Protocol.node;
  (* Mutable: a crash-restart closes the socket for the duration of the
     window and rebinds a fresh one on the same port at resume. *)
  mutable socket : Unix.file_descr;
  mutable next_fire : float;
  (* The node's current thresholds; starts at the cluster config and
     diverges under adaptive retuning. *)
  mutable config : Sf_core.Protocol.config;
  (* Resilience (lib/resilience): each node tunes from its own protocol
     counters — a deployed node has nobody else's. *)
  tuner : Sf_resil.Loop.tuner option;
  (* Crash-restart bookkeeping (resilience mode only). *)
  mutable down : bool;       (* socket closed by an active crash window *)
  mutable snapshot : int list;  (* bounded view snapshot taken at crash *)
}

(* A datagram held back by an active delay window: release time, sending
   socket, wire bytes, destination. *)
type delayed_datagram = {
  release_at : float;
  via : Unix.file_descr;
  packet : bytes;
  target : Unix.sockaddr;
}

(* An outbound batch under construction: messages for one destination
   accumulated within a loop iteration, flushed as one datagram.  The
   sender is remembered as a node index (not a socket) so a crash-rebind
   between enqueue and flush cannot leak a closed fd. *)
type pending_batch = {
  mutable items : (Sf_core.Protocol.message * bool) list;  (* rev; flag = corrupt *)
  mutable batched : int;
  src_index : int;
}

(* A callback run on a schedule by the event loop (heartbeats, probes). *)
type periodic = {
  every : float;
  mutable due_at : float;
  callback : unit -> unit;
}

type t = {
  base_port : int;
  n_global : int;  (* the full id space; owned slice is [first, first+count) *)
  first : int;
  period : float;
  loss_rate : float;
  (* Global serials are minted as [k * stride + offset]: sibling processes
     use stride = process count and distinct offsets, so concurrently
     minted serials never collide across the cluster. *)
  serial_stride : int;
  serial_offset : int;
  (* Injected clock: tests drive virtual time; production uses
     [Sf_obs.Clock.wall] — the tree's single sanctioned wall-clock
     source. *)
  now : unit -> float;
  started : float;  (* clock reading at creation; trace stamps are rounds
                       since then, matching the injector's round clock *)
  rng : Sf_prng.Rng.t;
  injector : Sf_faults.Injector.t option;
  resilience : Sf_resil.Policy.t option;
  (* Cross-process repair scheduling under a recovering policy: see
     [probe_repairs]. *)
  supervisor : Sf_resil.Supervisor.t option;
  mutable next_probe : float;
  nodes : node_state array;  (* index i holds global id [first + i] *)
  (* Bumped whenever a socket is closed or rebound, so the run loop knows
     to rebuild its select set. *)
  mutable socket_generation : int;
  read_buffer : bytes;
  (* Outbound batches: per-destination queues plus first-enqueue order
     so flushes are deterministic. *)
  pending : (int, pending_batch) Hashtbl.t;
  mutable pending_order : int list;  (* rev *)
  (* Control channels: extra fds in the select set, each draining itself
     via its callback (a node-host's stdin and control socket). *)
  mutable channels : (Unix.file_descr * (unit -> unit)) list;
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
  (* Codec profiling, timed with the injected clock. *)
  encode_span : Sf_obs.Span.t;
  decode_span : Sf_obs.Span.t;
  (* Whole initiate-action latency (protocol step + encode + sendto). *)
  action_span : Sf_obs.Span.t;
  mutable delayed : delayed_datagram list;
  mutable next_serial : int;
  mutable actions : int;
}

let address_of t node_id =
  Unix.ADDR_INET (Unix.inet_addr_loopback, t.base_port + node_id)

let fresh_serial t =
  let s = t.next_serial in
  t.next_serial <- s + 1;
  (s * t.serial_stride) + t.serial_offset

let create ?(period = 0.01) ?(now = Sf_obs.Clock.wall) ?scenario ?obs ?resilience
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
    Option.map
      (fun sc -> Sf_faults.Injector.create ~metrics ~scenario:sc ~n ())
      scenario
  in
  (* The supervisor exists only under a recovering policy, and its jitter
     stream is separate from the protocol RNG: non-recovering runs replay
     byte-identically to drivers that predate the supervisor. *)
  let supervisor =
    Option.bind resilience (fun policy ->
        Sf_resil.Loop.supervisor policy
          ~rng:(Sf_prng.Rng.create (seed lxor 0x5f17)))
  in
  let start = now () in
  let t =
    {
      base_port;
      n_global = n;
      first;
      period;
      loss_rate;
      serial_stride;
      serial_offset;
      now;
      started = start;
      rng;
      injector;
      resilience;
      supervisor;
      next_probe = start +. (2.0 *. period);
      nodes = [||];
      socket_generation = 0;
      read_buffer = Bytes.create Codec.recv_buffer_size;
      pending = Hashtbl.create 64;
      pending_order = [];
      channels = [];
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
      encode_span = Sf_obs.Span.create ~clock:now metrics "codec_encode_seconds";
      decode_span = Sf_obs.Span.create ~clock:now metrics "codec_decode_seconds";
      action_span =
        Sf_obs.Span.create ~clock:now metrics "cluster_action_seconds";
      delayed = [];
      next_serial = 0;
      actions = 0;
    }
  in
  (* One round of the scenario clock = one firing period elapsed. *)
  Option.iter
    (fun inj ->
      Sf_faults.Injector.set_clock inj (fun () -> (now () -. start) /. period))
    injector;
  (* Track every socket opened so far: if node k's bind (or anything after
     it) fails, the k sockets already open must not leak. *)
  let opened = ref [] in
  let make_node node_id =
    let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
    opened := socket :: !opened;
    Unix.set_nonblock socket;
    Unix.setsockopt socket Unix.SO_REUSEADDR true;
    Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + node_id));
    let node = Sf_core.Protocol.create_node ~config ~node_id in
    Sf_core.Protocol.install_ids node.Sf_core.Protocol.view 0
      (Array.of_list (topology node_id))
      ~born:0 ~mint:(fun () -> fresh_serial t);
    {
      node;
      socket;
      (* Stagger first firings across one period. *)
      next_fire = start +. (period *. Sf_prng.Rng.float rng);
      config;
      tuner =
        Option.map
          (fun policy ->
            Sf_resil.Loop.tuner policy
              ~initial:
                ( config.Sf_core.Protocol.lower_threshold,
                  config.Sf_core.Protocol.view_size )
              ~capacity:config.Sf_core.Protocol.view_size ~edges:0)
          resilience;
      down = false;
      snapshot = [];
    }
  in
  match Array.init count (fun i -> make_node (first + i)) with
  | nodes -> { t with nodes }
  | exception e ->
    List.iter
      (fun socket -> try Unix.close socket with Unix.Unix_error _ -> ())
      !opened;
    raise e

let node_count t = Array.length t.nodes
let owned_range t = (t.first, Array.length t.nodes)
let request_stop t = t.stop_requested <- true
let add_channel t fd callback = t.channels <- (fd, callback) :: t.channels

let add_periodic t ~every callback =
  t.periodics <-
    { every; due_at = t.now () +. every; callback } :: t.periodics

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
  Array.iter
    (fun ns -> try Unix.close ns.socket with Unix.Unix_error _ -> ())
    t.nodes

let is_crashed t node_id =
  match t.injector with
  | None -> false
  | Some injector -> Sf_faults.Injector.is_crashed injector node_id

(* Trace stamps are rounds since creation — the same unit as the
   injector's round clock, and derived from the injected [now] so
   virtual-clock tests stay deterministic. *)
let trace t event =
  if Sf_obs.Obs.tracing t.obs then
    Sf_obs.Obs.trace t.obs ~now:((t.now () -. t.started) /. t.period) event

(* A signal landing mid-sendto must not cost the datagram: retry on EINTR
   (the kernel sent nothing), count everything else as a send error —
   including ECONNREFUSED, which on loopback means a previous datagram
   bounced off a closed (crashed or killed) port. *)
let rec transmit t ~via ~packet ~target =
  match Unix.sendto via packet 0 (Bytes.length packet) [] target with
  | _ -> Sf_obs.Metrics.incr t.c_emitted
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> transmit t ~via ~packet ~target
  | exception Unix.Unix_error _ -> Sf_obs.Metrics.incr t.c_send_errors

(* --- Outbound batching --- *)

let delay_factor t =
  match t.injector with
  | None -> 1.0
  | Some injector -> Sf_faults.Injector.delay_factor injector

(* The socket a queued batch leaves through: the enqueuing node's unless a
   crash window closed it mid-iteration, then any live sibling's. *)
let live_socket t src_index =
  let ns = t.nodes.(src_index) in
  if not ns.down then Some ns.socket
  else
    Array.fold_left
      (fun acc ns -> match acc with Some _ -> acc | None when not ns.down -> Some ns.socket | None -> None)
      None t.nodes

let flush_destination t destination (q : pending_batch) =
  Hashtbl.remove t.pending destination;
  let items = List.rev q.items in
  match
    Sf_obs.Span.time t.encode_span (fun () ->
        Codec.encode_batch (List.map fst items))
  with
  | [ packet ] -> (
    (* Corrupt verdicts flip one payload byte of their own frame after
       encoding: the receiver's CRC rejects exactly that frame. *)
    List.iteri
      (fun i (_, corrupt) ->
        if corrupt then begin
          Sf_obs.Metrics.incr t.c_corrupted;
          Codec.corrupt_frame packet i
        end)
      items;
    Sf_obs.Metrics.incr t.c_batches;
    Sf_obs.Metrics.add t.c_frames q.batched;
    match live_socket t q.src_index with
    | None -> Sf_obs.Metrics.incr t.c_send_errors
    | Some via ->
      let factor = delay_factor t in
      if factor > 1.0 then begin
        (* Loopback latency is negligible, so a delay window holds the
           datagram for [factor] firing periods instead. *)
        Sf_obs.Metrics.incr t.c_delayed;
        t.delayed <-
          {
            release_at = t.now () +. (factor *. t.period);
            via;
            packet;
            target = address_of t destination;
          }
          :: t.delayed
      end
      else transmit t ~via ~packet ~target:(address_of t destination))
  | _ ->
    (* Queues flush at [max_batch], so the encoder cannot split. *)
    assert false

let flush_batches t =
  match t.pending_order with
  | [] -> ()
  | order ->
    t.pending_order <- [];
    List.iter
      (fun destination ->
        match Hashtbl.find_opt t.pending destination with
        | Some q -> flush_destination t destination q
        | None -> ())  (* flushed early at max_batch; entry is stale *)
      (List.rev order)

let enqueue_frame t (ns : node_state) ~destination ~message ~corrupt =
  let q =
    match Hashtbl.find_opt t.pending destination with
    | Some q -> q
    | None ->
      let q =
        {
          items = [];
          batched = 0;
          src_index = ns.node.Sf_core.Protocol.node_id - t.first;
        }
      in
      Hashtbl.add t.pending destination q;
      t.pending_order <- destination :: t.pending_order;
      q
  in
  q.items <- (message, corrupt) :: q.items;
  q.batched <- q.batched + 1;
  if q.batched >= Codec.max_batch then flush_destination t destination q

(* Per-node resilience tick, run after each initiation: the node's tuner
   reads its own counters, and a retune becomes the node's config.  The
   controller's cooldown is counted in these ticks, i.e. in firings. *)
let resil_tick t (ns : node_state) =
  match ns.tuner with
  | None -> ()
  | Some tuner -> (
    let node = ns.node in
    match
      Sf_resil.Loop.tick tuner ~sends:node.Sf_core.Protocol.messages_sent
        ~duplications:node.Sf_core.Protocol.duplications
        ~deletions:node.Sf_core.Protocol.deletions ~to_dead:0 ~edges_added:0
        ~edges_removed:0 ~edges:0
    with
    | None -> ()
    | Some pair ->
      ns.config <-
        Sf_core.Protocol.clamped_config
          ~capacity:(Sf_core.View.size node.Sf_core.Protocol.view)
          ~degree:(Sf_core.Protocol.degree node) pair;
      Sf_obs.Metrics.incr t.c_retunes;
      trace t (Sf_obs.Trace.Mark { label = "retune" }))

(* One initiate step at [ns]; the message goes out as a datagram (or joins
   a batch) unless the loss draw — or an active fault window, or the
   cross-process partition filter — eats it. *)
let fire_inner t ns =
  t.actions <- t.actions + 1;
  trace t (Sf_obs.Trace.Timer { node = ns.node.Sf_core.Protocol.node_id });
  match
    Sf_core.Protocol.initiate ns.config t.rng ~fresh_serial:(fun () -> fresh_serial t)
      ~clock:t.actions ns.node
  with
  | Sf_core.Protocol.Self_loop -> ()
  | Sf_core.Protocol.Send { destination; message; duplicated } -> (
    let src = ns.node.Sf_core.Protocol.node_id in
    Sf_obs.Metrics.incr t.c_sent;
    trace t (Sf_obs.Trace.Send { src; dst = destination; duplicated });
    if filtered t ~src ~dst:destination then begin
      Sf_obs.Metrics.incr t.c_filtered;
      Sf_obs.Metrics.incr t.c_dropped;
      trace t (Sf_obs.Trace.Drop { src; dst = destination; cause = "filtered" })
    end
    else
      let verdict =
        match t.injector with
        | None ->
          if Sf_prng.Rng.bernoulli t.rng t.loss_rate then `Drop else `Deliver
        | Some injector -> (
          match
            Sf_faults.Injector.judge injector t.rng ~chance:t.loss_rate ~src
              ~dst:destination
          with
          | Sf_faults.Injector.Deliver -> `Deliver
          | Sf_faults.Injector.Corrupt_payload -> `Corrupt
          | Sf_faults.Injector.Drop _ -> `Drop)
      in
      match verdict with
      | `Drop ->
        Sf_obs.Metrics.incr t.c_dropped;
        trace t (Sf_obs.Trace.Drop { src; dst = destination; cause = "injected" })
      | (`Deliver | `Corrupt) as fate ->
        if destination >= 0 && destination < t.n_global then
          enqueue_frame t ns ~destination ~message ~corrupt:(fate = `Corrupt))

let fire t ns = Sf_obs.Span.time t.action_span (fun () -> fire_inner t ns)

let flush_delayed t ~now =
  match t.delayed with
  | [] -> ()
  | delayed ->
    let due, pending = List.partition (fun d -> d.release_at <= now) delayed in
    t.delayed <- pending;
    (* The list is newest-first; release oldest-first. *)
    List.iter
      (fun d -> transmit t ~via:d.via ~packet:d.packet ~target:d.target)
      (List.rev due)

(* Drain every pending datagram on a readable socket.  A crashed receiver
   discards instead of processing: messages arriving during the window are
   lost, not queued for the resume. *)
let drain t ns =
  let continue = ref true in
  while !continue do
    match Unix.recvfrom ns.socket t.read_buffer 0 (Bytes.length t.read_buffer) [] with
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
      (* Linux loopback: a pending ICMP port-unreachable (our earlier
         datagram to a crashed node's closed port) can surface here; it
         carries no datagram, so keep draining. *)
      ()
    | length, _ ->
      let dst = ns.node.Sf_core.Protocol.node_id in
      if is_crashed t dst then begin
        Sf_obs.Metrics.incr t.c_crash_dropped;
        trace t (Sf_obs.Trace.Drop { src = -1; dst; cause = "crash" })
      end
      else begin
        Sf_obs.Metrics.incr t.c_received;
        if length >= Bytes.length t.read_buffer then
          (* recvfrom filled the whole buffer, so the datagram may have
             been truncated to it: foreign traffic, larger than anything
             the codec produces. *)
          Sf_obs.Metrics.incr t.c_oversized
        else
          let deliver (message : Sf_core.Protocol.message) =
            let view = ns.node.Sf_core.Protocol.view in
            (* A CRC-clean frame no view can hold is forged: undecodable. *)
            if not (Sf_core.View.fits view message.reinforcement
                    && Sf_core.View.fits view message.mixing) then begin
              Sf_obs.Metrics.incr t.c_decode_errors;
              trace t (Sf_obs.Trace.Deliver { dst; accepted = false })
            end
            else begin
              Sf_obs.Metrics.incr t.c_messages_received;
              trace t (Sf_obs.Trace.Deliver { dst; accepted = true });
              ignore (Sf_core.Protocol.receive ns.config t.rng ns.node message)
            end
          in
          match
            Sf_obs.Span.time t.decode_span (fun () ->
                Codec.decode_datagram t.read_buffer ~length)
          with
          | Ok (Codec.Batch batch) ->
            if batch.Codec.truncated then begin
              Sf_obs.Metrics.incr t.c_truncated;
              trace t (Sf_obs.Trace.Deliver { dst; accepted = false })
            end;
            if batch.Codec.bad_crc > 0 then begin
              Sf_obs.Metrics.add t.c_crc_rejected batch.Codec.bad_crc;
              trace t (Sf_obs.Trace.Deliver { dst; accepted = false })
            end;
            List.iter deliver batch.Codec.messages
          | Error (Codec.Too_short _) ->
            Sf_obs.Metrics.incr t.c_truncated;
            trace t (Sf_obs.Trace.Deliver { dst; accepted = false })
          | Error (Codec.Oversized _) -> Sf_obs.Metrics.incr t.c_oversized
          | Error _ ->
            Sf_obs.Metrics.incr t.c_decode_errors;
            trace t (Sf_obs.Trace.Deliver { dst; accepted = false })
      end
  done

(* --- Crash-restart with state recovery (resilience mode only) ---

   Without resilience a crash window only freezes the node (timers skip,
   arrivals are discarded) — the socket stays bound and the view survives,
   which models a paused process.  With resilience the crash is real:
   entering the window saves a bounded snapshot of the view (up to dL ids,
   the same bound the section 5 joining rule donates) and closes the
   socket, so in-flight datagrams bounce off a dead port; leaving it
   rebinds a fresh socket on the same port and rejoins by reinstalling the
   snapshot as fresh instances — falling back to copying a live
   neighbour's view (the paper's "copy another node's view" rule) when the
   snapshot is empty. *)

let crash_down t (ns : node_state) =
  let keep = max 2 ns.config.Sf_core.Protocol.lower_threshold in
  ns.snapshot <-
    List.filteri (fun i _ -> i < keep) (Sf_core.View.ids ns.node.Sf_core.Protocol.view);
  (try Unix.close ns.socket with Unix.Unix_error _ -> ());
  ns.down <- true;
  t.socket_generation <- t.socket_generation + 1;
  trace t (Sf_obs.Trace.Mark { label = "crash_down" })

(* The donor a view is copied from: a live owned sibling, drawn from the
   protocol stream (8 tries), or [None]. *)
let pick_donor t ~node_id =
  let n = Array.length t.nodes in
  let rec pick tries =
    if tries = 0 then None
    else
      let candidate = t.nodes.(Sf_prng.Rng.int t.rng n) in
      if candidate.node.Sf_core.Protocol.node_id <> node_id && not candidate.down
      then Some candidate
      else pick (tries - 1)
  in
  pick 8

(* The one install rule with the driver's choice of donor: the paper's
   "copy another node's view" joining rule.  A node cannot see which
   remote ids are alive, so none are filtered. *)
let copy_view t (ns : node_state) (donor : node_state) =
  let node = ns.node in
  ignore
    (Sf_core.Protocol.install_copy node.Sf_core.Protocol.view 0
       ~owner:node.Sf_core.Protocol.node_id
       ~donor:donor.node.Sf_core.Protocol.node_id
       ~from:donor.node.Sf_core.Protocol.view ~from_row:0
       ~dl:ns.config.Sf_core.Protocol.lower_threshold ~live:(fun _ -> true)
       ~born:t.actions ~mint:(fun () -> fresh_serial t))

let rejoin t (ns : node_state) =
  let node_id = ns.node.Sf_core.Protocol.node_id in
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.set_nonblock socket;
  Unix.setsockopt socket Unix.SO_REUSEADDR true;
  Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_loopback, t.base_port + node_id));
  ns.socket <- socket;
  (* Rejoin with the crash snapshot, else a copy of a live neighbour's view. *)
  (match ns.snapshot with
  | [] -> Option.iter (copy_view t ns) (pick_donor t ~node_id)
  | ids ->
    Sf_core.Protocol.install_ids ns.node.Sf_core.Protocol.view 0 (Array.of_list ids)
      ~born:t.actions ~mint:(fun () -> fresh_serial t));
  ns.down <- false;
  ns.snapshot <- [];
  t.socket_generation <- t.socket_generation + 1;
  Sf_obs.Metrics.incr t.c_rejoins;
  trace t (Sf_obs.Trace.Mark { label = "rejoin" })

let sync_crash_states t =
  if Option.is_some t.resilience then
    Array.iter
      (fun ns ->
        let crashed = is_crashed t ns.node.Sf_core.Protocol.node_id in
        if crashed && not ns.down then crash_down t ns
        else if (not crashed) && ns.down then rejoin t ns)
      t.nodes

(* --- Supervised connectivity repair ---

   In a multi-process cluster a node can lose its whole view to causes no
   crash window announces (its neighbours' processes were kill -9'd and
   their views of it decayed).  The probe finds owned, live, isolated
   (degree-0) nodes and rebootstraps them from a live sibling's view — the
   same joining rule as a rejoin — with the supervisor spacing probes
   under capped backoff and confirming recovery on the next due probe. *)

let probe_repairs t ~now =
  match t.supervisor with
  | Some supervisor when now >= t.next_probe -> (
    t.next_probe <- now +. (2.0 *. t.period);
    let probe_and_repair () =
      let isolated =
        Array.to_list t.nodes
        |> List.filter (fun ns ->
               (not ns.down)
               && (not (is_crashed t ns.node.Sf_core.Protocol.node_id))
               && Sf_core.Protocol.degree ns.node = 0)
      in
      List.iter
        (fun ns ->
          match pick_donor t ~node_id:ns.node.Sf_core.Protocol.node_id with
          | None -> ()
          | Some donor ->
            copy_view t ns donor;
            trace t (Sf_obs.Trace.Mark { label = "rebootstrap" }))
        isolated;
      isolated = []
    in
    match
      Sf_resil.Supervisor.step supervisor
        ~now:((now -. t.started) /. t.period)
        probe_and_repair
    with
    | Sf_resil.Supervisor.Attempted -> Sf_obs.Metrics.incr t.c_repairs
    | Sf_resil.Supervisor.Not_due | Sf_resil.Supervisor.Healthy
    | Sf_resil.Supervisor.Recovered ->
      ())
  | Some _ | None -> ()

(* Run the driver for [duration] wall-clock seconds (or until
   [request_stop], typically from a control-channel callback). *)
let run t ~duration =
  t.stop_requested <- false;
  let deadline = t.now () +. duration in
  (* The select set excludes crashed (closed) sockets and is rebuilt
     whenever a crash-restart closes or rebinds one. *)
  let select_set () =
    let by_socket = Hashtbl.create (Array.length t.nodes) in
    let sockets =
      Array.to_list t.nodes
      |> List.filter_map (fun ns ->
             if ns.down then None
             else begin
               Hashtbl.replace by_socket ns.socket ns;
               Some ns.socket
             end)
    in
    (sockets, by_socket)
  in
  let generation = ref t.socket_generation in
  let index = ref (select_set ()) in
  let rec loop () =
    let now = t.now () in
    if now >= deadline || t.stop_requested then flush_batches t
    else begin
      (match t.injector with
      | None -> ()
      | Some injector -> Sf_faults.Injector.refresh injector);
      sync_crash_states t;
      if t.socket_generation <> !generation then begin
        generation := t.socket_generation;
        index := select_set ()
      end;
      flush_delayed t ~now;
      (* Fire all due timers, rescheduling with jitter.  A crashed node
         skips its initiation but keeps its timer running, so it resumes —
         restored from its snapshot (resilience) or with its stale view —
         when the window closes. *)
      Array.iter
        (fun ns ->
          if ns.next_fire <= now then begin
            if not (is_crashed t ns.node.Sf_core.Protocol.node_id) then begin
              fire t ns;
              resil_tick t ns
            end;
            ns.next_fire <-
              now +. (t.period *. (0.9 +. (0.2 *. Sf_prng.Rng.float t.rng)))
          end)
        t.nodes;
      List.iter
        (fun p ->
          if p.due_at <= now then begin
            p.due_at <- now +. p.every;
            p.callback ()
          end)
        t.periodics;
      probe_repairs t ~now;
      (* Batches queued this iteration leave before the loop sleeps: batch
         latency is bounded by one iteration, not by the fill rate. *)
      flush_batches t;
      let next_timer =
        Array.fold_left (fun acc ns -> Float.min acc ns.next_fire) infinity t.nodes
      in
      let next_release =
        List.fold_left (fun acc d -> Float.min acc d.release_at) infinity t.delayed
      in
      let next_periodic =
        List.fold_left (fun acc p -> Float.min acc p.due_at) infinity t.periodics
      in
      let next_probe =
        match t.supervisor with None -> infinity | Some _ -> t.next_probe
      in
      let next_event =
        Float.min (Float.min next_timer next_release)
          (Float.min next_periodic next_probe)
      in
      let timeout = Float.max 0. (Float.min (next_event -. now) (deadline -. now)) in
      let sockets, by_socket = !index in
      let fds =
        List.rev_append (List.rev_map fst t.channels) sockets
      in
      (* EINTR: a signal (SIGALRM, SIGTERM via a handler, a profiler tick)
         interrupting the wait is routine, not an error; EAGAIN is how some
         kernels report a transient resource squeeze on select.  Both mean
         "try again" — the deadline/stop check at the loop head bounds the
         retry. *)
      match Unix.select fds [] [] timeout with
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> loop ()
      | readable, _, _ ->
        List.iter
          (fun fd ->
            match List.assq_opt fd t.channels with
            | Some callback -> callback ()
            | None -> (
              match Hashtbl.find_opt by_socket fd with
              | Some ns -> drain t ns
              | None -> ()))
          readable;
        loop ()
    end
  in
  loop ()

(* --- Measurement (mirrors the simulator's monitors) --- *)

let views t =
  Array.to_seq t.nodes
  |> Seq.map (fun ns -> (ns.node.Sf_core.Protocol.node_id, ns.node.Sf_core.Protocol.view))

let outdegree_summary t =
  let summary = Sf_stats.Summary.create () in
  Array.iter
    (fun ns -> Sf_stats.Summary.add_int summary (Sf_core.Protocol.degree ns.node))
    t.nodes;
  summary

let independence_census t = Sf_core.Census.of_views (views t)

let membership_graph t =
  let g = Sf_graph.Digraph.create () in
  Array.iter
    (fun ns ->
      Sf_graph.Digraph.ensure_vertex g ns.node.Sf_core.Protocol.node_id;
      Sf_core.View.iter
        (fun _ e ->
          Sf_graph.Digraph.add_edge g ns.node.Sf_core.Protocol.node_id e.Sf_core.View.id)
        ns.node.Sf_core.Protocol.view)
    t.nodes;
  g

let is_weakly_connected t = Sf_graph.Digraph.is_weakly_connected (membership_graph t)

let fault_statistics t = Option.map Sf_faults.Injector.statistics t.injector

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

let obs t = t.obs

(* Per-action latency quantile (seconds) from the action span histogram;
   [nan] before any action. *)
let action_latency_quantile t q =
  Sf_obs.Metrics.quantile (Sf_obs.Span.histogram t.action_span) q
