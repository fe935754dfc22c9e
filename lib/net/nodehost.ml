(* A node-host: one OS process running a slice of the global id space
   inside one {!Driver} event loop, controllable from outside.

   The host is the unit the multi-process cluster is built from: the
   spawner ({!Spawner}) forks dozens of these, each owning
   [nodes_per_host] nodes, all sharing one port map — node [i] lives at
   [base_port + i] no matter which process owns it — so hosts gossip with
   each other through nothing but UDP datagrams.  Killing a host with
   SIGKILL is therefore a *real* crash of a real address space: its
   sockets close, in-flight datagrams bounce off dead ports, and the rest
   of the cluster must survive on its own protocol rules.

   Control surfaces, all line/datagram textual:

   - stdin (the spawner holds the write end): one command per line.
     EOF means the controller is gone — the host stops rather than
     running orphaned.
   - a UDP control socket on [control_port]: the same commands as
     datagrams, for controllers that outlive pipes (respawned hosts).
   - SIGTERM / SIGINT: clean stop, identical to the [stop] command.

   Commands: [stop] · [snapshot] (report views without stopping) ·
   [filter K] / [filter off] (cross-process partition window: drop
   datagrams crossing a K-way split) · [ping] (UDP liveness echo).

   Reports, written to stdout as single lines (the spawner's collection
   protocol):

     ready HOST PID FIRST COUNT        once, after binding every socket
     view ID E1,E2,...                 per owned node at [snapshot]/stop
     stats k=v k=v ...                 once at stop
     bye                               last line before exit

   where each view entry E is [id:serial:anchor:born] (anchor -1 = none)
   and a view line with no entries shows [-].  Heartbeat datagrams
   [hb HOST PID ACTIONS] go to [controller_port] every [heartbeat]
   seconds so the spawner can distinguish a live host from a wedged one
   without consuming stdout. *)

type config = {
  host_index : int;
  hosts : int;
  nodes_per_host : int;
  base_port : int;
  control_port : int;      (* this host's UDP command socket *)
  controller_port : int;   (* heartbeat sink; 0 disables heartbeats *)
  protocol : Sf_core.Protocol.config;
  out_degree : int;
  scenario : Sf_faults.Scenario.t;  (* loss model only; no windows *)
  loss_rate : float;
  period : float;
  seed : int;
  duration : float;        (* hard cap on the run, seconds *)
  heartbeat : float;
  resilience : Sf_resil.Policy.t option;
}

(* The place value of [k]'s leading decimal digit, for [k >= 0]. *)
let leading_place k =
  let place = ref 1 in
  while !place <= k / 10 do
    place := !place * 10
  done;
  !place

let digit k place = Char.chr (48 + (k / place mod 10))

(* [k] in decimal, digit by digit: no string is built. *)
let add_int buf k =
  if k < 0 then Buffer.add_char buf '-';
  let k = abs k in
  let place = ref (leading_place k) in
  while !place > 0 do
    Buffer.add_char buf (digit k !place);
    place := !place / 10
  done

(* Write [k >= 0] in decimal into [packet] at [pos]; returns the end
   position. *)
let put_decimal packet pos k =
  let place = ref (leading_place k) and pos = ref pos in
  while !place > 0 do
    Bytes.set packet !pos (digit k !place);
    incr pos;
    place := !place / 10
  done;
  !pos

(* [view ID E1,E2,...] with each entry [id:serial:anchor:born], slot
   order, or [view ID -] for an empty view, for row [row] of [store],
   appended to a caller's buffer: no string per entry and no
   concatenation per line. *)
let add_view_line buf id store row =
  let module F = Sf_core.View.Flat in
  Buffer.add_string buf "view ";
  add_int buf id;
  Buffer.add_char buf ' ';
  let empty = ref true in
  for slot = 0 to F.view_size store - 1 do
    let entry = F.id_at store row slot in
    if entry >= 0 then begin
      if not !empty then Buffer.add_char buf ',';
      empty := false;
      add_int buf entry;
      Buffer.add_char buf ':';
      add_int buf (F.serial_at store row slot);
      Buffer.add_char buf ':';
      add_int buf (F.anchor_at store row slot);
      Buffer.add_char buf ':';
      add_int buf (F.born_at store row slot)
    end
  done;
  if !empty then Buffer.add_char buf '-'

let view_line id view =
  let buf = Buffer.create 256 in
  add_view_line buf id view 0;
  Buffer.contents buf

(* Every owned view, one line each, in one write, read in place. *)
let emit_views driver =
  let buf = Buffer.create (256 * Driver.node_count driver) in
  for i = 0 to Driver.node_count driver - 1 do
    add_view_line buf (Driver.first driver + i) (Driver.store driver) i;
    Buffer.add_char buf '\n'
  done;
  Buffer.output_buffer stdout buf;
  flush stdout

(* --- Control commands ---

   A command is matched in place over a byte slice with the grammar of
   [String.split_on_char ' ' (String.trim line)]: the bytes [String.trim]
   removes are trimmed from both ends and the rest is split on single
   spaces, so two spaces make an empty word and a tab belongs to its
   word.  Serving a [ping] allocates nothing. *)

(* A host's control state: the driver its commands act on, the
   [pong PID] reply (written once: the pid is fixed for the life of a
   process, and a respawned host is a new process) and the count of
   rejected commands the [stats] line reports. *)
type control = {
  driver : Driver.t;
  pong : bytes;
  mutable rejected : int;
}

let control driver =
  let packet = Bytes.create 32 in
  Bytes.blit_string "pong " 0 packet 0 5;
  let length = put_decimal packet 5 (Unix.getpid ()) in
  Bytes.set packet length '\n';
  { driver; pong = Bytes.sub packet 0 (length + 1); rejected = 0 }

let control_rejected c = c.rejected

let emit_stats c =
  let driver = c.driver in
  let s = Driver.statistics driver in
  let quantile q =
    let v = Driver.action_latency_quantile driver q in
    if Float.is_nan v then 0. else v *. 1e6
  in
  Fmt.pr
    "stats actions=%d sent=%d dropped=%d received=%d messages=%d emitted=%d \
     batches=%d frames=%d crc_rejected=%d \
     truncated=%d oversized=%d decode_errors=%d send_errors=%d filtered=%d \
     corrupted=%d repairs=%d recoveries=%d retunes=%d control_rejected=%d \
     p50_us=%.1f p99_us=%.1f@."
    s.Driver.actions s.Driver.datagrams_sent s.Driver.datagrams_dropped
    s.Driver.datagrams_received s.Driver.messages_received
    s.Driver.datagrams_emitted s.Driver.batches_sent s.Driver.frames_sent
    s.Driver.frames_crc_rejected
    s.Driver.datagrams_truncated s.Driver.datagrams_oversized
    s.Driver.decode_errors s.Driver.send_errors s.Driver.datagrams_filtered
    s.Driver.datagrams_corrupted s.Driver.repair_attempts s.Driver.recoveries
    s.Driver.retunes c.rejected (quantile 0.5) (quantile 0.99)

(* The bytes [String.trim] removes. *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec skip_blanks b pos stop =
  if pos < stop && is_blank (Bytes.get b pos) then skip_blanks b (pos + 1) stop
  else pos

let rec trim_end b pos stop =
  if stop > pos && is_blank (Bytes.get b (stop - 1)) then trim_end b pos (stop - 1)
  else stop

(* The first space in [b.[pos, stop)], or [stop]. *)
let rec space_from b pos stop =
  if pos = stop || Bytes.get b pos = ' ' then pos else space_from b (pos + 1) stop

let rec same_from b pos word i =
  i = String.length word
  || (Bytes.get b (pos + i) = word.[i] && same_from b pos word (i + 1))

(* [b.[pos, stop)] is [word]. *)
let is_word b pos stop word =
  stop - pos = String.length word && same_from b pos word 0

(* The value of [c] as a digit of a base up to 16, or 16 when it is none. *)
let digit_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> 16

(* [acc] followed by the base-[base] digits of [b.[pos, stop)], [_]
   skipped; [None] at a byte that is no such digit or past 2^63 - 1. *)
let rec digits_from b pos stop base acc =
  if pos = stop then Some acc
  else
    match Bytes.get b pos with
    | '_' -> digits_from b (pos + 1) stop base acc
    | c ->
      let d = Int64.of_int (digit_value c) and base64 = Int64.of_int base in
      if d >= base64 || acc > Int64.div (Int64.sub Int64.max_int d) base64 then None
      else digits_from b (pos + 1) stop base (Int64.add (Int64.mul acc base64) d)

let read_int b pos stop =
  let negative = pos < stop && Bytes.get b pos = '-' in
  let pos = if pos < stop && (negative || Bytes.get b pos = '+') then pos + 1 else pos in
  (* A [0x], [0o], [0b] or [0u] prefix: 0 when there is none. *)
  let prefix_base =
    if pos + 1 < stop && Bytes.get b pos = '0' then
      match Bytes.get b (pos + 1) with
      | 'x' | 'X' -> 16
      | 'o' | 'O' -> 8
      | 'b' | 'B' -> 2
      | 'u' | 'U' -> 10
      | _ -> 0
    else 0
  in
  let base = if prefix_base = 0 then 10 else prefix_base in
  let first = if prefix_base = 0 then pos else pos + 2 in
  if first = stop || digit_value (Bytes.get b first) >= base then None
  else
    match digits_from b first stop base 0L with
    | None -> None
    | Some magnitude ->
      (* A plain literal is signed: up to 2^62 - 1, or 2^62 negated.  A
         prefixed one may use all 63 bits and wraps, as a literal does. *)
      let limit =
        if prefix_base <> 0 then Int64.max_int
        else if negative then Int64.neg (Int64.of_int min_int)
        else Int64.of_int max_int
      in
      if magnitude > limit then None
      else Some (Int64.to_int (if negative then Int64.neg magnitude else magnitude))

(* [line] and a newline through [reply]: the rare replies build their
   packet. *)
let reply_line reply line =
  let length = String.length line in
  let packet = Bytes.create (length + 1) in
  Bytes.blit_string line 0 packet 0 length;
  Bytes.set packet length '\n';
  reply packet (length + 1)

let reject c reply line =
  c.rejected <- c.rejected + 1;
  reply_line reply line

let snapshot c reply =
  let buf = Buffer.create 256 in
  for i = 0 to Driver.node_count c.driver - 1 do
    Buffer.clear buf;
    add_view_line buf (Driver.first c.driver + i) (Driver.store c.driver) i;
    Buffer.add_char buf '\n';
    reply (Buffer.to_bytes buf) (Buffer.length buf)
  done;
  reply_line reply "end"

(* One control command, [b.[pos, pos + length)], from stdin or the
   control socket.  [reply packet length] sends the first [length] bytes
   of [packet], one line with its newline, back the way the command came
   (stdout for stdin commands, a datagram to the sender for UDP ones). *)
let handle_command c ~reply b pos length =
  let first = skip_blanks b pos (pos + length) in
  let stop = trim_end b first (pos + length) in
  let space = space_from b first stop in
  if first = stop then () (* blank line *)
  else if space = stop then
    if is_word b first stop "ping" then reply c.pong (Bytes.length c.pong)
    else if is_word b first stop "stop" then Driver.request_stop c.driver
    else if is_word b first stop "snapshot" then snapshot c reply
    else reject c reply "err unknown-command"
  else if is_word b first space "filter" && space_from b (space + 1) stop = stop then
    if is_word b (space + 1) stop "off" then
      Driver.set_partition_filter c.driver ~parts:None
    else
      match read_int b (space + 1) stop with
      | Some parts when parts >= 2 ->
        Driver.set_partition_filter c.driver ~parts:(Some parts)
      | _ -> reject c reply "err bad-filter"
  else reject c reply "err unknown-command"

(* The control socket's channel callback: one datagram per readable
   wake, as the driver reads its node sockets.  [ppoll] is
   level-triggered, so a socket with more datagrams queued wakes the
   loop again, and no read ends in the exception [EAGAIN] raises.  The
   sender lives in a ref, so the reply closure is built once. *)
let serve_control c socket =
  let buffer = Bytes.create 512 in
  let sender = ref (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  let reply packet length =
    try ignore (Unix.sendto socket packet 0 length [] !sender)
    with Unix.Unix_error _ -> ()
  in
  fun () ->
    match Unix.recvfrom socket buffer 0 (Bytes.length buffer) [] with
    | length, from ->
      sender := from;
      handle_command c ~reply buffer 0 length
    | exception
        Unix.Unix_error
          ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR | Unix.ECONNREFUSED), _, _)
      ->
      (* Nothing read, as in the driver's receive: the next wait tells
         whether a datagram is waiting. *)
      ()

(* Incremental line reader over a non-blocking fd: each readable wakeup
   drains what the kernel has, fires [on_line] per complete line, and
   [on_eof] once when the peer closes. *)
let line_reader fd ~on_line ~on_eof =
  let pending = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let eof_seen = ref false in
  fun () ->
    if not !eof_seen then begin
      let continue = ref true in
      while !continue do
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
          continue := false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | 0 ->
          continue := false;
          eof_seen := true;
          on_eof ()
        | k ->
          for i = 0 to k - 1 do
            match Bytes.get chunk i with
            | '\n' ->
              let line = Buffer.contents pending in
              Buffer.clear pending;
              on_line line
            | c -> Buffer.add_char pending c
          done
      done
    end

let validate config =
  if config.hosts < 1 then invalid_arg "Nodehost: hosts < 1";
  if config.host_index < 0 || config.host_index >= config.hosts then
    invalid_arg "Nodehost: host index outside [0, hosts)";
  if config.nodes_per_host < 1 then invalid_arg "Nodehost: empty slice";
  if config.scenario.Sf_faults.Scenario.windows <> [] then
    invalid_arg
      "Nodehost: fault windows are the controller's business (crash = real \
       kill, partition = filter commands); hosts take a loss model only"

(* Run a node-host to completion: bind the slice, speak the control
   protocol, report, exit.  This is the whole body of bin/sf_nodehost. *)
let main config =
  validate config;
  let n = config.hosts * config.nodes_per_host in
  let first = config.host_index * config.nodes_per_host in
  (* The topology is a function of (seed, n, out_degree) alone, so every
     host — and the controller checking the merged result — computes the
     identical global wiring without talking to anyone. *)
  let topology =
    Sf_core.Topology.regular
      (Sf_prng.Rng.create (config.seed + 1))
      ~n ~out_degree:config.out_degree
  in
  let driver =
    Driver.create ~period:config.period ~scenario:config.scenario
      ?resilience:config.resilience ~first
      ~count:config.nodes_per_host ~serial_stride:config.hosts
      ~serial_offset:config.host_index ~base_port:config.base_port ~n
      ~config:config.protocol ~loss_rate:config.loss_rate
      ~seed:(config.seed + (7919 * (config.host_index + 1)))
      ~topology ()
  in
  (* Clean stop on SIGTERM/SIGINT: the handler only flips the stop flag;
     the driver's loop notices via EINTR and unwinds normally, so views and
     stats still get reported. *)
  let stop_signal _ = Driver.request_stop driver in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_signal);
  let commands = control driver in
  (* Control channel 1: stdin.  EOF = controller gone = stop. *)
  let to_stdout packet length =
    output stdout packet 0 length;
    flush stdout
  in
  Unix.set_nonblock Unix.stdin;
  Driver.add_channel driver Unix.stdin
    (line_reader Unix.stdin
       ~on_line:(fun line ->
         handle_command commands ~reply:to_stdout (Bytes.of_string line) 0
           (String.length line))
       ~on_eof:(fun () -> Driver.request_stop driver));
  (* Control channel 2: a UDP command socket, reachable even after a
     respawn replaces the pipes. *)
  let control = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  (* No SO_REUSEADDR: a port another socket holds fails the bind with
     EADDRINUSE instead of being shared with it. *)
  (match
     Unix.set_nonblock control;
     Unix.bind control
       (Unix.ADDR_INET (Unix.inet_addr_loopback, config.control_port))
   with
  | () -> ()
  | exception e ->
    (try Unix.close control with Unix.Unix_error _ -> ());
    Driver.shutdown driver;
    raise e);
  Driver.add_channel driver control (serve_control commands control);
  (* Heartbeats: liveness the spawner can watch without consuming stdout. *)
  if config.controller_port > 0 then begin
    let sink =
      Unix.ADDR_INET (Unix.inet_addr_loopback, config.controller_port)
    in
    (* [hb HOST PID ACTIONS]: the prefix is written once and each beat
       writes its action count after it, into the same packet. *)
    let prefix = Fmt.str "hb %d %d " config.host_index (Unix.getpid ()) in
    let packet = Bytes.create (String.length prefix + 24) in
    Bytes.blit_string prefix 0 packet 0 (String.length prefix);
    let beat () =
      let length = put_decimal packet (String.length prefix) (Driver.actions driver) in
      Bytes.set packet length '\n';
      try ignore (Unix.sendto control packet 0 (length + 1) [] sink)
      with Unix.Unix_error _ -> ()
    in
    Driver.add_periodic driver ~every:config.heartbeat beat;
    beat ()
  end;
  Fmt.pr "ready %d %d %d %d@." config.host_index (Unix.getpid ()) first
    config.nodes_per_host;
  Driver.run driver ~duration:config.duration;
  emit_views driver;
  emit_stats commands;
  Fmt.pr "bye@.";
  (try Unix.close control with Unix.Unix_error _ -> ());
  Driver.shutdown driver
