(** One OS process of the multi-process cluster: a {!Driver} slice wrapped
    in a controllable host.  The spawner ({!Spawner}) forks many of these;
    each binds [nodes_per_host] consecutive ports of the shared port map
    and gossips with its siblings over plain UDP, so killing a host is a
    real crash of a real address space.

    Control channels (textual, one command per line or datagram): stdin
    (EOF stops the host — no orphans), a UDP command socket on
    [control_port], and SIGTERM/SIGINT for a clean stop.  Commands:
    [stop], [snapshot], [filter K] / [filter off] (cross-process
    partition window), [ping].

    Reporting, on stdout: [ready HOST PID FIRST COUNT] once at start;
    at stop one [view ID entries] line per owned node (entries
    [id:serial:anchor:born] comma-separated, [-] when empty, anchor [-1]
    for none), one [stats k=v ...] line, then [bye].  Heartbeat datagrams
    [hb HOST PID ACTIONS] go to [controller_port] every [heartbeat]
    seconds when that port is non-zero. *)

type config = {
  host_index : int;        (** which slice this process owns *)
  hosts : int;             (** sibling process count (also the serial stride) *)
  nodes_per_host : int;
  base_port : int;         (** node [i]'s socket is [base_port + i], globally *)
  control_port : int;      (** this host's UDP command socket *)
  controller_port : int;   (** heartbeat sink; [0] disables heartbeats *)
  protocol : Sf_core.Protocol.config;
  out_degree : int;        (** of the shared seed topology *)
  scenario : Sf_faults.Scenario.t;
      (** loss model only — a scenario with fault windows is rejected:
          crash and partition windows belong to the controller, which
          realizes them as kills and filter commands *)
  loss_rate : float;
  period : float;
  seed : int;              (** shared across hosts: fixes the global topology;
                               each host derives a distinct protocol stream *)
  duration : float;        (** hard cap on the run, in seconds *)
  heartbeat : float;
  resilience : Sf_resil.Policy.t option;
}

val main : config -> unit
(** Run the host to completion: bind the slice, serve the control
    channels, report views/stats/[bye] on stdout, close every socket.
    Raises [Invalid_argument] on a malformed config (bad slice bounds, or
    a scenario carrying fault windows). *)

type control
(** A host's control state: the driver its commands act on, its
    [pong PID] reply and a count of rejected commands. *)

val control : Driver.t -> control
(** The control state for a host running [driver]; [pong PID] is
    written here, once per process. *)

val control_rejected : control -> int
(** Commands answered [err …] so far; the [stats] line reports it as
    [control_rejected=N]. *)

val handle_command :
  control -> reply:(bytes -> int -> unit) -> bytes -> int -> int -> unit
(** [handle_command c ~reply b pos length] runs the command
    [b.[pos, pos + length)], matched in place with the grammar of
    [String.split_on_char ' ' (String.trim line)]: trimmed of
    [' ' '\012' '\n' '\r' '\t'] at both ends, then split on single
    spaces.  [reply packet length] sends the first [length] bytes of
    [packet], one line with its newline.  [ping] answers [pong PID] from
    a packet written once, allocating nothing; a blank line does
    nothing; [stop], [filter K] ([K >= 2], read as [int_of_string_opt]
    reads it) and [filter off] act silently; [snapshot] answers a view
    line per owned node, then [end].  Anything else answers
    [err bad-filter] or [err unknown-command] and counts as rejected.
    Used by both control channels.  Over a valid slice it raises
    nothing but what [reply] raises. *)

val serve_control : control -> Unix.file_descr -> unit -> unit
(** [serve_control c socket] is the control socket's channel callback:
    each call reads one datagram (at most 512 bytes), runs it through
    {!handle_command} and sends the replies to its sender.  A socket
    with more queued stays readable, so the driver's next wake serves
    the next one.  Per [ping] it allocates only [recvfrom]'s result. *)

val read_int : bytes -> int -> int -> int option
(** Exposed for tests: [read_int b pos stop] is [int_of_string_opt] of
    [b.[pos, stop)], read in place. *)

val view_line : int -> Sf_core.View.t -> string
(** Exposed for tests: the [view ID entries] report line for one node. *)

val line_reader :
  Unix.file_descr -> on_line:(string -> unit) -> on_eof:(unit -> unit) -> unit -> unit
(** Incremental line reader over a non-blocking fd: each call of the
    returned thunk drains what the kernel has buffered, firing [on_line]
    per complete line and [on_eof] once when the peer closes.  Used for
    the host's stdin and for the spawner's host-stdout pipes. *)
