(* The cluster controller: fork node-host processes, watch them, hurt
   them, heal them, and collect what is left.

   This is the only module in the tree allowed to touch process-control
   primitives (Unix.create_process / Unix.kill / Unix.waitpid — enforced
   by the sf_lint [no-raw-process] rule): every other layer reasons about
   nodes and datagrams, and only the spawner turns a fault plan's crash
   window into an actual SIGKILL of an actual address space.

   Scenario realization across process boundaries:

   - the loss model (iid / Gilbert–Elliott) is per-process: each host
     injects it at its own senders, exactly as the single-process cluster
     does;
   - [partition@A-B:K] becomes a [filter K] datagram to every host's
     control socket at round A and [filter off] at round B — each host
     drops cross-block datagrams by the same block arithmetic, so the
     partition is globally consistent with no shared state;
   - [crash@A-B:LO-HI] becomes SIGKILL of every host whose slice
     intersects [LO, HI] at round A, and a fresh spawn of the same slice
     at round B.  Nothing of the killed process survives: its sockets
     close (later datagrams bounce off dead ports), its views are gone,
     and the respawned host rejoins from the seed topology like any
     newborn — the survivors' resilience machinery does the rest;
   - delay/corrupt windows have no cross-process realization and are
     rejected.

   Liveness: every host heartbeats a UDP datagram to the controller.  A
   host silent past the timeout is presumed wedged, killed, and respawned
   under capped exponential {!Sf_resil.Backoff} (jitter from an injected
   PRNG, delays in rounds) — as is a host that dies on its own.  The
   controller never sleeps on a backoff: respawns are scheduled on the
   event-loop clock.

   Shutdown: respawn whatever is down (so every slice reports), lift
   filters, send [stop] on stdin and control sockets, then collect each
   host's view/stats/bye lines, escalating SIGTERM → SIGKILL on the
   stragglers. *)

type host_outcome = {
  index : int;
  views : (int * Sf_core.View.entry list) list;
  stats : (string * float) list;
  bye : bool;
  respawns : int;
}

type outcome = {
  hosts : host_outcome list;
  merged_views : (int * Sf_core.View.entry list) list;
  heartbeats : int;
  kills : int;       (* deliberate SIGKILLs (crash windows + wedged hosts) *)
  respawns : int;
  hb_timeouts : int;
  unexpected_deaths : int;
  wall_seconds : float;
}

type host_state = {
  idx : int;
  mutable pid : int;
  mutable stdin_w : Unix.file_descr;
  mutable stdout_r : Unix.file_descr;
  mutable reader : unit -> unit;
  mutable last_hb : float;
  (* Running | killed by a crash window until a round | waiting for a
     backed-off respawn at a wall time. *)
  mutable phase : [ `Running | `Crashed_until of float | `Respawn_at of float ];
  mutable views : (int * Sf_core.View.entry list) list;
  mutable stats : (string * float) list;
  mutable bye : bool;
  mutable respawned : int;
  backoff : Sf_resil.Backoff.t;
}

let parse_entry s =
  match String.split_on_char ':' s with
  | [ id; serial; anchor; born ] -> (
    match
      ( int_of_string_opt id,
        int_of_string_opt serial,
        int_of_string_opt anchor,
        int_of_string_opt born )
    with
    | Some id, Some serial, Some anchor, Some born ->
      Some
        {
          Sf_core.View.id;
          serial;
          anchor = (if anchor < 0 then None else Some anchor);
          born;
        }
    | _ -> None)
  | _ -> None

let parse_view_line rest =
  match String.index_opt rest ' ' with
  | None -> None
  | Some i -> (
    let id = String.sub rest 0 i in
    let entries = String.sub rest (i + 1) (String.length rest - i - 1) in
    match int_of_string_opt id with
    | None -> None
    | Some id ->
      if entries = "-" then Some (id, [])
      else
        Some
          ( id,
            List.filter_map parse_entry (String.split_on_char ',' entries) ))

let parse_stats_line rest =
  List.filter_map
    (fun kv ->
      match String.split_on_char '=' kv with
      | [ k; v ] -> Option.map (fun f -> (k, f)) (float_of_string_opt v)
      | _ -> None)
    (String.split_on_char ' ' rest)

let strip_prefix prefix s =
  let lp = String.length prefix in
  if String.length s > lp && String.sub s 0 lp = prefix then
    Some (String.sub s lp (String.length s - lp))
  else None

let host_line host line =
  match strip_prefix "view " line with
  | Some rest -> (
    match parse_view_line rest with
    | Some (id, entries) ->
      host.views <- (id, entries) :: List.remove_assoc id host.views
    | None -> ())
  | None -> (
    match strip_prefix "stats " line with
    | Some rest -> host.stats <- parse_stats_line rest
    | None -> if line = "bye" then host.bye <- true)

type config = {
  binary : string;
  hosts : int;
  nodes_per_host : int;
  base_port : int;
  view_size : int;
  lower_threshold : int;
  out_degree : int;
  scenario : Sf_faults.Scenario.t;
  loss_rate : float;
  period : float;
  resilience : bool;
  seed : int;
  duration : float;      (* seconds of chaos before shutdown *)
  heartbeat : float;
  hb_timeout : float;
  log : string -> unit;  (* progress lines (Fmt.pr-based at the CLI) *)
}

let default_binary () =
  let dir = Filename.dirname Sys.executable_name in
  let candidates =
    [
      Filename.concat dir "sf_nodehost.exe";
      Filename.concat dir "../bin/sf_nodehost.exe";
      Filename.concat dir "sf_nodehost";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some b -> b
  | None -> "sf_nodehost.exe"

let make_config ?binary ?(view_size = 12) ?(lower_threshold = 4)
    ?(out_degree = 0) ?(loss_rate = 0.0) ?(period = 0.01)
    ?(resilience = true) ?(heartbeat = 0.1)
    ?(hb_timeout = 1.0) ?(log = fun _ -> ()) ~hosts ~nodes_per_host ~base_port
    ~scenario ~seed ~duration () =
  if hosts < 1 then invalid_arg "Spawner: hosts < 1";
  if nodes_per_host < 1 then invalid_arg "Spawner: nodes_per_host < 1";
  let n = hosts * nodes_per_host in
  (* Ports: nodes at base_port + id; heartbeat sink at base_port - 1; host
     i's control socket at base_port - 2 - i. *)
  if base_port - 2 - hosts < 1024 || base_port + n - 1 > 65_535 then
    invalid_arg "Spawner: port range out of bounds";
  let out_degree =
    if out_degree > 0 then out_degree
    else
      Sf_core.Protocol.start_degree
        (Sf_core.Protocol.make_config ~view_size ~lower_threshold)
        ~n
  in
  List.iter
    (fun (w : Sf_faults.Scenario.window) ->
      match w.Sf_faults.Scenario.fault with
      | Sf_faults.Scenario.Partition _ | Sf_faults.Scenario.Crash _ -> ()
      | Sf_faults.Scenario.Delay _ | Sf_faults.Scenario.Corrupt _ ->
        invalid_arg
          (Fmt.str "Spawner: no cross-process realization for %s windows"
             (Sf_faults.Scenario.fault_kind w.Sf_faults.Scenario.fault)))
    scenario.Sf_faults.Scenario.windows;
  {
    binary = (match binary with Some b -> b | None -> default_binary ());
    hosts;
    nodes_per_host;
    base_port;
    view_size;
    lower_threshold;
    out_degree;
    scenario;
    loss_rate;
    period;
    resilience;
    seed;
    duration;
    heartbeat;
    hb_timeout;
    log;
  }

let control_port cfg idx = cfg.base_port - 2 - idx
let controller_port cfg = cfg.base_port - 1

(* The timed fault windows, flattened to a round-ordered event plan. *)
type event =
  | Filter_on of int
  | Filter_off
  | Kill_range of int * int  (* node id range, inclusive *)
  | Revive_range of int * int

let event_plan cfg =
  List.concat_map
    (fun (w : Sf_faults.Scenario.window) ->
      match w.Sf_faults.Scenario.fault with
      | Sf_faults.Scenario.Partition { parts } ->
        [ (w.Sf_faults.Scenario.start, Filter_on parts);
          (w.Sf_faults.Scenario.stop, Filter_off) ]
      | Sf_faults.Scenario.Crash { first; last } ->
        [ (w.Sf_faults.Scenario.start, Kill_range (first, last));
          (w.Sf_faults.Scenario.stop, Revive_range (first, last)) ]
      | _ -> [])
    cfg.scenario.Sf_faults.Scenario.windows
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)

let hosts_of_range cfg first last =
  let lo = max 0 (first / cfg.nodes_per_host) in
  let hi = min (cfg.hosts - 1) (last / cfg.nodes_per_host) in
  if lo > hi then [] else List.init (hi - lo + 1) (fun i -> lo + i)

let host_argv cfg idx =
  let host_duration = (cfg.duration *. 3.) +. 30. in
  [|
    cfg.binary;
    "--host"; string_of_int idx;
    "--hosts"; string_of_int cfg.hosts;
    "--per-host"; string_of_int cfg.nodes_per_host;
    "--base-port"; string_of_int cfg.base_port;
    "--control-port"; string_of_int (control_port cfg idx);
    "--controller-port"; string_of_int (controller_port cfg);
    "--view-size"; string_of_int cfg.view_size;
    "--lower"; string_of_int cfg.lower_threshold;
    "--out-degree"; string_of_int cfg.out_degree;
    "--loss";
    Sf_faults.Scenario.to_string
      { cfg.scenario with Sf_faults.Scenario.windows = [] };
    "--loss-rate"; Fmt.str "%.6f" cfg.loss_rate;
    "--period"; Fmt.str "%.6f" cfg.period;
    "--seed"; string_of_int cfg.seed;
    "--duration"; Fmt.str "%.3f" host_duration;
    "--heartbeat"; Fmt.str "%.3f" cfg.heartbeat;
  |]
  |> fun base ->
  if cfg.resilience then Array.append base [| "--resilience" |] else base

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let spawn_process cfg idx =
  let stdin_r, stdin_w = Unix.pipe () in
  let stdout_r, stdout_w = Unix.pipe () in
  Unix.set_close_on_exec stdin_w;
  Unix.set_close_on_exec stdout_r;
  Unix.set_nonblock stdout_r;
  let argv = host_argv cfg idx in
  match Unix.create_process cfg.binary argv stdin_r stdout_w Unix.stderr with
  | pid ->
    close_quietly stdin_r;
    close_quietly stdout_w;
    (pid, stdin_w, stdout_r)
  | exception e ->
    List.iter close_quietly [ stdin_r; stdin_w; stdout_r; stdout_w ];
    raise e

let attach_reader host =
  host.reader <-
    Nodehost.line_reader host.stdout_r ~on_line:(host_line host)
      ~on_eof:(fun () -> ())

let spawn_host cfg ~now host =
  let pid, stdin_w, stdout_r = spawn_process cfg host.idx in
  host.pid <- pid;
  host.stdin_w <- stdin_w;
  host.stdout_r <- stdout_r;
  host.last_hb <- now;
  host.phase <- `Running;
  attach_reader host

(* Reap a process we know is exiting; bounded wait (~1 s) so a
   pathological non-exit cannot wedge the controller.  The pause between
   polls is an empty select, the event-loop idiom — not a retry backoff,
   which stays Backoff's business. *)
let reap pid =
  let rec wait tries =
    if tries = 0 then ()
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        (try ignore (Unix.select [] [] [] 0.005)
         with Unix.Unix_error _ -> ());
        wait (tries - 1)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait tries
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait 200

let sigkill_host host =
  (try Unix.kill host.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap host.pid;
  close_quietly host.stdin_w;
  close_quietly host.stdout_r

let send_stdin host line =
  let packet = Bytes.of_string (line ^ "\n") in
  try ignore (Unix.write host.stdin_w packet 0 (Bytes.length packet)) with
  | Unix.Unix_error _ -> ()

let run cfg =
  (* A host dying with its stdin pipe non-empty must surface as EPIPE on
     our write, not as a fatal SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let now () = Sf_obs.Clock.wall () in
  let t0 = now () in
  let round () = (now () -. t0) /. cfg.period in
  let backoff_rng = Sf_prng.Rng.create (cfg.seed lxor 0x7ead) in
  let heartbeats = ref 0 in
  let kills = ref 0 in
  let respawns = ref 0 in
  let hb_timeouts = ref 0 in
  let unexpected_deaths = ref 0 in
  (* Controller heartbeat sink + command source. *)
  let hb_socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  (* No SO_REUSEADDR: a port another socket holds fails the bind with
     EADDRINUSE instead of being shared with it. *)
  (match
     Unix.set_nonblock hb_socket;
     Unix.set_close_on_exec hb_socket;
     Unix.bind hb_socket
       (Unix.ADDR_INET (Unix.inet_addr_loopback, controller_port cfg))
   with
  | () -> ()
  | exception e ->
    (try Unix.close hb_socket with Unix.Unix_error _ -> ());
    raise e);
  let send_control idx line =
    let packet = Bytes.of_string (line ^ "\n") in
    try
      ignore
        (Unix.sendto hb_socket packet 0 (Bytes.length packet) []
           (Unix.ADDR_INET (Unix.inet_addr_loopback, control_port cfg idx)))
    with Unix.Unix_error _ -> ()
  in
  let hosts =
    Array.init cfg.hosts (fun idx ->
        {
          idx;
          pid = -1;
          stdin_w = Unix.stdin;
          stdout_r = Unix.stdin;
          reader = (fun () -> ());
          last_hb = 0.;
          phase = `Running;
          views = [];
          stats = [];
          bye = false;
          respawned = 0;
          backoff =
            Sf_resil.Backoff.create ~base:2.0 ~factor:2.0 ~cap:64.0
              ~rng:backoff_rng ();
        })
  in
  let finally () =
    Array.iter
      (fun h ->
        match h.phase with
        | `Running ->
          (try Unix.kill h.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap h.pid;
          close_quietly h.stdin_w;
          close_quietly h.stdout_r
        | _ -> ())
      hosts;
    close_quietly hb_socket
  in
  try
    Array.iter (fun h -> spawn_host cfg ~now:(now ()) h) hosts;
    cfg.log
      (Fmt.str "spawned %d node-hosts (%d nodes, ports %d-%d)" cfg.hosts
         (cfg.hosts * cfg.nodes_per_host) cfg.base_port
         (cfg.base_port + (cfg.hosts * cfg.nodes_per_host) - 1));
    let plan = ref (event_plan cfg) in
    let hb_buffer = Bytes.create 256 in
    let drain_heartbeats () =
      let continue = ref true in
      while !continue do
        match Unix.recvfrom hb_socket hb_buffer 0 (Bytes.length hb_buffer) [] with
        | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
          continue := false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
        | length, _ -> (
          incr heartbeats;
          match
            String.split_on_char ' '
              (String.trim (Bytes.sub_string hb_buffer 0 length))
          with
          | "hb" :: idx :: _ -> (
            match int_of_string_opt idx with
            | Some i when i >= 0 && i < cfg.hosts ->
              hosts.(i).last_hb <- now ()
            | _ -> ())
          | _ -> ())
      done
    in
    let reap_unexpected () =
      let continue = ref true in
      while !continue do
        match Unix.waitpid [ Unix.WNOHANG ] (-1) with
        | 0, _ -> continue := false
        | pid, _ -> (
          match
            Array.fold_left
              (fun acc h -> if h.pid = pid then Some h else acc)
              None hosts
          with
          | Some h when h.phase = `Running ->
            (* Died without being told to: close its ends and schedule a
               backed-off respawn (delays are in rounds). *)
            incr unexpected_deaths;
            close_quietly h.stdin_w;
            close_quietly h.stdout_r;
            let delay = Sf_resil.Backoff.next h.backoff *. cfg.period in
            h.phase <- `Respawn_at (now () +. delay);
            cfg.log
              (Fmt.str "host %d (pid %d) died; respawn in %.2fs" h.idx pid
                 delay)
          | _ -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> continue := false
      done
    in
    let fire_events () =
      let r = round () in
      let rec step () =
        match !plan with
        | (at, event) :: rest when at <= r ->
          plan := rest;
          (match event with
          | Filter_on parts ->
            cfg.log (Fmt.str "round %.0f: partition filter %d-way on" at parts);
            Array.iter
              (fun h -> if h.phase = `Running then send_control h.idx (Fmt.str "filter %d" parts))
              hosts
          | Filter_off ->
            cfg.log (Fmt.str "round %.0f: partition filter off" at);
            Array.iter
              (fun h -> if h.phase = `Running then send_control h.idx "filter off")
              hosts
          | Kill_range (first, last) ->
            List.iter
              (fun idx ->
                let h = hosts.(idx) in
                if h.phase = `Running then begin
                  cfg.log
                    (Fmt.str "round %.0f: kill -9 host %d (pid %d, nodes %d-%d)"
                       at idx h.pid
                       (idx * cfg.nodes_per_host)
                       (((idx + 1) * cfg.nodes_per_host) - 1));
                  incr kills;
                  sigkill_host h;
                  (* Revive no earlier than the window close. *)
                  h.phase <- `Crashed_until infinity
                end)
              (hosts_of_range cfg first last)
          | Revive_range (first, last) ->
            List.iter
              (fun idx ->
                let h = hosts.(idx) in
                match h.phase with
                | `Crashed_until _ ->
                  cfg.log (Fmt.str "round %.0f: respawn host %d" at idx);
                  incr respawns;
                  h.respawned <- h.respawned + 1;
                  spawn_host cfg ~now:(now ()) h
                | _ -> ())
              (hosts_of_range cfg first last));
          step ()
        | _ -> ()
      in
      step ()
    in
    let check_liveness () =
      let t = now () in
      Array.iter
        (fun h ->
          match h.phase with
          | `Running when t -. h.last_hb > cfg.hb_timeout ->
            (* Silent past the timeout: presumed wedged.  Kill for real and
               respawn under backoff. *)
            incr hb_timeouts;
            incr kills;
            cfg.log
              (Fmt.str "host %d silent for %.2fs; kill and respawn" h.idx
                 (t -. h.last_hb));
            sigkill_host h;
            let delay = Sf_resil.Backoff.next h.backoff *. cfg.period in
            h.phase <- `Respawn_at (t +. delay)
          | `Respawn_at due when t >= due ->
            incr respawns;
            h.respawned <- h.respawned + 1;
            spawn_host cfg ~now:t h
          | _ -> ())
        hosts
    in
    let poll timeout =
      let fds =
        hb_socket
        :: (Array.to_list hosts
           |> List.filter_map (fun h ->
                  if h.phase = `Running then Some h.stdout_r else None))
      in
      match Unix.select fds [] [] timeout with
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
      | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = hb_socket then drain_heartbeats ()
            else
              Array.iter
                (fun h -> if h.stdout_r = fd && h.phase = `Running then h.reader ())
                hosts)
          readable
    in
    (* --- Chaos phase --- *)
    let deadline = t0 +. cfg.duration in
    while now () < deadline do
      fire_events ();
      reap_unexpected ();
      check_liveness ();
      poll (Float.min 0.05 (Float.max 0.001 (deadline -. now ())))
    done;
    (* --- Shutdown: heal, settle, stop, collect. --- *)
    Array.iter
      (fun h ->
        match h.phase with
        | `Running -> ()
        | `Crashed_until _ | `Respawn_at _ ->
          incr respawns;
          h.respawned <- h.respawned + 1;
          spawn_host cfg ~now:(now ()) h)
      hosts;
    Array.iter (fun h -> if h.phase = `Running then send_control h.idx "filter off") hosts;
    let settle_until = now () +. Float.max (30. *. cfg.period) 0.3 in
    while now () < settle_until do
      reap_unexpected ();
      poll 0.02
    done;
    cfg.log "stopping node-hosts";
    Array.iter
      (fun h ->
        send_stdin h "stop";
        send_control h.idx "stop")
      hosts;
    let grace = now () +. 5.0 in
    let all_bye () = Array.for_all (fun h -> h.bye) hosts in
    while (not (all_bye ())) && now () < grace do
      poll 0.02
    done;
    Array.iter
      (fun h ->
        if not h.bye then begin
          try Unix.kill h.pid Sys.sigterm with Unix.Unix_error _ -> ()
        end)
      hosts;
    let term_grace = now () +. 2.0 in
    while (not (all_bye ())) && now () < term_grace do
      poll 0.02
    done;
    Array.iter
      (fun h ->
        (* One last drain picks up lines raced against the bye check. *)
        h.reader ();
        sigkill_host h;
        h.phase <- `Crashed_until infinity)
      hosts;
    close_quietly hb_socket;
    let host_outcomes =
      Array.to_list hosts
      |> List.map (fun h ->
             {
               index = h.idx;
               views = List.rev h.views;
               stats = h.stats;
               bye = h.bye;
               respawns = h.respawned;
             })
    in
    {
      hosts = host_outcomes;
      merged_views =
        List.concat_map (fun (h : host_outcome) -> h.views) host_outcomes
        |> List.stable_sort (fun (a, _) (b, _) -> compare a b);
      heartbeats = !heartbeats;
      kills = !kills;
      respawns = !respawns;
      hb_timeouts = !hb_timeouts;
      unexpected_deaths = !unexpected_deaths;
      wall_seconds = now () -. t0;
    }
  with e ->
    finally ();
    raise e
