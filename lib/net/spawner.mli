(** The multi-process cluster controller: fork {!Nodehost} processes,
    watch their heartbeats, drive fault scenarios across process
    boundaries, and collect the merged result.

    This is the {e only} module allowed to use process-control primitives
    ([Unix.create_process], [Unix.kill], [Unix.waitpid]) — the sf_lint
    [no-raw-process] rule confines them here, the way [no-raw-backoff]
    confines sleeping to {!Sf_resil.Backoff}.

    Scenario realization: the loss model runs per-process at each host's
    senders; [partition\@A-B:K] windows become [filter] commands to every
    host's control socket; [crash\@A-B:LO-HI] windows become real
    [kill -9] of the owning processes at round [A] and fresh spawns at
    round [B].  Delay/corrupt windows have no cross-process realization
    and are rejected by {!make_config}.  A host that dies unexpectedly or
    falls silent past the heartbeat timeout is killed (if needed) and
    respawned under capped exponential {!Sf_resil.Backoff}, scheduled on
    the event-loop clock — the controller never sleeps. *)

type host_outcome = {
  index : int;
  views : (int * Sf_core.View.entry list) list;
      (** final views of the host's owned nodes, as reported at stop *)
  stats : (string * float) list;
      (** the host's [stats] line, key by key (actions, sent, batches,
          frames, p50_us, p99_us, ...) *)
  bye : bool;  (** the host completed the shutdown protocol *)
  respawns : int;
}

type outcome = {
  hosts : host_outcome list;
  merged_views : (int * Sf_core.View.entry list) list;
      (** all hosts' views merged and sorted by node id — the
          post-heal global state the M1/parity/connectivity gates check *)
  heartbeats : int;
  kills : int;  (** deliberate SIGKILLs (crash windows + wedged hosts) *)
  respawns : int;
  hb_timeouts : int;
  unexpected_deaths : int;
  wall_seconds : float;
}

type config

val make_config :
  ?binary:string ->          (* node-host executable; default: next to
                                Sys.executable_name, falling back to
                                ../bin/sf_nodehost.exe *)
  ?view_size:int ->
  ?lower_threshold:int ->
  ?out_degree:int ->         (* 0 (default): [Protocol.start_degree] *)
  ?loss_rate:float ->
  ?period:float ->
  ?resilience:bool ->        (* default true *)
  ?heartbeat:float ->
  ?hb_timeout:float ->
  ?log:(string -> unit) ->   (* progress lines; silent by default *)
  hosts:int ->
  nodes_per_host:int ->
  base_port:int ->           (* node i at base_port + i; the heartbeat sink
                                at base_port - 1; host j's control socket
                                at base_port - 2 - j *)
  scenario:Sf_faults.Scenario.t ->
  seed:int ->
  duration:float ->          (* seconds of chaos before shutdown *)
  unit ->
  config
(** Raises [Invalid_argument] on a bad port range or a scenario with
    delay/corrupt windows. *)

val run : config -> outcome
(** Spawn the hosts, run the plan, shut down (heal everything, lift
    filters, [stop] each host, escalate SIGTERM → SIGKILL on stragglers)
    and return the merged outcome.  Kills every child before re-raising
    on error. *)
