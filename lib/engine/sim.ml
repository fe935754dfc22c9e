(* Discrete-event simulation core: a virtual clock and an event queue of
   thunks.  Event handlers schedule further events; the loop runs until the
   queue drains, a time horizon passes, or an event budget is exhausted. *)

type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable now : float;
  mutable executed : int;
  (* Post-event hook: runs after every executed event.  Used by the
     Sf_check audit layer to interleave invariant scans with timed runs. *)
  mutable monitor : (unit -> unit) option;
}

let create () =
  {
    queue = Event_queue.create ();
    now = 0.;
    executed = 0;
    monitor = None;
  }

let set_monitor t monitor = t.monitor <- monitor

let now t = t.now

let schedule t ~delay f =
  if delay < 0. then invalid_arg "Sim.schedule: negative delay";
  Event_queue.push t.queue ~time:(t.now +. delay) f

type outcome = Drained | Reached_horizon | Budget_exhausted

let run ?(horizon = infinity) ?(max_events = max_int) t =
  let rec loop () =
    if t.executed >= max_events then Budget_exhausted
    else
      match Event_queue.peek t.queue with
      | None -> Drained
      | Some (time, _) when time > horizon -> Reached_horizon
      | Some _ ->
        (match Event_queue.pop t.queue with
        | None -> Drained
        | Some (time, f) ->
          t.now <- time;
          t.executed <- t.executed + 1;
          f ();
          (match t.monitor with Some m -> m () | None -> ());
          loop ())
  in
  let outcome = loop () in
  (* When stopping on the horizon, advance the clock to it so periodic
     processes resume cleanly on the next run. *)
  (match outcome with
  | Reached_horizon when horizon < infinity -> t.now <- horizon
  | _ -> ());
  outcome
