(* Recovery supervision under backoff.

   The section 5 joining rule gives a node two escalating remedies when
   its neighborhood dies — probe previously seen ids, then copy a live
   view out of band — and lib/core implements both, once, in its repair
   pass ([Sf_core.Overlay.repair], which [Runner.repair] and
   [Runner.Sharded] run).
   What none of them decide is *when*: a driver that fires them every
   round hammers the rendezvous service exactly when the system is least
   healthy (the thundering-herd failure mode), and one that never fires
   them leaves permanent splits in place.

   The supervisor is that scheduling state machine.  It swings between
   two states:

   - [Ready]: the last health probe found nothing to repair; probes
     continue at the driver's cadence and the backoff is reset.
   - [Backing_off until]: a repair was attempted; no further probe is
     allowed before [until] (rounds), with the wait growing geometrically
     under [Backoff] while repairs keep failing.

   The module is driver-agnostic: every engine runs the same cycle,
   [step], and passes its own probe-and-repair pass (weak connectivity of
   the live overlay in [Runner] and [Runner.Sharded], degree-0 owned
   nodes in [Sf_net.Driver]).  All timing is in rounds from the caller's injected
   clock; jitter comes from the backoff's injected PRNG. *)

type state = Ready | Backing_off of float  (* no probe before this time *)

type t = {
  backoff : Backoff.t;
  mutable state : state;
  mutable pending : bool;    (* an attempt awaits its confirming probe *)
  mutable attempts : int;    (* repair attempts charged *)
  mutable recoveries : int;  (* attempts confirmed successful *)
  mutable last_delay : float;
}

let create ~backoff () =
  {
    backoff;
    state = Ready;
    pending = false;
    attempts = 0;
    recoveries = 0;
    last_delay = 0.;
  }

let due t ~now =
  match t.state with Ready -> true | Backing_off until -> now >= until

(* Charge one repair attempt, pending until a probe confirms it: the next
   probe is gated [Backoff.next] rounds away.  Returns the delay so
   drivers can export it (backoff histograms). *)
let record_attempt t ~now =
  t.attempts <- t.attempts + 1;
  t.pending <- true;
  let delay = Backoff.next t.backoff in
  t.last_delay <- delay;
  t.state <- Backing_off (now +. delay);
  delay

(* Nothing was wrong in the first place (a probe on the fast path): make
   sure a stale backoff window cannot outlive the problem. *)
let record_healthy t =
  Backoff.reset t.backoff;
  t.state <- Ready

(* The follow-up probe found the system healthy again: count the recovery
   and drop back to the fast path. *)
let record_success t =
  t.recoveries <- t.recoveries + 1;
  t.pending <- false;
  record_healthy t

type outcome = Not_due | Healthy | Recovered | Attempted

(* The probe -> attempt -> confirm cycle: probe only when due; a probe
   that had to repair charges an attempt, and the next due probe that
   finds the overlay healthy confirms it. *)
let step t ~now probe_and_repair =
  if not (due t ~now) then Not_due
  else if not (probe_and_repair ()) then begin
    ignore (record_attempt t ~now);
    Attempted
  end
  else if t.pending then begin
    record_success t;
    Recovered
  end
  else begin
    record_healthy t;
    Healthy
  end

let attempts t = t.attempts
let recoveries t = t.recoveries
let last_delay t = t.last_delay
