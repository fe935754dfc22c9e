(** Churn experiments (paper, section 6.5): decay of departed ids and
    integration of joiners. All functions advance the runner. *)

val leave_decay : Runner.t -> ?victim:int -> rounds:int -> unit -> int * int array
(** Remove a node and track instances of its id per round; returns
    (victim id, trace with index 0 = count at departure). *)

val leave_decay_fractions : Runner.t -> repetitions:int -> rounds:int -> float array
(** Average survival fractions over several leave events — the empirical
    counterpart of the Lemma 6.10 bound (Fig 6.4). *)

type join_trace = {
  joiner : int;
  instances : int array;
  out_degrees : int array;
}

val join_integration : Runner.t -> rounds:int -> join_trace
(** Join a node by {!Runner.add_node} — the donor's id and its live ids,
    max(2, dL) entries anchored at the donor — and track its id instances
    and outdegree per round (Lemmas 6.11-6.13, Corollary 6.14). *)

val run_with_churn :
  ?recover:bool -> Runner.t -> rounds:int -> joins:int -> leaves:int -> int
(** Sustained churn: per round, [leaves] departures and [joins] arrivals.
    With [recover], the section 5 repair pass runs each round
    ({!Runner.repair}); returns the number of stragglers it repaired. *)

val recover_connectivity : ?max_rounds:int -> Runner.t -> (int * int) option
(** Heal a split overlay (e.g. after a partition window outlived view
    decay): each round, the root of every live component except the
    largest is repaired ({!Runner.repair} — from a donor of the largest
    component, after its seen ids when it is alone), then one protocol
    round runs.  Returns [Some (rounds, repairs)] once the live overlay
    is weakly connected again ({!Runner.probe}; within [max_rounds],
    default 50), [None] if it is still split. *)
