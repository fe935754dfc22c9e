(** The exact global Markov chain on membership graphs for small systems
    (paper, section 7.1), used to verify Lemmas 7.1/7.5/7.6 mechanically. *)

type params = {
  n : int;
  view_size : int;
  lower_threshold : int;
  loss : float;
}

type state = int list list
(** Per node, the sorted multiset of ids in its view. *)

val transitions : params -> state -> (state * float) list
(** All successors with probabilities (summing to 1), each listed once;
    transitions into partitioned states are summed into the self-loop. *)

val is_weakly_connected_state : n:int -> state -> bool

type result = {
  params : params;
  states : state array;
  chain : Sf_markov.Chain.t;
  stationary : float array;
  is_ergodic : bool;
  stationary_max_min_ratio : float;
      (** 1.0 means exactly uniform over reachable states (Lemma 7.5) *)
  edge_probability : float array array;
      (** P(v in u.lv) in the steady state *)
  mean_entries : float;
  self_edge_fraction : float;
  parallel_fraction : float;
}

exception Too_many_states of int

val explore : ?max_states:int -> params -> initial:state -> result
(** Enumerate the reachable chain from [initial] by BFS, solve for its
    stationary distribution, and compute steady-state statistics.
    Raises {!Too_many_states} past [max_states] (default 500k). *)

val edge_probability_spread : result -> float
(** max/min of P(v in u.lv) over u <> v — Lemma 7.6 predicts exactly 1. *)

val multiplicity_correction : state -> float
(** prod over edges of m_uv! — the number of instance labelings folded into
    one multigraph state. *)

val labeled_uniformity_ratio : result -> float
(** max/min over states of pi(G) * multiplicity_correction(G).  Exactly 1
    when the stationary distribution is uniform over instance-labeled
    membership graphs — the exact form of Lemma 7.5 on this chain. *)
