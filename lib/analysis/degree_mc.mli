(** The two-dimensional degree Markov chain of the paper's section 6.2: the
    joint evolution of one node's (outdegree, indegree) under S&F actions,
    solved to the self-consistent fixed point where the chain's transition
    probabilities match its own stationary degree distribution. *)

type weighting =
  | Size_biased
      (** senders of in-edges are weighted by outdegree and firing
          probability, receivers by indegree — the faithful model *)
  | Uniform
      (** naive unweighted model, for the ablation bench *)

type params = {
  view_size : int;
  lower_threshold : int;
  loss : float;
  sum_degree_cap : int;  (** paper's computational cap, default 3s *)
  weighting : weighting;
}

val make_params :
  ?sum_degree_cap:int ->
  ?weighting:weighting ->
  view_size:int ->
  lower_threshold:int ->
  loss:float ->
  unit ->
  params

type chain_inputs = {
  p_full : float;  (** probability a message's receiver has a full view *)
  q_dup : float;   (** probability a fired in-edge's holder duplicates *)
  r_edge : float;  (** per-in-edge firing rate *)
}

type result = {
  params : params;
  states : (int * int) array;  (** index -> (d, din) *)
  joint : float array;         (** stationary joint distribution *)
  outdegree : Sf_stats.Pmf.t;
  indegree : Sf_stats.Pmf.t;
  inputs : chain_inputs;       (** the self-consistent inputs *)
  duplication_probability : float;  (** per send (Lemmas 6.6/6.7) *)
  deletion_probability : float;     (** per send *)
  outer_iterations : int;
  converged : bool;
}

val solve :
  ?initial_state:int * int ->
  ?outer_tolerance:float ->
  ?max_outer_iterations:int ->
  ?stationary_tolerance:float ->
  params ->
  result
(** Run the fixed-point iteration. [initial_state] pins the starting
    (d, din); use (dm/3, dm/3) to reproduce the paper's uniform-sum-degree
    setting of Figure 6.1 (for loss = 0, dL = 0 the sum degree is conserved,
    so the initial state selects the analyzed invariant manifold). *)

val to_chain : result -> Sf_markov.Chain.t
(** The fixed-point transition chain as a generic Markov chain (state order
    matches [states]), for mixing diagnostics. *)

val even_outdegree : result -> Sf_stats.Pmf.t
(** The outdegree marginal restricted to its even support. *)
