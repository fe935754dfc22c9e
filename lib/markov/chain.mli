(** Finite Markov chains with sparse row-stochastic matrices.

    Provides the generic machinery behind the paper's analyses: ergodicity
    checks, stationary distributions by power iteration, and step-distance
    diagnostics. *)

type t

val size : t -> int

val of_weighted_edges : size:int -> (int * int * float) list -> t
(** Build from weighted edges; duplicate edges accumulate, rows normalize.
    Weightless rows become absorbing self-loops. *)

val of_rows : size:int -> (int -> (int * float) list) -> t
(** Build from a per-row generator of (successor, weight) lists. *)

val is_irreducible : t -> bool
(** The support digraph is strongly connected. *)

val period : t -> int
(** Period of the chain (1 = aperiodic). Meaningful for irreducible
    chains. *)

val is_aperiodic : t -> bool
val is_ergodic : t -> bool

val step : t -> float array -> float array
(** One distribution step p -> pP. *)

val tv_distance : float array -> float array -> float

val point_distribution : size:int -> int -> float array

type stationary_result = {
  distribution : float array;
  iterations : int;
  residual : float;
}

val stationary :
  ?tolerance:float ->
  ?max_iterations:int ->
  ?initial:float array ->
  t ->
  stationary_result
(** Stationary distribution by lazy power iteration ((I+P)/2, so periodic
    chains also converge). *)

val expected_hitting_time :
  ?tolerance:float -> ?max_sweeps:int -> t -> source:int -> target:int -> float
(** Expected steps to first reach [target] from [source] (Gauss-Seidel);
    [nan] on non-convergence, [infinity] if unreachable mass exists. *)

val sample_step : t -> uniform:(unit -> float) -> int -> int
(** Draw the next state using an external uniform(0,1) source. *)
