(** Session-based churn: Poisson arrivals with exponential or heavy-tailed
    (Pareto) session lengths, driving a {!Runner}. *)

type lifetime =
  | Exponential of float  (** mean lifetime in rounds *)
  | Pareto of { shape : float; minimum : float }
      (** heavy-tailed sessions; mean shape*minimum/(shape-1) for shape>1 *)

val mean_lifetime : lifetime -> float

val sample_lifetime : Sf_prng.Rng.t -> lifetime -> float

type t

val create :
  ?recover:bool ->
  runner:Runner.t ->
  seed:int ->
  lifetime:lifetime ->
  arrival_rate:float ->
  unit ->
  t
(** Attach a session process to a runner. [arrival_rate] is the expected
    number of joins per round; in equilibrium the population hovers near
    arrival_rate * mean_lifetime. [recover] (default true) runs the
    section 5 repair pass ({!Runner.repair}) each round. *)

val run_round : t -> unit
val run : t -> rounds:int -> unit

type statistics = {
  rounds : int;
  population : int;
  joins : int;
  leaves : int;
  reconnections : int;  (** stragglers repaired, by reconnection or rebootstrap *)
}

val statistics : t -> statistics
