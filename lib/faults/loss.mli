(** Stateful message-loss processes.

    The paper analyzes uniform i.i.d. loss only (section 4.1) and explicitly
    leaves correlated regimes open.  This module provides the loss processes
    the fault layer composes:

    - {b i.i.d.} — every message drops independently with the driver's
      configured probability: the paper's model, byte-identical to the
      pre-fault-layer behaviour (one Bernoulli draw per send);
    - {b Gilbert–Elliott} — a two-state Markov chain (Good/Bad) stepped once
      per send; each state has its own drop probability, producing loss
      bursts whose mean length is the Bad-state sojourn time;
    - {b per-link} — an arbitrary (src, dst) → probability map for
      asymmetric or last-mile loss.

    {2 Gilbert–Elliott stationary mapping}

    With transition probabilities [p_good_to_bad] and [p_bad_to_good], the
    stationary probability of the Bad state is

    {[ pi_bad = p_good_to_bad / (p_good_to_bad + p_bad_to_good) ]}

    and the stationary (long-run mean) loss rate is

    {[ (1 - pi_bad) * loss_good + pi_bad * loss_bad ]}

    {!gilbert_elliott} inverts this mapping: given a target mean loss [L]
    and a mean burst length [B] (with the defaults [loss_good = 0],
    [loss_bad = 1], a burst is exactly a Bad-state sojourn) it sets
    [p_bad_to_good = 1/B] and [p_good_to_bad = p_bad_to_good * (L -
    loss_good) / (loss_bad - L)], so that a bursty run is directly
    comparable to an i.i.d. run at the paper's [loss = L]. *)

type ge = {
  p_good_to_bad : float;  (** per-send transition probability Good → Bad *)
  p_bad_to_good : float;  (** per-send transition probability Bad → Good *)
  loss_good : float;      (** drop probability while Good *)
  loss_bad : float;       (** drop probability while Bad *)
}

type model =
  | Iid
      (** one Bernoulli draw per send at the driver's configured rate (the
          paper's model; preserves the exact RNG stream of a fault-free
          run) *)
  | Gilbert_elliott of ge
  | Per_link of (int -> int -> float)
      (** [f src dst] is the drop probability of the (src, dst) link *)

val gilbert_elliott :
  ?loss_good:float -> ?loss_bad:float -> mean_loss:float -> mean_burst:float -> unit -> ge
(** Build a Gilbert–Elliott chain whose stationary loss rate is exactly
    [mean_loss] and whose mean Bad-state sojourn is [mean_burst] sends.
    Defaults: [loss_good = 0.], [loss_bad = 1.].  Raises [Invalid_argument]
    unless [0 <= loss_good <= mean_loss < loss_bad <= 1] and
    [mean_burst >= 1] and the implied transition probabilities lie in
    [0, 1]. *)

val stationary_loss : ge -> float
(** The long-run mean loss rate of the chain (see the mapping above). *)

val mean_burst_length : ge -> float
(** Mean Bad-state sojourn in sends: [1 / p_bad_to_good]. *)

type t
(** A stateful loss process (the Gilbert–Elliott chain position). *)

val create : model -> t

val model : t -> model

val drop : t -> Sf_prng.Rng.t -> chance:float -> src:int -> dst:int -> bool
(** One loss decision.  [chance] is the driver's configured uniform drop
    probability, used only by {!Iid} so that the default path replays the
    exact pre-fault RNG stream.  Gilbert–Elliott
    first steps the chain (one draw), then draws the loss in the new state;
    [Per_link] draws at [f src dst]. *)

val in_burst : t -> bool
(** [true] iff a Gilbert–Elliott process currently sits in its Bad state. *)
