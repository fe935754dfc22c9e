(** Peer-sampling service facade over a running S&F system: applications
    draw random peer ids from evolving local views. *)

val sample :
  ?allow_self:bool -> Runner.t -> Sf_prng.Rng.t -> node_id:int -> int option
(** One uniformly random id from the node's current view ([None] for an
    unknown node or an effectively empty view). Self-ids are excluded unless
    [allow_self].

    Allocation-free: {!View.Flat.random_occupied_slot}.  A successful
    draw consumes exactly one [Rng.int] whose bound is the candidate
    count; a [None] result consumes no randomness. *)

val sample_many :
  ?allow_self:bool ->
  Runner.t ->
  Sf_prng.Rng.t ->
  node_id:int ->
  k:int ->
  int list
(** [k] samples with replacement from the current view, newest draw first.

    Contract: exactly [k] independent draw attempts are always made.  An
    attempt that fails (see {!sample}) contributes nothing to the result
    but does {e not} abort the remaining attempts, so the result is
    shorter than [k] only by the number of failed draws — never silently
    truncated by one failure.  Fewer than [k] ids therefore means some
    attempts found no eligible peer, not that sampling stopped early. *)
