(** The outcome of one spreading run ({!Flat.run}).

    Message accounting: [messages] counts every send attempt (pre-loss);
    [pushes] the rumor-bearing subset (pushes and pull responses),
    [requests] the pull requests, so [messages = pushes + requests].
    [lost] counts messages eaten by the verdict pipeline (crash window,
    partition, chance/burst loss), [to_dead] those that survived the
    network but arrived at a departed slot, and [duplicates] rumor
    deliveries to already-informed nodes. *)

type t = {
  strategy : Strategy.t;
  fanout : int;
  rounds : int;  (** spreading rounds executed *)
  rounds_to_half : int option;  (** first round with coverage >= 0.5 *)
  rounds_to_target : int option;
      (** first round with coverage >= the configured target *)
  coverage : float array;
      (** live coverage after each round: informed live nodes over
          reachable (live, un-crashed) nodes, clamped to 1 *)
  messages : int;
  pushes : int;
  requests : int;
  duplicates : int;
  lost : int;
  to_dead : int;
}

val final_coverage : t -> float
(** Last entry of [coverage] ([0.] when no round ran). *)

val reached : t -> bool
(** The coverage target was reached within the round budget. *)

val equal : t -> t -> bool

val pp : t Fmt.t

