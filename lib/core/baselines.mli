(** Baseline gossip-membership protocols (paper, section 3.1), run in the
    sequential-action model for contrast with S&F:

    - [Shuffle]: delete-on-send bidirectional exchange — no dependence, but
      lost messages destroy ids.
    - [Push_pull]: keep-on-send gossip — loss-immune, but transfers leave
      correlated copies behind (spatial dependence).
    - [Cyclon]: shuffle targeting the oldest view entry — the age rule
      that purges dead ids first.
    - [Push_only]: reinforcement-only pushing of the sender's own id. *)

type kind =
  | Shuffle of { exchange_size : int }
  | Cyclon of { exchange_size : int }
      (** shuffle with oldest-first target selection (age-based failure
          detection) *)
  | Push_pull of { gossip_size : int }
  | Push_only

type t

val create :
  seed:int ->
  n:int ->
  view_size:int ->
  loss_rate:float ->
  kind:kind ->
  topology:Topology.t ->
  t

val run_rounds : t -> int -> unit
(** One round = n actions. *)

val kill : t -> int -> unit
(** Mark a node dead: it stops initiating, drops incoming traffic and
    its view is emptied.  Other views keep its id until they purge it. *)

val revive : t -> int -> bootstrap:int -> unit
(** Bring a killed node back as a fresh incarnation, bootstrapped with up
    to [bootstrap] entries copied from a live view. *)

val is_dead : t -> int -> bool

val dead_entry_fraction : t -> float
(** Share of live-view entries pointing at dead nodes. *)

val total_instances : t -> int
(** Total non-empty view entries (edges) — decays under loss for Shuffle. *)

val store : t -> View.Flat.t
(** The world: row [u] is node [u]'s view, empty while [u] is dead.
    Read it with {!Properties} and {!Census.of_flat}. *)
