(** The optimization variants sketched at the end of the paper's section 5
    (mark-and-undelete, replace-when-full, batched sends), implemented as a
    parameterized S&F for ablation experiments. *)

type options = {
  mark_and_undelete : bool;
      (** mark sent entries instead of clearing; undelete instead of
          duplicating at the threshold *)
  replace_when_full : bool;
      (** a full receiver overwrites random slots instead of deleting *)
  batch : int;  (** forwarded ids per message (>= 1); 1 = standard S&F *)
}

val standard : options
(** All options off, batch 1 — behaviourally the standard protocol. *)

type t

val create :
  seed:int ->
  n:int ->
  view_size:int ->
  lower_threshold:int ->
  loss_rate:float ->
  options:options ->
  topology:Topology.t ->
  t

val step : t -> unit
val run_rounds : t -> int -> unit

val store : t -> View.Flat.t
(** The world: row [u] is node [u]'s view, unmarked entries only.  Every
    row is live; read it with {!Properties} and {!Census.of_flat}. *)

type counters = {
  actions : int;
  sends : int;
  losses : int;
  duplications : int;
  undeletions : int;
  deletions : int;
}

val counters : t -> counters
