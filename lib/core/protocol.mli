(** The Send & Forget protocol (paper, Figure 5.1), split into the two
    atomic steps of its non-atomic action: {!initiate} and {!receive}. *)

type config = {
  view_size : int;        (** s: number of view slots, even, >= 6 *)
  lower_threshold : int;  (** dL: outdegree at which sends duplicate *)
}

val make_config : view_size:int -> lower_threshold:int -> config
(** Validates the paper's constraints: s even, s >= 6, dL even,
    0 <= dL <= s - 6. *)

val clamped_config : capacity:int -> degree:int -> int * int -> config
(** Clamp a controller target [(dL, s)] to one node: [s] never drops
    below the node's current outdegree [degree] (retuning evicts nothing;
    the receive rule stops accepting until decay catches up) nor rises
    above the allocated view [capacity], and [dL] stays a valid even
    value in [[0, s - 6]]. *)

type message = {
  reinforcement : View.entry;  (** the sender's own id ([u] in [u,w]) *)
  mixing : View.entry;         (** the forwarded id ([w] in [u,w]) *)
}

type node = {
  node_id : int;
  view : View.t;
  mutable initiated_actions : int;
  mutable self_loop_actions : int;
  mutable messages_sent : int;
  mutable duplications : int;
  mutable messages_received : int;
  mutable deletions : int;
  mutable seen_ids : int list;
      (** recently received ids (newest first, bounded); the memory the
          section 5 reconnection rule probes *)
}

val create_node : config:config -> node_id:int -> node
(** A node with an empty view (a joiner fills it via {!Topology} or by
    copying ids). *)

val degree : node -> int
(** d(u): current outdegree. *)

type initiate_result =
  | Self_loop
  | Send of { destination : int; message : message; duplicated : bool }

val initiate :
  config ->
  Sf_prng.Rng.t ->
  fresh_serial:(unit -> int) ->
  clock:int ->
  node ->
  initiate_result
(** One initiate step: selects two distinct slots uniformly; on two
    non-empty slots, produces the message to send and either clears the
    slots or (at the threshold) duplicates. The caller transmits the
    message; the sender never learns the outcome. *)

type receive_result = Accepted | Deleted

val receive : config -> Sf_prng.Rng.t -> node -> message -> receive_result
(** One receive step: installs both ids into uniformly chosen empty slots,
    or deletes them when the view is full. *)

val invariant_holds : config -> node -> bool
(** Observation 5.1: outdegree even and within bounds. *)
