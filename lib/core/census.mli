(** Dependence census over views — the mechanical realization of the paper's
    edge labelling (section 2). Shared by S&F property monitors and baseline
    protocols. *)

type t = {
  total_entries : int;
  self_edges : int;
  anchored : int;          (** instances created where the sender retained a copy *)
  parallel_surplus : int;  (** second-and-later copies of an id within one view *)
  dependent_entries : int; (** union of the three labels above *)
  alpha : float;           (** measured fraction of independent entries *)
}

val of_views : (int * View.t) Seq.t -> t
(** [of_views views] takes (owner id, view) pairs: the reported views of
    the UDP driver and the cluster. *)

val of_flat : View.Flat.t -> t
(** Same labelling over a packed {!View.Flat} world (owner of row [u] is
    node [u]).  Both functions run one row labeller, which neither
    materializes entries nor hashes: beyond the result, a census allocates
    a constant few words at any [n]. *)

val pp : Format.formatter -> t -> unit
