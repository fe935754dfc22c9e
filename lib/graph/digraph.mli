(** Directed multigraph representing a membership graph (paper, section 4):
    an edge (u,v) with multiplicity m means v occupies m entries of u's local
    view. *)

type t

val create : ?initial_capacity:int -> unit -> t

val ensure_vertex : t -> int -> unit
(** Register a vertex (idempotent); isolated vertices count in
    connectivity. *)

val vertex_count : t -> int
val edge_count : t -> int

val vertices : t -> int list
(** All registered vertices, unordered. *)

val add_edge : t -> int -> int -> unit
(** Add one instance of edge (u,v), registering endpoints. *)

val remove_edge : t -> int -> int -> unit
(** Remove one instance; raises if absent. *)

val multiplicity : t -> int -> int -> int

val out_degree : t -> int -> int
(** d(u): number of non-empty view entries, counting multiplicity. *)

val in_degree : t -> int -> int
(** din(u), counting multiplicity. *)

val sum_degree : t -> int -> int
(** ds(u) = d(u) + 2 din(u) (Definition 6.1). *)

val out_neighbors : t -> int -> int list
(** Distinct out-neighbors. *)

val in_neighbors : t -> int -> int list
(** Distinct in-neighbors. *)

val iter_edges : (int -> int -> int -> unit) -> t -> unit
(** [iter_edges f g] calls [f u v multiplicity] per distinct edge. *)

val self_loop_count : t -> int
(** Total multiplicity of self-edges — always dependent entries per the
    paper's edge labelling. *)

val parallel_edge_count : t -> int
(** Count of redundant parallel edge instances (multiplicity minus one per
    distinct edge). *)

val weakly_connected_components : t -> int list list
val is_weakly_connected : t -> bool

val out_degree_array : t -> int array

type degree_statistics = {
  out_degrees : Sf_stats.Summary.t;
  in_degrees : Sf_stats.Summary.t;
  sum_degrees : Sf_stats.Summary.t;
  self_loops : int;
  parallel_edges : int;
}

val degree_statistics : t -> degree_statistics

val copy : t -> t

val equal : t -> t -> bool
(** Same vertices and edge multiplicities. *)

val pp : Format.formatter -> t -> unit
