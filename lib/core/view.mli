(** Local views: fixed arrays of [s] slots holding id instances
    (paper, section 2).

    Instances carry a unique [serial] (followed for decay and temporal
    independence measurements), an optional [anchor] (the node whose view
    the instance depends on, set by duplication — Property M4), and a [born]
    stamp: the action count in a single view or a {!create_rows} store,
    the round in a {!Flat.create} world store.

    Every view lives in the one flat layout, {!Flat}: a single view is
    row 0 of a one-node store, so no per-entry heap objects exist and the
    slot encoding, the cached degree, the empty-slot scan and the
    occupied-slot draw are written once.  {!entry} values are
    materialized on demand by {!entry_at}/{!row_entries}, and on a
    single view by {!get}/{!iter}/{!fold}; hot paths that only need ids
    can use the allocation-free {!Flat.id_at}. *)

type entry = {
  id : int;
  serial : int;
  anchor : int option;
  born : int;
}

(** Packed whole-world views: every view of an [n]-node world in four
    contiguous columns indexed by [node * view_size + slot], plus a cached
    per-node degree array.  Ids, anchors and born stamps are 32-bit lanes
    (int32 Bigarrays); serials and degrees are unboxed [int array]s.  A
    store made by {!create_rows}, a single view ({!t}) included, keeps
    its born stamps, cumulative action counts with no bound, in a 63-bit
    [int array] instead.  A
    slot is empty when its id is [-1]; an anchor of [-1] encodes "none".
    This is the state layout of every engine: the sharded runner
    ({!Sf_core.Runner.Sharded}) keeps its world in one store; the
    sequential runner, the baselines and the variants keep theirs, and
    the UDP driver its owned nodes, in {!create_rows} stores; and a
    single view ({!t}), the report and transfer type, is a one-node
    store.  No per-node or per-entry heap
    objects, so a million-node world is a handful of flat arrays the GC
    never walks.
    Every accessor takes and returns [int]. *)
module Flat : sig
  type t

  val create : nodes:int -> view_size:int -> t
  (** A world store, born stamps in 32-bit lanes.  All slots empty.  20
      bytes a slot, allocated once.  Raises
      [Invalid_argument] before allocating unless
      [1 <= nodes <= 2^31 - 1] and [view_size >= 2]. *)

  val node_count : t -> int
  val view_size : t -> int

  val degree : t -> int -> int
  (** [degree t u]: cached outdegree of node [u]. *)

  val id_at : t -> int -> int -> int
  (** [id_at t u slot]: id in the slot, or [-1] when empty. *)

  val serial_at : t -> int -> int -> int
  val anchor_at : t -> int -> int -> int
  (** [-1] when the instance has no anchor. *)

  val born_at : t -> int -> int -> int

  val set :
    t -> int -> int -> id:int -> serial:int -> anchor:int -> born:int -> unit
  (** [set t u slot ~id ~serial ~anchor ~born] installs an instance
      ([anchor] is [-1] for none).  Raises [Invalid_argument], leaving the
      store untouched, unless {!fits} holds. *)

  val fits : t -> id:int -> anchor:int -> born:int -> bool
  (** Whether {!set} accepts the instance: [id] in [[0, 2^31)] and
      [anchor] in [[-1, 2^31)], both stored in 32-bit lanes, and — in a
      {!create} world store, not in a {!create_rows} one — [born] in
      [[0, 2^31)]. *)

  val clear : t -> int -> int -> unit

  val clear_row : t -> int -> int
  (** [clear_row t u] empties every slot of node [u] and returns the
      degree it had.  Allocation-free. *)

  val random_empty_slot : t -> int -> Sf_prng.Rng.t -> int
  (** Uniformly random empty slot of node [u], [-1] when full.
      Allocation-free. *)

  val random_occupied_slot : t -> int -> Sf_prng.Rng.t -> except:int -> int
  (** [random_occupied_slot t u rng ~except]: a uniformly random slot of
      node [u] holding an id other than [except] ([-1] excludes
      nothing), or [-1] when there is none.  The draw is
      [Rng.choose] over those slots in ascending order: one [Rng.int]
      on success, none on failure.  Allocation-free. *)

  val recount_degree : t -> int -> int
  (** Occupied-slot recount for node [u] — the audit cross-check for the
      cached degree array. *)

  val total_edges : t -> int
  (** Sum of all outdegrees (recomputed from the degree array). *)

  val equal : t -> t -> bool
  (** Bit-for-bit store equality — the domain-count determinism oracle. *)
end

type t = Flat.t
(** A view is row 0 of a one-node store: every {!Flat} function applies
    to it with node [0]. *)

val create_rows : nodes:int -> int -> Flat.t
(** [create_rows ~nodes s]: [nodes] all-empty views of [s] slots, the
    rows of one store that stamps [born] with action counts, as a single
    view does.  Every {!Flat} function applies to it.  Raises
    [Invalid_argument] unless [nodes >= 1] and [s >= 2]. *)

val create : int -> t
(** [create s] makes an all-empty view of [s] slots: [create_rows
    ~nodes:1 s]. *)

val grow_rows : Flat.t -> nodes:int -> Flat.t
(** [grow_rows store ~nodes]: a new store of [nodes] rows, the same view
    size and born layout, whose first rows are bit-identical copies of
    [store]'s and whose other rows are empty.  [store] is left as it
    is.  Raises [Invalid_argument] when [nodes] is below [store]'s row
    count. *)

val copy_row : Flat.t -> int -> t
(** [copy_row store u]: a single view holding row [u]'s instances in
    their slots. *)

val entry_at : Flat.t -> int -> int -> entry
(** [entry_at store u slot]: the instance in an occupied slot of row
    [u], materialized. *)

val set_entry : Flat.t -> int -> int -> entry -> unit
(** [set_entry store u slot entry] installs [entry], like {!Flat.set}
    (which raises [Invalid_argument], leaving the store untouched, on
    an instance outside its lanes; any [born] fits a {!create_rows}
    store). *)

val row_entries : Flat.t -> int -> entry list
(** Row [u]'s instances in slot order. *)

(** {1 A single view} *)

val size : t -> int

val degree : t -> int
(** d(u): number of non-empty slots (cached; audited against a recount by
    [Sf_check]). *)

val is_full : t -> bool

val get : t -> int -> entry option
val set : t -> int -> entry -> unit
(** [set_entry] on row 0. *)

val clear : t -> int -> unit
val clear_all : t -> unit

val id_at : t -> int -> int
(** [id_at t i] is the id in slot [i], or [-1] when the slot is empty.
    Allocation-free. *)

val iter : (int -> entry -> unit) -> t -> unit
(** Iterate non-empty slots as [f slot entry]. *)

val fold : ('a -> entry -> 'a) -> 'a -> t -> 'a

val ids : t -> int list
(** Ids of all instances, in slot order (with duplicates). *)

val mem : t -> int -> bool
val entries : t -> entry list
