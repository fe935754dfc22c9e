(** The section 5 health probe and repair pass of the engines that see
    the whole world as one {!View.Flat} store, row = node id: the
    sequential and timed {!Runner} and {!Runner.Sharded} probe and
    repair; the {!Baselines} and {!Variants} simulators only probe.  (A
    deployed node sees only its own view, so the UDP driver keeps a
    local rule.)

    A probe is a union-find (union by size, path compression) over the
    live rows in increasing order, slots in order; an entry joins its
    row's component only when it names another live node, so self-edges
    and departed ids bridge nothing.  Its two arrays are a {!forest}
    that the engine keeps and the probe re-initialises in place, so a
    probe allocates only its result and the straggler list. *)

type forest
(** The union-find arrays of a probe. *)

val forest : int -> forest
(** Arrays for probes of stores of up to [rows] rows. *)

type t

val probe : forest -> View.Flat.t -> live:(int -> bool) -> t
(** The store's live components, computed in [forest].  The result reads
    the forest's arrays, so it holds until the next probe through the
    same forest.  Raises [Invalid_argument] when the store has more rows
    than the forest. *)

val connected : t -> bool

val stragglers : t -> int list
(** The root of each live component but the largest, ascending.  The
    largest is the first in row order of maximal size: a tie goes to
    the smallest root. *)

val alone : t -> int -> bool
(** [alone p u]: live node [u] is the only member of its component. *)

val donor : t -> Sf_prng.Rng.t -> int -> int
(** [donor p rng v]: a live node other than [v], of the largest
    component and of degree >= 2, or [-1]: up to 64 uniform draws over
    the rows, then a wrap-around scan from the last draw. *)

val repair :
  ?reconnect:(int -> bool) -> install:(int -> donor:int -> unit) -> t -> Sf_prng.Rng.t -> int
(** The repair pass over the stragglers, in order, at most 128 a pass.
    A straggler {!alone} in its component first tries [reconnect] (the
    paper's "probe previously seen ids"; default: fails); otherwise it
    copies a {!donor} through [install] ("copy another node's view"),
    or is skipped when none exists.  Returns the number repaired: [0]
    on a connected probe, at least [1] on a split one whose largest
    component holds a node of degree >= 2. *)
