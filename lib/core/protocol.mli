(** The Send & Forget protocol (paper, Figure 5.1), split into the two
    atomic steps of its non-atomic action: initiate and receive.

    The step rule is written once, as the allocation-free row kernel
    {!initiate_row}/{!receive_row} over one row of a {!View.Flat} store,
    with the message in a reusable {!row_message}.  The sequential
    {!Runner} and the sharded engine ({!Runner.Sharded}) run the kernel
    on their world stores, the UDP driver on the rows of its owned
    nodes' store.  Every engine therefore applies the same rule. *)

type config = {
  view_size : int;        (** s: number of view slots, even, >= 6 *)
  lower_threshold : int;  (** dL: outdegree at which sends duplicate *)
}

val make_config : view_size:int -> lower_threshold:int -> config
(** Validates the paper's constraints: s even, s >= 6, dL even,
    0 <= dL <= s - 6. *)

val start_degree : config -> n:int -> int
(** The even start outdegree of an [n]-node overlay, midway between dL
    and s and below [n]: (s + dL) / 2, capped at [n - 1], rounded down
    to even, and at least 2.  Every engine's default start topology
    uses it. *)

type message = {
  reinforcement : View.entry;  (** the sender's own id ([u] in [u,w]) *)
  mixing : View.entry;         (** the forwarded id ([w] in [u,w]) *)
}
(** One S&F message with boxed entries: the form of the codec's batch
    API ([Sf_net.Codec.encode_batch]). *)

(** {1 The row kernel} *)

type row_message = {
  mutable duplicated : bool;  (** the sender kept both entries (d(u) <= dL) *)
  mutable r_id : int;         (** reinforcement: the sender's own id *)
  mutable r_serial : int;
  mutable r_anchor : int;     (** [-1] for none *)
  mutable r_born : int;
  mutable m_id : int;         (** mixing: the forwarded id *)
  mutable m_serial : int;
  mutable m_anchor : int;     (** [-1] for none *)
  mutable m_born : int;
}
(** One S&F message in flat form, the two instances of {!message} as
    ints: a reusable buffer that {!initiate_row} writes and
    {!receive_row} reads. *)

val row_message : unit -> row_message
(** A fresh buffer. *)

val initiate_row :
  Sf_prng.Rng.t ->
  View.Flat.t ->
  int ->
  owner:int ->
  dl:int ->
  born:int ->
  mint:(unit -> int) ->
  row_message ->
  int
(** [initiate_row rng store u ~owner ~dl ~born ~mint msg] is the initiate
    step at row [u], the view of node [owner] (the row index itself in a
    world store, [0] for a single view): draws two distinct slots
    uniformly over the allocated row.  If either is empty it returns [-1]
    (a self-loop) and changes nothing.  Otherwise it returns the target
    id and writes the message into [msg]: the reinforcement is [owner]
    with a fresh serial, born [born]; the mixing instance is the
    forwarded entry.  When [degree > dl] both entries are removed
    ({!View.Flat.remove}, the higher slot first), the
    forwarded instance keeps its serial and born stamp, and neither
    instance is anchored.  Otherwise the entries are duplicated (kept),
    the mixing instance is a fresh copy born [born], and both are
    anchored at [owner].  [mint] is called once for the reinforcement serial,
    then once more for the mixing serial when duplicated.
    Allocation-free. *)

val row_fits : View.Flat.t -> row_message -> bool
(** Both instances satisfy {!View.Flat.fits}: the precondition of
    {!receive_row}.  A caller fed by the network tests it first. *)

val receive_row : Sf_prng.Rng.t -> View.Flat.t -> int -> row_message -> bool
(** [receive_row rng store u msg] is the receive step at row [u]:
    accepts when both ids fit within the row's view size s
    ([s - degree >= 2]), inserting the reinforcement then the mixing
    instance at uniform positions ({!View.Flat.insert}, one draw each),
    and returns [true]; otherwise deletes both and returns [false].
    Reads every field of [msg] but [duplicated].  Raises
    [Invalid_argument], changing nothing, unless {!row_fits} holds.
    Allocation-free. *)

(** {1 The install rule}

    Every view filled from ids rather than by a receive (a start
    topology, a join, a repair, a crash-restart rejoin) is filled here.
    Both functions clear row [u] first, mint fresh serials with [mint],
    born [born], and write slots 0, 1, 2, … in order.  That draws
    nothing and loses nothing: {!initiate_row} draws its slot pair
    uniformly, so an entry's slot does not change what it sends, and
    every later {!View.Flat.insert} and {!View.Flat.remove} moves the
    row towards a uniformly random order, the order a receive keeps. *)

val install_ids :
  View.Flat.t -> int -> int array -> born:int -> mint:(unit -> int) -> unit
(** [install_ids store u ids ~born ~mint] writes [ids], unanchored, in
    array order: the start topology and a crash-restart's reset to the
    node's own first ids.
    Raises [Invalid_argument], changing nothing, when [ids] has more
    entries than the row has slots.  Allocation-free. *)

val install_copy :
  View.Flat.t ->
  int ->
  owner:int ->
  donor:int ->
  from:View.Flat.t ->
  from_row:int ->
  dl:int ->
  live:(int -> bool) ->
  born:int ->
  mint:(unit -> int) ->
  int
(** [install_copy store u ~owner ~donor ~from ~from_row ~dl ~live ~born
    ~mint] is the joining rule (section 6.5) for node [owner] at row [u]:
    [donor]'s id, then the ids of the donor's view (row [from_row] of
    [from]) in slot order, skipping [owner]'s own id and every id [live]
    rejects, up to max(2, dL) entries; padded with the donor's id up to
    max(2, dL) entries (capped at the row's even size), so the joiner
    starts at outdegree dL as section 6.5 assumes, and even (Observation
    5.1).  Every entry is anchored at [donor]: a copy the donor keeps,
    the dependence duplication creates.  The donor row is read after row
    [u] is cleared, so a node that copies its own row gets max(2, dL)
    copies of [donor].
    Returns the number of entries installed.  Allocation-free. *)
