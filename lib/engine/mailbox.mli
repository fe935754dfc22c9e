(** The message matrix of a bulk-synchronous phase: [shards × shards]
    boxes of flat-encoded messages.

    Box [(src, dst)] holds the messages shard [src] addressed to shard
    [dst].  Row [src] is written only by shard [src] during a phase and
    read by each destination shard after the barrier ({!Par.run}), so the
    matrix needs no lock.  A destination drains its column source shards
    in index order, each box in push order, which makes the drain order
    independent of how shards are packed onto domains.

    Rows have no fixed width: each message is as many ints as its engine
    reserves at {!push}, and their layout belongs to that engine.  A
    matrix keeps its buffers when a row is cleared, so one that outlives
    its phases (a world's, lent to each engine layered on it) stops
    allocating once its boxes have grown to the largest phase's load. *)

type t

val create : shards:int -> t
(** An empty matrix whose boxes hold no buffer: a box allocates room
    for 64 messages at its first push and doubles when full, so a
    matrix nobody pushes into costs no buffers.  Raises
    [Invalid_argument] unless [shards] is positive. *)

val clear : t -> src:int -> unit
(** Empty row [src], keeping its buffers: shard [src] calls it at the
    start of the phase that refills the row. *)

val push : t -> src:int -> dst:int -> width:int -> int
(** Room for one more message of [width] ints in box [(src, dst)]:
    returns the index of its first int in {!ints}[ t ~src ~dst], which
    the caller fills.  Growth replaces the buffer, so read {!ints} after
    the push.  Allocates only when the box grows. *)

val ints : t -> src:int -> dst:int -> int array
(** Box [(src, dst)]'s buffer; its first {!length} cells are the
    messages, in push order. *)

val length : t -> src:int -> dst:int -> int
(** Ints written to box [(src, dst)] since its row was last cleared. *)
