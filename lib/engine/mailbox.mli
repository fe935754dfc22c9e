(** The message matrix of a bulk-synchronous phase: [shards × shards]
    boxes of flat-encoded messages, [fields] ints each.

    Box [(src, dst)] holds the messages shard [src] addressed to shard
    [dst].  Row [src] is written only by shard [src] during a phase and
    read by each destination shard after the barrier ({!Par.run}), so the
    matrix needs no lock.  A destination drains its column source shards
    in index order, each box in push order, which makes the drain order
    independent of how shards are packed onto domains.  The layout of a
    message's [fields] ints belongs to the engine that pushes it. *)

type t

val create : shards:int -> fields:int -> t
(** An empty matrix; every box starts with room for 64 messages and
    doubles when full.  Raises [Invalid_argument] unless both arguments
    are positive. *)

val clear : t -> src:int -> unit
(** Empty row [src], keeping its buffers: shard [src] calls it at the
    start of the phase that refills the row. *)

val push : t -> src:int -> dst:int -> int
(** Room for one more message in box [(src, dst)]: returns the index of
    its first field in {!ints}[ t ~src ~dst], which the caller fills.
    Growth replaces the buffer, so read {!ints} after the push.
    Allocates only when the box grows. *)

val ints : t -> src:int -> dst:int -> int array
(** Box [(src, dst)]'s buffer; its first {!length} cells are the
    messages, [fields] ints each, in push order. *)

val length : t -> src:int -> dst:int -> int
(** Ints written to box [(src, dst)] since its row was last cleared. *)
