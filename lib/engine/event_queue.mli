(** Binary min-heap event queue keyed by (time, insertion order), giving
    deterministic ordering for equal timestamps. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:float -> 'a -> unit
val peek : 'a t -> (float * 'a) option

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest entry. *)
