(** Streaming descriptive statistics (Welford) and array reductions. *)

type t

val create : unit -> t
val add_int : t -> int -> unit

val count : t -> int
val mean : t -> float

val variance : t -> float
(** Sample variance (n-1 denominator); 0 for fewer than two points. *)

val std : t -> float
val min_value : t -> float
val max_value : t -> float

val merge : t -> t -> t
(** Combine two independent summaries. *)

val of_array : float array -> t
val of_int_array : int array -> t

val percentile : float array -> float -> float
(** [percentile xs q] with [q] in [0,1]; linear interpolation. *)
