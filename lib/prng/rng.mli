(** Deterministic pseudo-random number generation (Xoshiro256** seeded via
    SplitMix64).

    Every stochastic component of the repository draws from an explicit
    generator state, so all experiments are reproducible from their seeds.
    Use {!split} to derive independent sub-streams for concurrent
    components. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed. *)

val split : t -> t
(** [split t] derives an independent child generator, advancing [t]. *)

val copy : t -> t
(** [copy t] snapshots the generator state. *)

val equal : t -> t -> bool
(** [equal a b] holds when both generators sit at the same position of the
    same stream: every future draw agrees. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [0,1). *)

val float_bits : t -> int
(** The draw {!float} scales, as an int in [0, 2^53): [float_of_int
    (float_bits t) *. 0x1p-53] equals [float t] bit for bit and leaves the
    stream at the same position.  It returns an unboxed int, so a caller
    that scales it locally allocates nothing per draw. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); unbiased. Raises
    [Invalid_argument] for non-positive bounds. *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] is uniform in [lo, hi] inclusive. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] succeeds with probability [p]. *)

val other : t -> int -> int -> int
(** [other t n i] is uniform over [0, n) without [i], from one draw; [i]
    must lie in [0, n) and [n >= 2].  Drawing [i = int t n] and then
    [other t n i] picks an ordered pair of distinct indices uniformly: this
    is exactly the entry selection of S&F-InitiateAction. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sample_indices : t -> n:int -> k:int -> int array
(** [sample_indices t ~n ~k] draws [k] distinct indices from [0, n). *)

val exponential : t -> float -> float
(** Exponential variate with the given rate. *)

val geometric : t -> float -> int
(** Failures before first success with the given success probability. *)

val categorical : t -> float array -> int
(** Index distributed according to an unnormalized weight vector. *)
