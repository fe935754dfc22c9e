(** Metrics registry: named counters, gauges and log-bucketed histograms.

    All metrics are allocated once at registration (get-or-create by
    name); the update operations are O(1) field writes or a single array
    increment, so the hot gossip path pays the same cost as the ad-hoc
    mutable counters this registry replaced.

    Histograms are HDR-style: base-2 octaves split into
    {!sub_buckets_per_octave} linear sub-buckets each.  Bucket boundaries
    are dyadic rationals so the value->bucket mapping is exact at the
    boundaries, the maximal relative quantile error is
    [1 / sub_buckets_per_octave], and quantiles are clamped to the exact
    observed [min, max] (a single-valued histogram round-trips exactly).

    Exports ({!to_prometheus}, {!to_csv}, {!to_json}) walk the registry in
    name order: snapshots of equal state are byte-identical. *)

type t
(** A registry. *)

val create : unit -> t

(** {2 Counters} *)

type counter

val counter : t -> string -> counter
(** Get or create.  Names must match [[A-Za-z0-9_:]+]; registering the
    same name as a different metric kind raises [Invalid_argument]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int
val find_counter : t -> string -> counter option

(** {2 Gauges} *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val level : gauge -> float

(** {2 Histograms} *)

type histogram

val histogram : t -> string -> histogram
val observe : histogram -> float -> unit
val observe_ns : histogram -> int -> unit
(** [observe_ns h ns] observes [ns] nanoseconds as [ns * 1e-9] seconds.
    It takes an int, so a native caller boxes nothing and the call
    allocates nothing; {!observe}'s float argument is boxed whenever the
    caller computed it. *)

val observations : histogram -> int
val total : histogram -> float
val minimum : histogram -> float  (** [nan] when empty *)

val maximum : histogram -> float  (** [nan] when empty *)

val mean : histogram -> float  (** [nan] when empty *)

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0, 1]: the lower bound of the first bucket
    whose cumulative count reaches [ceil (q * count)], clamped to the
    observed [min, max].  [nan] when empty. *)


(** {2 Bucketing scheme} (exposed for boundary-exactness tests) *)

val sub_buckets_per_octave : int
val bucket_count : int

val bucket_of_value : float -> int
(** Zero, negatives, NaN and underflow map to bucket 0; overflow clamps to
    the last bucket. *)

val bucket_lower : int -> float
(** Inclusive lower bound of a bucket (0. for bucket 0). *)

val bucket_upper : int -> float
(** Exclusive upper bound (infinity for the final bucket). *)

(** {2 Exporters} *)

val to_prometheus : t -> string
(** Prometheus text exposition format, metrics in name order. *)

val to_csv : t -> string
(** [kind,name,field,value] rows, metrics in name order. *)

val to_json : t -> Json.t
(** One field per metric, in name order; histograms export
    count/sum/min/max and p50/p90/p99. *)
