(** SplitMix64: a fast, well-distributed 64-bit generator, used here to
    expand user seeds into full generator states for {!Rng}.

    Reference: Steele, Lea and Flood, {e Fast splittable pseudorandom
    number generators}, OOPSLA 2014.  The update adds the 64-bit golden
    gamma [0x9E3779B97F4A7C15] (2{^64}/φ, forced odd) to the state and
    finalizes it with the MurmurHash3-style mix of Appendix A — xor-shifts
    by 30, 27 and 31 interleaved with multiplications by
    [0xBF58476D1CE4E5B9] and [0x94D049BB133111EB]. *)

type t

val create : int64 -> t
(** A generator whose state starts at the given seed. *)

val next : t -> int64
(** Advance the state by the golden gamma and return its mixed image.
    Every call yields a fresh value; the sequence has period 2{^64}. *)

val mix_int : int -> int
(** The stateless avalanche finalizer of {!next} applied to a native int:
    a deterministic, well-distributed, non-negative hash of the key bits
    alone.  Use it as the [hash] of [Hashtbl.Make] functors over int-like
    keys where iteration order must not depend on the polymorphic
    [Hashtbl.hash] (whose behaviour the determinism lint forbids). *)

val expand : int64 -> int -> int64 array
(** [expand seed n] is the first [n] outputs of a generator seeded with
    [seed] — the seed-expansion helper behind {!Rng.create}. *)
