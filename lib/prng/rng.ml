(* Xoshiro256** 1.0 (Blackman & Vigna), seeded via SplitMix64.

   All randomness in the repository flows through values of type [t] with
   explicit seeds, so every simulation and statistical experiment is
   reproducible bit-for-bit.  [split] derives an independent child stream,
   which lets concurrent components (nodes, network, churn driver) draw
   without perturbing each other's sequences.

   The state words s0..s3 sit at byte offsets 0, 8, 16, 24 of a 32-byte
   buffer, so no int64 is ever boxed into a record field.  A draw reads
   s1, advances the state with [step] and scrambles the s1 it read; the
   draws inline [next_int64], so its result stays unboxed and the draws
   returning a native int or bool allocate nothing. *)

type t = Bytes.t

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* The ** scrambler: the output for a pre-step s1. *)
let[@inline] scramble s1 = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L

(* A generator from a full 64-bit seed. *)
let of_seed64 seed =
  let t = Bytes.create 32 in
  Array.iteri (fun k s -> Bytes.set_int64_ne t (8 * k) s) (Splitmix64.expand seed 4);
  t

let create seed = of_seed64 (Int64.of_int seed)

let step t =
  let s0 = Bytes.get_int64_ne t 0 and s1 = Bytes.get_int64_ne t 8 in
  let s2 = Int64.logxor (Bytes.get_int64_ne t 16) s0 in
  let s3 = Int64.logxor (Bytes.get_int64_ne t 24) s1 in
  Bytes.set_int64_ne t 0 (Int64.logxor s0 s3);
  Bytes.set_int64_ne t 8 (Int64.logxor s1 s2);
  Bytes.set_int64_ne t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  Bytes.set_int64_ne t 24 (rotl s3 45)

let[@inline] next_int64 t =
  let s1 = Bytes.get_int64_ne t 8 in
  step t;
  scramble s1

(* Derive an independent stream: reseed a SplitMix64 from the parent's next
   output.  The parent advances, so successive splits differ. *)
let split t = of_seed64 (next_int64 t)

let copy = Bytes.copy

(* Byte equality of the state: same position in the same stream. *)
let equal = Bytes.equal

(* The top 53 bits of the next output, as a native int: [float]'s draw
   before scaling.  Below 2^53 the int-to-float conversion is exact, so
   [float_of_int (float_bits t) *. 0x1p-53] is [float t], bit for bit. *)
let[@inline] float_bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11)

(* Uniform float in [0,1): top 53 bits. *)
let[@inline] float t =
  Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) *. 0x1p-53

(* Uniform int in [0, bound) without modulo bias: mask the output to the
   smallest all-ones mask covering bound-1 (at most 62 bits, so the native
   int's low 63 bits suffice) and reject values >= bound. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = ref 1 in
  while !mask < bound - 1 do
    mask := (!mask lsl 1) lor 1
  done;
  let v = ref (Int64.to_int (next_int64 t) land !mask) in
  while !v >= bound do
    v := Int64.to_int (next_int64 t) land !mask
  done;
  !v

(* Uniform int in [lo, hi] inclusive. *)
let int_range t lo hi =
  if hi < lo then invalid_arg "Rng.int_range: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.to_int (next_int64 t) land 1 <> 0

(* Bernoulli trial with success probability [p]. *)
let bernoulli t p =
  if p <= 0. then false else if p >= 1. then true else float t < p

(* Uniform over [0, n) minus [i], from one [int] draw over n - 1 values.
   Requires n >= 2. *)
let other t n i =
  if n < 2 then invalid_arg "Rng.other: need n >= 2";
  let j = int t (n - 1) in
  if j >= i then j + 1 else j

(* In-place Fisher-Yates shuffle. *)
let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* Uniformly chosen element of a non-empty array. *)
let choose t a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t n)

(* [k] distinct indices sampled uniformly from [0, n) (Floyd's algorithm). *)
let sample_indices t ~n ~k =
  if k > n then invalid_arg "Rng.sample_indices: k > n";
  let chosen = Hashtbl.create (2 * k) in
  let out = ref [] in
  for j = n - k to n - 1 do
    let r = int t (j + 1) in
    let pick = if Hashtbl.mem chosen r then j else r in
    Hashtbl.replace chosen pick ();
    out := pick :: !out
  done;
  Array.of_list !out

(* Exponential variate with rate [lambda]. *)
let exponential t lambda =
  if lambda <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  -.log1p (-.float t) /. lambda

(* Geometric variate: number of failures before the first success,
   success probability [p]. *)
let geometric t p =
  if p <= 0. || p > 1. then invalid_arg "Rng.geometric: p in (0,1]";
  if p = 1. then 0
  else
    let u = float t in
    int_of_float (Float.floor (log1p (-.u) /. log1p (-.p)))

(* Index drawn according to an (unnormalized) weight vector. *)
let categorical t weights =
  let total = Array.fold_left ( +. ) 0. weights in
  if total <= 0. then invalid_arg "Rng.categorical: weights must sum to > 0";
  let x = float t *. total in
  let n = Array.length weights in
  let rec go i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. weights.(i) in
      if x < acc then i else go (i + 1) acc
  in
  go 0 0.
