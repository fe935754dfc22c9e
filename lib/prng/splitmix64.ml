(* SplitMix64: a fast, well-distributed 64-bit generator used here to expand
   user seeds into full generator states. Reference: Steele, Lea, Flood,
   "Fast splittable pseudorandom number generators", OOPSLA 2014. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

let next t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The stateless finalizer alone: the avalanche mix of [next] without the
   gamma step, as a keyless deterministic int hash.  Hashtbl.Make functors
   over int keys use this instead of the polymorphic Hashtbl.hash so that
   bucket order is a function of the key bits only, identical across runs,
   architectures and OCaml versions. *)
let mix_int x =
  let z = Int64.of_int x in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int z land max_int

(* Expand a seed into [n] distinct 64-bit values. *)
let expand seed n =
  let t = create seed in
  Array.init n (fun _ -> next t)
