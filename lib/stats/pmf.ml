(* Probability mass functions over a contiguous integer support
   [offset, offset + length - 1].  The degree analysis manipulates these
   constantly: normalization, moments, distances, and restriction. *)

type t = {
  offset : int;          (* smallest support point *)
  mass : float array;    (* mass.(i) is the probability of (offset + i) *)
}

let create ~offset mass =
  if Array.exists (fun p -> p < 0. || Float.is_nan p) mass then
    invalid_arg "Pmf.create: negative or NaN mass";
  { offset; mass = Array.copy mass }

let offset t = t.offset
let max_support t = t.offset + Array.length t.mass - 1

let prob t k =
  let i = k - t.offset in
  if i < 0 || i >= Array.length t.mass then 0. else t.mass.(i)

let total t = Array.fold_left ( +. ) 0. t.mass

let normalize t =
  let z = total t in
  if z <= 0. then invalid_arg "Pmf.normalize: zero total mass";
  { t with mass = Array.map (fun p -> p /. z) t.mass }

let iter f t = Array.iteri (fun i p -> f (t.offset + i) p) t.mass

let fold f init t =
  let acc = ref init in
  iter (fun k p -> acc := f !acc k p) t;
  !acc

let mean t = fold (fun acc k p -> acc +. (float_of_int k *. p)) 0. t

let variance t =
  let m = mean t in
  fold (fun acc k p -> acc +. (p *. ((float_of_int k -. m) ** 2.))) 0. t

let std t = sqrt (variance t)

let mode t =
  let best = ref t.offset and best_p = ref neg_infinity in
  iter (fun k p -> if p > !best_p then begin best := k; best_p := p end) t;
  !best

let cdf t k = fold (fun acc j p -> if j <= k then acc +. p else acc) 0. t

(* P(X >= k). *)
let ccdf t k = fold (fun acc j p -> if j >= k then acc +. p else acc) 0. t

(* Total variation distance between two pmfs (defined on any supports). *)
let tv_distance a b =
  let lo = min a.offset b.offset in
  let hi = max (max_support a) (max_support b) in
  let acc = ref 0. in
  for k = lo to hi do
    acc := !acc +. Float.abs (prob a k -. prob b k)
  done;
  0.5 *. !acc

(* Restrict to support points satisfying [pred], renormalizing. *)
let condition t pred =
  let mass = Array.mapi (fun i p -> if pred (t.offset + i) then p else 0.) t.mass in
  normalize { t with mass }

let of_assoc pairs =
  match pairs with
  | [] -> invalid_arg "Pmf.of_assoc: empty"
  | (k0, _) :: _ ->
    let lo = List.fold_left (fun acc (k, _) -> min acc k) k0 pairs in
    let hi = List.fold_left (fun acc (k, _) -> max acc k) k0 pairs in
    let mass = Array.make (hi - lo + 1) 0. in
    List.iter (fun (k, p) -> mass.(k - lo) <- mass.(k - lo) +. p) pairs;
    create ~offset:lo mass

(* Empirical pmf of a sample of integers. *)
let of_samples samples =
  if Array.length samples = 0 then invalid_arg "Pmf.of_samples: empty";
  let lo = Array.fold_left min samples.(0) samples in
  let hi = Array.fold_left max samples.(0) samples in
  let mass = Array.make (hi - lo + 1) 0. in
  let w = 1. /. float_of_int (Array.length samples) in
  Array.iter (fun k -> mass.(k - lo) <- mass.(k - lo) +. w) samples;
  { offset = lo; mass }
