(* Binomial(n, p) distribution.  Figure 6.1 of the paper compares the S&F
   degree distributions against binomials with matching expectation; the
   connectivity rule of section 7.4 tail-bounds a binomial count of
   independent view entries. *)

let log_pmf ~n ~p k =
  if k < 0 || k > n then neg_infinity
  else if p <= 0. then (if k = 0 then 0. else neg_infinity)
  else if p >= 1. then (if k = n then 0. else neg_infinity)
  else
    Special.log_choose n k
    +. (float_of_int k *. log p)
    +. (float_of_int (n - k) *. log1p (-.p))

let pmf ~n ~p k = exp (log_pmf ~n ~p k)

(* log P(X <= k): needed for the 1e-30-scale tails of the section 7.4
   connectivity rule, where plain summation underflows long before the
   probabilities become comparable. *)
let log_cdf ~n ~p k =
  if k < 0 then neg_infinity
  else if k >= n then 0.
  else begin
    let acc = ref neg_infinity in
    for j = 0 to k do
      acc := Special.log_add !acc (log_pmf ~n ~p j)
    done;
    Float.min 0. !acc
  end

let to_pmf ~n ~p =
  Pmf.create ~offset:0 (Array.init (n + 1) (fun k -> pmf ~n ~p k))

let sample rng ~n ~p =
  (* Direct simulation suffices at the n used in this repository. *)
  let count = ref 0 in
  for _ = 1 to n do
    if Sf_prng.Rng.bernoulli rng p then incr count
  done;
  !count
