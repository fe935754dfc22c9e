(* Special functions needed by the analytic machinery: log-gamma (Lanczos
   approximation), log-factorial, log-binomial-coefficient, and the
   regularized incomplete gamma functions used by the chi-square test.
   Implementations follow the classic Numerical Recipes formulations. *)

let lanczos_g = 7.

let lanczos_coefficients =
  [|
    0.99999999999980993; 676.5203681218851; -1259.1392167224028;
    771.32342877765313; -176.61502916214059; 12.507343278686905;
    -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7;
  |]

let rec log_gamma x =
  if x < 0.5 then
    (* Reflection formula keeps the Lanczos series in its accurate range. *)
    log (Float.pi /. Float.sin (Float.pi *. x)) -. log_gamma (1. -. x)
  else
    let x = x -. 1. in
    let a = ref lanczos_coefficients.(0) in
    let t = x +. lanczos_g +. 0.5 in
    for i = 1 to 8 do
      a := !a +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
    done;
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

let log_factorial =
  (* Memoize small values: the degree analysis calls this in tight loops.
     The table is filled eagerly at module initialisation and read-only
     afterwards, so it is safe to share across domains (a lazy cache here
     would race on Lazy.force); sf_analyze classifies it in
     analyze.baseline. *)
  let cache_size = 1024 in
  let cache = Array.make cache_size 0. in
  for i = 2 to cache_size - 1 do
    cache.(i) <- cache.(i - 1) +. log (float_of_int i)
  done;
  fun n ->
    if n < 0 then invalid_arg "Special.log_factorial: negative argument";
    if n < cache_size then cache.(n) else log_gamma (float_of_int n +. 1.)

let log_choose n k =
  if k < 0 || k > n then neg_infinity
  else log_factorial n -. log_factorial k -. log_factorial (n - k)

(* Regularized lower incomplete gamma P(a,x) by series expansion;
   valid for x < a+1. *)
let gamma_p_series a x =
  let gln = log_gamma a in
  let rec go ap sum del n =
    if n > 500 then sum
    else
      let ap = ap +. 1. in
      let del = del *. x /. ap in
      let sum = sum +. del in
      if Float.abs del < Float.abs sum *. 1e-15 then sum else go ap sum del (n + 1)
  in
  if x <= 0. then 0.
  else
    let sum = go a (1. /. a) (1. /. a) 0 in
    sum *. exp ((-.x) +. (a *. log x) -. gln)

(* Regularized upper incomplete gamma Q(a,x) by continued fraction;
   valid for x >= a+1. *)
let gamma_q_cf a x =
  let gln = log_gamma a in
  let tiny = 1e-300 in
  let b = ref (x +. 1. -. a) in
  let c = ref (1. /. tiny) in
  let d = ref (1. /. !b) in
  let h = ref !d in
  (try
     for i = 1 to 500 do
       let an = -.float_of_int i *. (float_of_int i -. a) in
       b := !b +. 2.;
       d := (an *. !d) +. !b;
       if Float.abs !d < tiny then d := tiny;
       c := !b +. (an /. !c);
       if Float.abs !c < tiny then c := tiny;
       d := 1. /. !d;
       let del = !d *. !c in
       h := !h *. del;
       if Float.abs (del -. 1.) < 1e-15 then raise Exit
     done
   with Exit -> ());
  exp ((-.x) +. (a *. log x) -. gln) *. !h

let gamma_p a x =
  if a <= 0. then invalid_arg "Special.gamma_p: a must be positive";
  if x < 0. then invalid_arg "Special.gamma_p: x must be non-negative";
  if x = 0. then 0.
  else if x < a +. 1. then gamma_p_series a x
  else 1. -. gamma_q_cf a x

let gamma_q a x = 1. -. gamma_p a x

(* Natural log of the sum of two numbers given in log space. *)
let log_add la lb =
  if la = neg_infinity then lb
  else if lb = neg_infinity then la
  else if la >= lb then la +. log1p (exp (lb -. la))
  else lb +. log1p (exp (la -. lb))

let log_sum = Array.fold_left log_add neg_infinity
