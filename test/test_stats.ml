(* Tests for the statistics substrate: special functions, pmfs, binomials,
   summaries, hypothesis tests. *)

module Special = Sf_stats.Special
module Pmf = Sf_stats.Pmf
module Binomial = Sf_stats.Binomial
module Summary = Sf_stats.Summary
module Hypothesis = Sf_stats.Hypothesis

let close ?(eps = 1e-9) what expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.12g, got %.12g" what expected actual)
    true
    (Float.abs (expected -. actual) <= eps *. (1. +. Float.abs expected))

(* --- Special functions --- *)

let test_log_gamma_known_values () =
  close "lgamma(1)" 0. (Special.log_gamma 1.);
  close "lgamma(2)" 0. (Special.log_gamma 2.);
  close "lgamma(5) = ln 24" (log 24.) (Special.log_gamma 5.);
  close "lgamma(0.5) = ln sqrt(pi)" (0.5 *. log Float.pi) (Special.log_gamma 0.5);
  (* Reflection-formula territory. *)
  close ~eps:1e-10 "lgamma(0.1)" 2.2527126517342059 (Special.log_gamma 0.1)

let test_log_factorial () =
  close "0!" 0. (Special.log_factorial 0);
  close "1!" 0. (Special.log_factorial 1);
  close "10!" (log 3628800.) (Special.log_factorial 10);
  (* Beyond the memo cache. *)
  close ~eps:1e-10 "2000! via Stirling continuity"
    (Special.log_gamma 2001.)
    (Special.log_factorial 2000)

let test_log_choose () =
  close "C(10,3)" (log 120.) (Special.log_choose 10 3);
  close "C(n,k) = C(n,n-k)" (Special.log_choose 50 13) (Special.log_choose 50 37);
  Alcotest.(check bool) "k out of range" true (Special.log_choose 5 7 = neg_infinity);
  Alcotest.(check bool) "negative k" true (Special.log_choose 5 (-1) = neg_infinity);
  (* Large case against direct accumulation: ln C(n,k) = sum ln((n-k+i)/i). *)
  let direct = ref 0. in
  for i = 1 to 45 do
    direct := !direct +. log (float_of_int (45 + i) /. float_of_int i)
  done;
  close "C(90,45) large" !direct (Special.log_choose 90 45) ~eps:1e-10

let test_gamma_p_q_complementarity () =
  List.iter
    (fun (a, x) ->
      close ~eps:1e-10
        (Printf.sprintf "P+Q=1 at a=%.1f x=%.1f" a x)
        1.
        (Special.gamma_p a x +. Special.gamma_q a x))
    [ (0.5, 0.3); (1., 1.); (2.5, 4.); (10., 3.); (10., 30.) ]

let test_gamma_p_exponential_special_case () =
  (* P(1, x) = 1 - exp(-x). *)
  List.iter
    (fun x -> close ~eps:1e-10 "P(1,x)" (1. -. exp (-.x)) (Special.gamma_p 1. x))
    [ 0.1; 1.; 2.; 5. ]

let test_log_add () =
  close "log_add basic" (log 3.) (Special.log_add (log 1.) (log 2.));
  close "log_add with -inf" (log 2.) (Special.log_add neg_infinity (log 2.));
  close "log_sum" (log 6.) (Special.log_sum [| log 1.; log 2.; log 3. |])

(* --- Pmf --- *)

let test_pmf_basic () =
  let p = Pmf.create ~offset:2 [| 0.2; 0.3; 0.5 |] in
  close "prob at 2" 0.2 (Pmf.prob p 2);
  close "prob at 4" 0.5 (Pmf.prob p 4);
  close "prob outside" 0. (Pmf.prob p 5);
  close "total" 1. (Pmf.total p);
  close "mean" ((2. *. 0.2) +. (3. *. 0.3) +. (4. *. 0.5)) (Pmf.mean p);
  Alcotest.(check int) "mode" 4 (Pmf.mode p);
  close "cdf at 3" 0.5 (Pmf.cdf p 3);
  close "ccdf at 3" 0.8 (Pmf.ccdf p 3)

let test_pmf_normalize () =
  let p = Pmf.normalize (Pmf.create ~offset:0 [| 1.; 3. |]) in
  close "normalized" 0.25 (Pmf.prob p 0);
  Alcotest.check_raises "zero mass rejected"
    (Invalid_argument "Pmf.normalize: zero total mass") (fun () ->
      ignore (Pmf.normalize (Pmf.create ~offset:0 [| 0.; 0. |])))

let test_pmf_variance () =
  (* Fair coin on {0,1}: variance 1/4. *)
  let p = Pmf.create ~offset:0 [| 0.5; 0.5 |] in
  close "std" 0.5 (Pmf.std p)

let test_pmf_tv_distance () =
  let a = Pmf.create ~offset:0 [| 1.; 0. |] in
  let b = Pmf.create ~offset:0 [| 0.; 1. |] in
  close "disjoint -> 1" 1. (Pmf.tv_distance a b);
  close "identical -> 0" 0. (Pmf.tv_distance a a);
  (* Different supports. *)
  let c = Pmf.create ~offset:5 [| 1. |] in
  close "disjoint supports -> 1" 1. (Pmf.tv_distance a c)

let test_pmf_condition () =
  let p = Pmf.create ~offset:0 [| 0.25; 0.25; 0.25; 0.25 |] in
  let even = Pmf.condition p (fun k -> k mod 2 = 0) in
  close "conditioned mass" 0.5 (Pmf.prob even 0);
  close "odd points dropped" 0. (Pmf.prob even 1)

let test_pmf_of_assoc_accumulates () =
  let p = Pmf.of_assoc [ (3, 0.5); (3, 0.25); (5, 0.25) ] in
  close "accumulated" 0.75 (Pmf.prob p 3);
  Alcotest.(check int) "offset" 3 (Pmf.offset p)

let test_pmf_of_samples () =
  let p = Pmf.of_samples [| 1; 1; 2; 4 |] in
  close "1 freq" 0.5 (Pmf.prob p 1);
  close "4 freq" 0.25 (Pmf.prob p 4);
  close "3 absent" 0. (Pmf.prob p 3)

(* --- Binomial --- *)

let test_binomial_pmf_sums_to_one () =
  close ~eps:1e-10 "sum" 1. (Pmf.total (Binomial.to_pmf ~n:30 ~p:0.4))

let test_binomial_moments () =
  let pmf = Binomial.to_pmf ~n:30 ~p:0.4 in
  close ~eps:1e-9 "pmf mean = np" 12. (Pmf.mean pmf);
  close ~eps:1e-9 "pmf variance = np(1-p)" 7.2 (Pmf.std pmf ** 2.)

let test_binomial_cdf_consistency () =
  (* The log-space cdf agrees with the cumulative pmf. *)
  let pmf = Binomial.to_pmf ~n:20 ~p:0.3 in
  for k = 0 to 20 do
    close ~eps:1e-9
      (Printf.sprintf "exp log_cdf = cdf at %d" k)
      (Pmf.cdf pmf k)
      (exp (Binomial.log_cdf ~n:20 ~p:0.3 k))
  done

let test_binomial_log_cdf_deep_tail () =
  (* The section 7.4 regime: Binomial(26, 0.96) <= 2 is around 1e-31;
     linear-space summation would underflow to garbage relative error. *)
  let log_p = Binomial.log_cdf ~n:26 ~p:0.96 2 in
  Alcotest.(check bool) "deep tail magnitude" true (log_p < log 1e-30 && log_p > log 1e-33);
  (* Exact formula for k <= 2. *)
  let q = 0.04 and p = 0.96 in
  let exact =
    (q ** 26.) +. (26. *. p *. (q ** 25.)) +. (325. *. (p ** 2.) *. (q ** 24.))
  in
  close ~eps:1e-9 "matches closed form" (log exact) log_p

let test_binomial_degenerate () =
  close "p=0 pmf(0)" 1. (Pmf.prob (Binomial.to_pmf ~n:10 ~p:0.) 0);
  close "p=1 pmf(n)" 1. (Pmf.prob (Binomial.to_pmf ~n:10 ~p:1.) 10);
  close "p=1 pmf(0)" 0. (Pmf.prob (Binomial.to_pmf ~n:10 ~p:1.) 0)

let test_binomial_sampling () =
  let rng = Sf_prng.Rng.create 42 in
  let s = Summary.create () in
  for _ = 1 to 20_000 do
    Summary.add_int s (Binomial.sample rng ~n:40 ~p:0.25)
  done;
  Alcotest.(check bool) "sample mean near 10" true
    (Float.abs (Summary.mean s -. 10.) < 0.1)

(* --- Summary --- *)

let test_summary_against_direct () =
  let xs = [| 1.; 2.; 3.; 4.; 5.; 6.; 7. |] in
  let s = Summary.of_array xs in
  close "mean" 4. (Summary.mean s);
  close "variance" (28. /. 6.) (Summary.variance s);
  close "min" 1. (Summary.min_value s);
  close "max" 7. (Summary.max_value s);
  Alcotest.(check int) "count" 7 (Summary.count s)

let test_summary_merge () =
  let a = Summary.of_array [| 1.; 2.; 3. |] in
  let b = Summary.of_array [| 10.; 20. |] in
  let merged = Summary.merge a b in
  let direct = Summary.of_array [| 1.; 2.; 3.; 10.; 20. |] in
  close "merged mean" (Summary.mean direct) (Summary.mean merged);
  close "merged variance" (Summary.variance direct) (Summary.variance merged);
  close "merged max" 20. (Summary.max_value merged)

let test_percentile () =
  let xs = [| 5.; 1.; 3.; 2.; 4. |] in
  close "median" 3. (Summary.percentile xs 0.5);
  close "p0" 1. (Summary.percentile xs 0.);
  close "p100" 5. (Summary.percentile xs 1.);
  close "p25" 2. (Summary.percentile xs 0.25)

(* --- Hypothesis tests --- *)

let test_chi_square_uniform_accepts_uniform () =
  let counts = Array.make 10 1000. in
  let r = Hypothesis.chi_square_uniform counts in
  close "statistic 0" 0. r.Hypothesis.statistic;
  Alcotest.(check bool) "p = 1" true (r.Hypothesis.p_value > 0.999)

let test_chi_square_uniform_rejects_skew () =
  let counts = [| 1000.; 10.; 10.; 10.; 10. |] in
  let r = Hypothesis.chi_square_uniform counts in
  Alcotest.(check bool) "tiny p-value" true (r.Hypothesis.p_value < 1e-6)

let test_chi_square_pooling () =
  (* Cells with tiny expectation get pooled rather than dominating. *)
  let observed = [| 50.; 50.; 0.1 |] in
  let expected = [| 50.; 50.; 0.05 |] in
  let r = Hypothesis.chi_square ~observed ~expected () in
  Alcotest.(check bool) "pooled dof < raw cells" true (r.Hypothesis.degrees_of_freedom <= 2)

let test_ks_identical () =
  let a = [| 1; 2; 3; 4; 5 |] in
  close "D = 0" 0. (Hypothesis.ks_statistic a a);
  Alcotest.(check bool) "p = 1" true (Hypothesis.ks_p_value a a > 0.999)

let test_ks_disjoint () =
  let a = Array.make 100 0 and b = Array.make 100 10 in
  close "D = 1" 1. (Hypothesis.ks_statistic a b);
  Alcotest.(check bool) "p tiny" true (Hypothesis.ks_p_value a b < 1e-6)

(* --- Properties --- *)

let pmf_gen =
  QCheck.Gen.(
    map2
      (fun offset mass -> (offset, Array.of_list (List.map (fun x -> Float.abs x +. 0.01) mass)))
      (int_range (-10) 10)
      (list_size (int_range 1 20) (float_bound_exclusive 10.)))

let prop_normalize_total =
  QCheck.Test.make ~name:"Pmf.normalize yields total 1" ~count:200
    (QCheck.make pmf_gen) (fun (offset, mass) ->
      let p = Pmf.normalize (Pmf.create ~offset mass) in
      Float.abs (Pmf.total p -. 1.) < 1e-9)

let prop_tv_symmetric =
  QCheck.Test.make ~name:"tv_distance symmetric and in [0,1]" ~count:200
    (QCheck.make QCheck.Gen.(pair pmf_gen pmf_gen))
    (fun ((o1, m1), (o2, m2)) ->
      let a = Pmf.normalize (Pmf.create ~offset:o1 m1) in
      let b = Pmf.normalize (Pmf.create ~offset:o2 m2) in
      let d = Pmf.tv_distance a b in
      Float.abs (d -. Pmf.tv_distance b a) < 1e-12 && d >= 0. && d <= 1. +. 1e-12)

let prop_summary_merge_equals_concat =
  QCheck.Test.make ~name:"Summary.merge = summary of concatenation" ~count:200
    QCheck.(pair (list (float_bound_exclusive 100.)) (list (float_bound_exclusive 100.)))
    (fun (xs, ys) ->
      let a = Summary.of_array (Array.of_list xs) in
      let b = Summary.of_array (Array.of_list ys) in
      let merged = Summary.merge a b in
      let direct = Summary.of_array (Array.of_list (xs @ ys)) in
      Summary.count merged = Summary.count direct
      && (Summary.count direct = 0
         || Float.abs (Summary.mean merged -. Summary.mean direct) < 1e-6))

let prop_binomial_cdf_monotone =
  QCheck.Test.make ~name:"binomial cdf monotone" ~count:100
    QCheck.(pair (int_range 1 50) (float_range 0.05 0.95))
    (fun (n, p) ->
      let ok = ref true in
      for k = 0 to n - 1 do
        if Binomial.log_cdf ~n ~p k > Binomial.log_cdf ~n ~p (k + 1) +. 1e-12 then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "log_gamma known values" `Quick test_log_gamma_known_values;
    Alcotest.test_case "log_factorial" `Quick test_log_factorial;
    Alcotest.test_case "log_choose" `Quick test_log_choose;
    Alcotest.test_case "gamma P+Q=1" `Quick test_gamma_p_q_complementarity;
    Alcotest.test_case "gamma P(1,x)" `Quick test_gamma_p_exponential_special_case;
    Alcotest.test_case "log_add / log_sum" `Quick test_log_add;
    Alcotest.test_case "pmf basics" `Quick test_pmf_basic;
    Alcotest.test_case "pmf normalize" `Quick test_pmf_normalize;
    Alcotest.test_case "pmf variance" `Quick test_pmf_variance;
    Alcotest.test_case "pmf tv distance" `Quick test_pmf_tv_distance;
    Alcotest.test_case "pmf condition" `Quick test_pmf_condition;
    Alcotest.test_case "pmf of_assoc" `Quick test_pmf_of_assoc_accumulates;
    Alcotest.test_case "pmf of_samples" `Quick test_pmf_of_samples;
    Alcotest.test_case "binomial sums to 1" `Quick test_binomial_pmf_sums_to_one;
    Alcotest.test_case "binomial moments" `Quick test_binomial_moments;
    Alcotest.test_case "binomial cdf consistency" `Quick test_binomial_cdf_consistency;
    Alcotest.test_case "binomial deep tail (sec 7.4 regime)" `Quick test_binomial_log_cdf_deep_tail;
    Alcotest.test_case "binomial degenerate p" `Quick test_binomial_degenerate;
    Alcotest.test_case "binomial sampling" `Quick test_binomial_sampling;
    Alcotest.test_case "summary vs direct" `Quick test_summary_against_direct;
    Alcotest.test_case "summary merge" `Quick test_summary_merge;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "chi-square accepts uniform" `Quick test_chi_square_uniform_accepts_uniform;
    Alcotest.test_case "chi-square rejects skew" `Quick test_chi_square_uniform_rejects_skew;
    Alcotest.test_case "chi-square pooling" `Quick test_chi_square_pooling;
    Alcotest.test_case "ks identical" `Quick test_ks_identical;
    Alcotest.test_case "ks disjoint" `Quick test_ks_disjoint;
    QCheck_alcotest.to_alcotest prop_normalize_total;
    QCheck_alcotest.to_alcotest prop_tv_symmetric;
    QCheck_alcotest.to_alcotest prop_summary_merge_equals_concat;
    QCheck_alcotest.to_alcotest prop_binomial_cdf_monotone;
  ]
