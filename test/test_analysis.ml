(* Tests for the paper's analytic machinery: eq (6.1), thresholds, the
   degree MC, decay bounds, the dependence MC, temporal bounds, and the
   connectivity rule. *)

module Analytic = Sf_analysis.Analytic
module Thresholds = Sf_analysis.Thresholds
module Degree_mc = Sf_analysis.Degree_mc
module Decay = Sf_analysis.Decay
module Dependence = Sf_analysis.Dependence
module Temporal = Sf_analysis.Temporal
module Connectivity = Sf_analysis.Connectivity
module Pmf = Sf_stats.Pmf

let close ?(eps = 1e-9) what expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.12g, got %.12g" what expected actual)
    true
    (Float.abs (expected -. actual) <= eps *. (1. +. Float.abs expected))

(* --- eq (6.1) --- *)

let test_analytic_is_distribution () =
  let p = Analytic.outdegree_distribution ~dm:90 in
  close ~eps:1e-9 "total mass" 1. (Pmf.total p);
  (* Odd outdegrees impossible. *)
  Pmf.iter (fun d pr -> if d mod 2 = 1 then close "odd mass" 0. pr) p

let test_analytic_mean_lemma_6_3 () =
  (* Lemma 6.3: average degree dm/3; the even-support discretization shifts
     the exact mean slightly. *)
  List.iter
    (fun dm ->
      let p = Analytic.outdegree_distribution ~dm in
      close ~eps:0.02
        (Printf.sprintf "mean for dm=%d" dm)
        (float_of_int dm /. 3.)
        (Pmf.mean p);
      let pin = Analytic.indegree_distribution ~dm in
      close ~eps:0.02 "indegree mean" (float_of_int dm /. 3.) (Pmf.mean pin))
    [ 30; 90; 150 ]

let test_analytic_small_case_by_hand () =
  (* dm = 2: a(0) = C(2,0) C(2,1) = 2; a(2) = C(2,2) C(0,0) = 1. *)
  let p = Analytic.outdegree_distribution ~dm:2 in
  close "P(0)" (2. /. 3.) (Pmf.prob p 0);
  close "P(2)" (1. /. 3.) (Pmf.prob p 2)

let test_analytic_consistency_out_in () =
  (* P(din = k) must equal P(d = dm - 2k). *)
  let dm = 30 in
  let out = Analytic.outdegree_distribution ~dm in
  let into = Analytic.indegree_distribution ~dm in
  for k = 0 to dm / 2 do
    close ~eps:1e-12
      (Printf.sprintf "k=%d" k)
      (Pmf.prob out (dm - (2 * k)))
      (Pmf.prob into k)
  done

let test_analytic_rejects_odd_dm () =
  Alcotest.check_raises "odd dm"
    (Invalid_argument "Analytic.outdegree_distribution: dm must be positive and even")
    (fun () -> ignore (Analytic.outdegree_distribution ~dm:7))

(* --- Thresholds (section 6.3) --- *)

let test_thresholds_paper_example () =
  let t = Thresholds.select ~d_hat:30 ~delta:0.01 in
  Alcotest.(check int) "dL = 18" 18 t.Thresholds.lower_threshold;
  Alcotest.(check int) "s = 40" 40 t.Thresholds.view_size;
  Alcotest.(check bool) "duplication budget honored" true
    (t.Thresholds.p_at_or_below_lower <= 0.01);
  Alcotest.(check bool) "deletion budget honored" true (t.Thresholds.p_above_size <= 0.01)

let test_thresholds_literal_reading () =
  let t = Thresholds.select_literal ~d_hat:30 ~delta:0.01 in
  Alcotest.(check int) "dL = 18" 18 t.Thresholds.lower_threshold;
  Alcotest.(check int) "s = 42 (literal)" 42 t.Thresholds.view_size

let test_thresholds_monotone_in_delta () =
  let tight = Thresholds.select ~d_hat:30 ~delta:0.001 in
  let loose = Thresholds.select ~d_hat:30 ~delta:0.05 in
  Alcotest.(check bool) "smaller delta, lower dL" true
    (tight.Thresholds.lower_threshold <= loose.Thresholds.lower_threshold);
  Alcotest.(check bool) "smaller delta, larger s" true
    (tight.Thresholds.view_size >= loose.Thresholds.view_size)

let test_thresholds_to_config () =
  let t = Thresholds.select ~d_hat:30 ~delta:0.01 in
  let config = Thresholds.to_config t in
  Alcotest.(check int) "s" 40 config.Sf_core.Protocol.view_size;
  Alcotest.(check int) "dL" 18 config.Sf_core.Protocol.lower_threshold

(* --- Degree MC (section 6.2), small configuration for speed --- *)

let small_mc loss =
  Degree_mc.solve
    (Degree_mc.make_params ~view_size:16 ~lower_threshold:6 ~loss ())

let test_degree_mc_converges () =
  let r = small_mc 0.02 in
  Alcotest.(check bool) "converged" true r.Degree_mc.converged;
  close ~eps:1e-6 "joint sums to 1" 1. (Array.fold_left ( +. ) 0. r.Degree_mc.joint)

let test_degree_mc_lemma_6_6 () =
  (* dup = loss + deletion in the fixed point. *)
  List.iter
    (fun loss ->
      let r = small_mc loss in
      close ~eps:5e-3
        (Printf.sprintf "Lemma 6.6 at loss %.2f" loss)
        (loss +. r.Degree_mc.deletion_probability)
        r.Degree_mc.duplication_probability)
    [ 0.; 0.02; 0.08 ]

let test_degree_mc_lemma_6_4_monotonicity () =
  (* Expected outdegree decreases with loss. *)
  let means =
    List.map (fun loss -> Pmf.mean (small_mc loss).Degree_mc.outdegree) [ 0.; 0.03; 0.1 ]
  in
  match means with
  | [ a; b; c ] ->
    Alcotest.(check bool) (Printf.sprintf "%.2f > %.2f > %.2f" a b c) true (a > b && b > c)
  | _ -> Alcotest.fail "unexpected"

let test_degree_mc_outdegree_bounds () =
  let r = small_mc 0.05 in
  Pmf.iter
    (fun d p ->
      if p > 1e-9 then
        Alcotest.(check bool) "support within [dL, s]" true (d >= 6 && d <= 16))
    r.Degree_mc.outdegree;
  (* Mean stays above the threshold (section 6.4 observation). *)
  Alcotest.(check bool) "mean above dL" true (Pmf.mean r.Degree_mc.outdegree > 6.)

let test_degree_mc_observation_6_5 () =
  (* Deletion probability decreases with increasing loss. *)
  let d1 = (small_mc 0.01).Degree_mc.deletion_probability in
  let d2 = (small_mc 0.1).Degree_mc.deletion_probability in
  Alcotest.(check bool) (Printf.sprintf "%.4f > %.4f" d1 d2) true (d1 > d2)

let test_degree_mc_no_loss_matches_analytic () =
  (* Figure 6.1 in miniature: dL=0, no loss, uniform sum degree dm = 12 with
     s = 12; the MC marginal should sit near the eq (6.1) distribution. *)
  let params = Degree_mc.make_params ~view_size:12 ~lower_threshold:0 ~loss:0. () in
  let r = Degree_mc.solve ~initial_state:(4, 4) params in
  let analytic = Analytic.outdegree_distribution ~dm:12 in
  let mc = Degree_mc.even_outdegree r in
  let tvd = Pmf.tv_distance mc analytic in
  Alcotest.(check bool) (Printf.sprintf "TVD %.3f small" tvd) true (tvd < 0.1);
  close ~eps:0.05 "mean near dm/3" 4. (Pmf.mean mc)

let test_degree_mc_param_validation () =
  Alcotest.check_raises "bad loss"
    (Invalid_argument "Degree_mc.make_params: loss must lie in [0,1)") (fun () ->
      ignore (Degree_mc.make_params ~view_size:16 ~lower_threshold:6 ~loss:1.0 ()))

(* --- Decay (section 6.5) --- *)

let decay_params =
  Decay.make_params ~loss:0. ~delta:0.01 ~lower_threshold:18 ~view_size:40

let test_decay_survival_curve () =
  let curve = Decay.survival_curve decay_params ~rounds:500 in
  close "starts at 1" 1. curve.(0);
  Alcotest.(check bool) "monotone decreasing" true
    (Array.for_all2 (fun a b -> b <= a) (Array.sub curve 0 500) (Array.sub curve 1 500));
  close ~eps:1e-12 "matches closed form at 100"
    (Decay.survival_bound decay_params ~rounds:100)
    curve.(100)

let test_decay_paper_50_percent_claim () =
  (* "after merely 70 rounds, fewer than 50% ... remain" across the loss
     rates of Figure 6.4. *)
  List.iter
    (fun loss ->
      let p = Decay.make_params ~loss ~delta:0.01 ~lower_threshold:18 ~view_size:40 in
      let rounds = Decay.rounds_to_fraction p ~fraction:0.5 in
      Alcotest.(check bool)
        (Printf.sprintf "50%% within %d rounds at loss %.2f" rounds loss)
        true
        (rounds <= 70))
    [ 0.; 0.01; 0.05; 0.1 ]

let test_decay_loss_slows_decay () =
  let fast = Decay.per_round_survival decay_params in
  let slow =
    Decay.per_round_survival
      (Decay.make_params ~loss:0.1 ~delta:0.01 ~lower_threshold:18 ~view_size:40)
  in
  Alcotest.(check bool) "higher loss -> higher survival bound" true (slow > fast)

let test_joiner_bounds_corollary_6_14 () =
  (* s = 2 dL and small loss: about Din/4 instances within about 2s rounds. *)
  let p = Decay.make_params ~loss:0.01 ~delta:0.01 ~lower_threshold:20 ~view_size:40 in
  let rounds = Decay.joiner_integration_rounds p in
  let instances = Decay.joiner_integration_instances p ~expected_indegree:28. in
  Alcotest.(check bool) (Printf.sprintf "window %d ~ 2s" rounds) true
    (rounds >= 80 && rounds <= 84);
  close ~eps:1e-9 "instances = Din/4" 7. instances

(* --- Dependence (section 7.4) --- *)

let test_alpha_bound_examples () =
  close "no loss" 1. (Dependence.alpha_lower_bound ~loss:0. ~delta:0.);
  close "paper example" 0.96 (Dependence.alpha_lower_bound ~loss:0.01 ~delta:0.01);
  close "floor at 0" 0. (Dependence.alpha_lower_bound ~loss:0.4 ~delta:0.2)

let test_dependence_chain_stationary () =
  (* The exact stationary dependent mass of the bounding chain matches the
     closed form and respects the 2(loss+delta) bound of Lemma 7.9. *)
  List.iter
    (fun (loss, delta) ->
      let x = loss +. delta in
      (* The bounding two-state chain of Figure 7.1 (0 = independent,
         1 = dependent), built here as the oracle for the closed form. *)
      let p_id = Dependence.to_dependent_probability ~loss ~delta in
      let p_di = Dependence.to_independent_probability ~loss ~delta in
      let chain =
        Sf_markov.Chain.of_rows ~size:2 (function
          | 0 -> [ (1, p_id); (0, 1. -. p_id) ]
          | _ -> [ (0, p_di); (1, 1. -. p_di) ])
      in
      let r = Sf_markov.Chain.stationary chain in
      let expected = Dependence.stationary_dependent_fraction ~loss ~delta in
      close ~eps:1e-6
        (Printf.sprintf "stationary at x=%.3f" x)
        expected r.Sf_markov.Chain.distribution.(1);
      Alcotest.(check bool) "within Lemma 7.9 bound" true (expected <= 2. *. x +. 1e-12))
    [ (0.01, 0.01); (0.05, 0.01); (0.1, 0.02) ]

(* --- Temporal (section 7.5) --- *)

let temporal_params = Temporal.make_params ~n:1000 ~view_size:40 ~expected_outdegree:27. ~alpha:0.96

let test_conductance_bound_formula () =
  close ~eps:1e-12 "Lemma 7.14"
    (27. *. 26. *. 0.96 /. (2. *. 40. *. 39.))
    (Temporal.expected_conductance_bound temporal_params)

let test_tau_epsilon_scaling () =
  (* tau grows with n (superlinearly: n s log n transformations). *)
  let tau n =
    Temporal.tau_epsilon
      (Temporal.make_params ~n ~view_size:40 ~expected_outdegree:27. ~alpha:0.96)
      ~epsilon:0.01
  in
  Alcotest.(check bool) "tau monotone in n" true (tau 1000 < tau 10_000);
  (* Per-node actions scale like s log n: ratio between n and n^2 is ~2. *)
  let per_node n =
    Temporal.actions_per_node
      (Temporal.make_params ~n ~view_size:40 ~expected_outdegree:27. ~alpha:0.96)
      ~epsilon:0.01
  in
  let ratio = per_node 1_000_000 /. per_node 1_000 in
  Alcotest.(check bool) (Printf.sprintf "log-n scaling ratio %.2f" ratio) true
    (ratio > 1.8 && ratio < 2.2)

let test_tau_epsilon_decreasing_in_alpha () =
  let tau alpha =
    Temporal.tau_epsilon
      (Temporal.make_params ~n:1000 ~view_size:40 ~expected_outdegree:27. ~alpha)
      ~epsilon:0.01
  in
  Alcotest.(check bool) "more independence, faster" true (tau 0.96 < tau 0.5)

(* --- Connectivity (section 7.4) --- *)

let test_connectivity_paper_example () =
  (* loss = delta = 1%, eps = 1e-30 -> dL = 26. *)
  match Connectivity.minimal_lower_threshold ~alpha:0.96 ~epsilon:1e-30 () with
  | Some d -> Alcotest.(check int) "dL = 26" 26 d
  | None -> Alcotest.fail "expected a threshold"

let test_connectivity_via_loss () =
  match Connectivity.minimal_lower_threshold_for_loss ~loss:0.01 ~delta:0.01 ~epsilon:1e-30 () with
  | Some d -> Alcotest.(check int) "dL = 26 via loss/delta" 26 d
  | None -> Alcotest.fail "expected a threshold"

let test_connectivity_monotonicity () =
  let get alpha epsilon =
    match Connectivity.minimal_lower_threshold ~alpha ~epsilon () with
    | Some d -> d
    | None -> Alcotest.fail "expected a threshold below the search cap"
  in
  Alcotest.(check bool) "stricter eps, larger dL" true (get 0.96 1e-40 >= get 0.96 1e-20);
  Alcotest.(check bool) "lower alpha, larger dL" true (get 0.8 1e-30 >= get 0.96 1e-30)

let test_connectivity_failure_probability_consistency () =
  let d = 26 and alpha = 0.96 in
  let p = Connectivity.failure_probability ~lower_threshold:d ~alpha in
  Alcotest.(check bool) "at 26 below 1e-30" true (p <= 1e-30);
  let p24 = Connectivity.failure_probability ~lower_threshold:24 ~alpha in
  Alcotest.(check bool) "at 24 above 1e-30" true (p24 > 1e-30)

(* --- Property: thresholds always produce a valid configuration --- *)

let prop_thresholds_valid_config =
  QCheck.Test.make ~name:"threshold selection yields valid configs" ~count:30
    QCheck.(pair (int_range 5 40) (int_range 1 20))
    (fun (half_d_hat, delta_milli) ->
      let d_hat = 2 * half_d_hat in
      let delta = float_of_int delta_milli /. 200. in
      let t = Thresholds.select ~d_hat ~delta in
      let ok_range =
        t.Thresholds.lower_threshold >= 0
        && t.Thresholds.lower_threshold <= d_hat
        && t.Thresholds.view_size >= d_hat
        && t.Thresholds.view_size <= t.Thresholds.dm
      in
      let ok_parity =
        t.Thresholds.lower_threshold mod 2 = 0 && t.Thresholds.view_size mod 2 = 0
      in
      ok_range && ok_parity)

let suite =
  [
    Alcotest.test_case "eq 6.1 is a distribution" `Quick test_analytic_is_distribution;
    Alcotest.test_case "Lemma 6.3 mean" `Quick test_analytic_mean_lemma_6_3;
    Alcotest.test_case "eq 6.1 by hand (dm=2)" `Quick test_analytic_small_case_by_hand;
    Alcotest.test_case "in/out consistency" `Quick test_analytic_consistency_out_in;
    Alcotest.test_case "odd dm rejected" `Quick test_analytic_rejects_odd_dm;
    Alcotest.test_case "thresholds: paper example (18, 40)" `Quick test_thresholds_paper_example;
    Alcotest.test_case "thresholds: literal reading" `Quick test_thresholds_literal_reading;
    Alcotest.test_case "thresholds: delta monotonicity" `Quick test_thresholds_monotone_in_delta;
    Alcotest.test_case "thresholds: to_config" `Quick test_thresholds_to_config;
    Alcotest.test_case "degree MC converges" `Quick test_degree_mc_converges;
    Alcotest.test_case "degree MC: Lemma 6.6" `Slow test_degree_mc_lemma_6_6;
    Alcotest.test_case "degree MC: Lemma 6.4" `Slow test_degree_mc_lemma_6_4_monotonicity;
    Alcotest.test_case "degree MC: support bounds" `Quick test_degree_mc_outdegree_bounds;
    Alcotest.test_case "degree MC: Observation 6.5" `Slow test_degree_mc_observation_6_5;
    Alcotest.test_case "degree MC vs analytic (mini Fig 6.1)" `Quick test_degree_mc_no_loss_matches_analytic;
    Alcotest.test_case "degree MC validation" `Quick test_degree_mc_param_validation;
    Alcotest.test_case "decay curve" `Quick test_decay_survival_curve;
    Alcotest.test_case "decay: 50% within 70 rounds" `Quick test_decay_paper_50_percent_claim;
    Alcotest.test_case "decay: loss slows erosion" `Quick test_decay_loss_slows_decay;
    Alcotest.test_case "Corollary 6.14" `Quick test_joiner_bounds_corollary_6_14;
    Alcotest.test_case "alpha bound examples" `Quick test_alpha_bound_examples;
    Alcotest.test_case "dependence MC stationary" `Quick test_dependence_chain_stationary;
    Alcotest.test_case "Lemma 7.14 formula" `Quick test_conductance_bound_formula;
    Alcotest.test_case "tau_eps scaling" `Quick test_tau_epsilon_scaling;
    Alcotest.test_case "tau_eps vs alpha" `Quick test_tau_epsilon_decreasing_in_alpha;
    Alcotest.test_case "connectivity: paper example (26)" `Quick test_connectivity_paper_example;
    Alcotest.test_case "connectivity via loss/delta" `Quick test_connectivity_via_loss;
    Alcotest.test_case "connectivity monotonicity" `Quick test_connectivity_monotonicity;
    Alcotest.test_case "connectivity tail consistency" `Quick test_connectivity_failure_probability_consistency;
    QCheck_alcotest.to_alcotest prop_thresholds_valid_config;
  ]
