(* Uniformity and independence experiments: Lemma 7.6 (table 7.6), the
   dependence MC and alpha bound of Lemma 7.9 (fig 7.1), the connectivity
   rule of section 7.4 (table 7.4), the temporal-independence bound of
   Lemma 7.15 (table 7.15), and the exact global MC checks of Lemmas
   7.1/7.5 (table L7.5). *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Properties = Sf_core.Properties
module Census = Sf_core.Census
module View = Sf_core.View
module Dependence = Sf_analysis.Dependence
module Temporal = Sf_analysis.Temporal
module Connectivity = Sf_analysis.Connectivity
module Global_mc = Sf_analysis.Global_mc
module Decay = Sf_analysis.Decay

let config = Protocol.make_config ~view_size:40 ~lower_threshold:18

let make_system ~seed ~n ~loss =
  let rng = Sf_prng.Rng.create (seed + 1) in
  let topology = Topology.regular rng ~n ~out_degree:30 in
  Runner.create ~seed ~n ~loss_rate:loss ~config ~topology ()

(* --- Lemma 7.6: uniformity --- *)

let table_7_6 () =
  Output.section "L7.6" "Uniformity of view entries (Property M3, Lemma 7.6)";
  Fmt.pr
    "Appearance counts of every id across all views, aggregated over 20@\n\
     independent 400-node systems (one converged snapshot each), tested@\n\
     against uniformity by chi-square.@.";
  let runs = 20 and n = 400 in
  let counts = Array.make n 0. in
  for seed = 1 to runs do
    let r = make_system ~seed:(7000 + seed) ~n ~loss:0.01 in
    Runner.run_rounds r 250;
    Array.iter
      (fun u ->
        List.iter
          (fun id -> if id <> u && id < n then counts.(id) <- counts.(id) +. 1.)
          (List.map (fun e -> e.View.id) (View.row_entries (Runner.store r) u)))
      (Runner.live_ids r)
  done;
  let result = Sf_stats.Hypothesis.chi_square_uniform counts in
  let summary = Sf_stats.Summary.of_array counts in
  Output.table
    [ "metric"; "value" ]
    [
      [ "ids (cells)"; Output.i n ];
      [ "mean count per id"; Output.f2 (Sf_stats.Summary.mean summary) ];
      [ "count std / mean"; Output.f4 (Sf_stats.Summary.std summary /. Sf_stats.Summary.mean summary) ];
      [ "chi-square statistic"; Output.f2 result.Sf_stats.Hypothesis.statistic ];
      [ "degrees of freedom"; Output.i result.Sf_stats.Hypothesis.degrees_of_freedom ];
      [ "p-value"; Output.f4 result.Sf_stats.Hypothesis.p_value ];
    ];
  Output.check "uniformity not rejected (p > 0.001)"
    (result.Sf_stats.Hypothesis.p_value > 0.001)

(* --- Figure 7.1 / Lemma 7.9: spatial independence --- *)

let fig_7_1 () =
  Output.section "F7.1/L7.9" "Spatial independence: dependence MC and alpha bound";
  Fmt.pr
    "Analytic: the two-state dependence MC of Figure 7.1 and the bound@\n\
     alpha >= 1 - 2(loss+delta).  Measured: the conservative dependence@\n\
     census (self-edges + anchored instances + within-view duplicates) on@\n\
     1000-node systems after 600 rounds; delta is the measured duplication@\n\
     rate at each loss.@.";
  let rows =
    List.map
      (fun loss ->
        let r = make_system ~seed:(9000 + int_of_float (loss *. 1000.)) ~n:1000 ~loss in
        Runner.run_rounds r 300;
        let base = Runner.world_counters r in
        Runner.run_rounds r 300;
        let delta = (Runner.rates_since r base).Runner.duplication -. loss in
        let delta = Float.max 0. delta in
        let census = Census.of_flat (Runner.store r) in
        let bound = Dependence.alpha_lower_bound ~loss ~delta in
        let exact = 1. -. Dependence.stationary_dependent_fraction ~loss ~delta in
        (loss, delta, bound, exact, census))
      [ 0.; 0.01; 0.05; 0.1 ]
  in
  Output.table
    [ "loss"; "delta(meas)"; "alpha bound"; "alpha MC"; "alpha measured"; "self"; "anchored"; "parallel" ]
    (List.map
       (fun (loss, delta, bound, exact, census) ->
         [
           Output.f2 loss;
           Output.f4 delta;
           Output.f4 bound;
           Output.f4 exact;
           Output.f4 census.Census.alpha;
           Output.i census.Census.self_edges;
           Output.i census.Census.anchored;
           Output.i census.Census.parallel_surplus;
         ])
       rows);
  List.iter
    (fun (loss, _, bound, _, census) ->
      (* The slack covers the census, not the paper: it labels every
         anchored copy and every parallel copy (census.ml's header), an
         over-count of the paper's "all but one" rule. *)
      Output.check
        (Fmt.str
           "loss %.2f: alpha %.3f, bound %.3f, alpha - bound %+.3f >= -0.030 \
            (slack for a census that labels every anchored and every parallel \
            copy)"
           loss census.Census.alpha bound (census.Census.alpha -. bound))
        (census.Census.alpha >= bound -. 0.03))
    rows;
  let alphas = List.map (fun (_, _, _, _, c) -> c.Census.alpha) rows in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b && decreasing rest
    | _ -> true
  in
  Output.check "dependence grows moderately with loss (alpha decreasing)" (decreasing alphas)

(* --- Section 7.4 connectivity rule --- *)

let table_7_4 () =
  Output.section "T7.4" "Connectivity rule: minimal dL (section 7.4)";
  Fmt.pr
    "Minimal even dL such that Pr[Binomial(dL, alpha) <= 2] <= eps, with@\n\
     alpha = 1 - 2(loss+delta).  Paper example: loss = delta = 1%%,@\n\
     eps = 1e-30 -> dL = 26.@.";
  let rows =
    List.concat_map
      (fun (loss, delta) ->
        List.map
          (fun epsilon ->
            let alpha = Dependence.alpha_lower_bound ~loss ~delta in
            let dl =
              match Connectivity.minimal_lower_threshold ~alpha ~epsilon () with
              | Some d -> Output.i d
              | None -> "-"
            in
            [ Output.f2 loss; Output.f2 delta; Fmt.str "%.0e" epsilon; Output.f3 alpha; dl ])
          [ 1e-10; 1e-20; 1e-30 ])
      [ (0.01, 0.01); (0.05, 0.01); (0.1, 0.02) ]
  in
  Output.table [ "loss"; "delta"; "eps"; "alpha"; "min dL" ] rows;
  Output.check "paper example reproduced: dL = 26"
    (Connectivity.minimal_lower_threshold ~alpha:0.96 ~epsilon:1e-30 () = Some 26)

(* --- Lemma 7.15: temporal independence --- *)

let table_7_15 () =
  Output.section "L7.15" "Temporal independence (Property M5, Lemma 7.15)";
  Fmt.pr
    "Analytic: tau_eps and the O(s log n) actions-per-node scaling.@\n\
     Empirical: fraction of view instances surviving from a reference@\n\
     snapshot, against the geometric refresh prediction (Lemma 6.9 rate).@.";
  Output.subsection "tau_eps bound (dE=27, alpha=0.96, eps=0.01)";
  Output.table
    [ "n"; "s"; "tau_eps (transformations)"; "actions/node"; "s ln n" ]
    (List.map
       (fun n ->
         let s = 40 in
         let p = Temporal.make_params ~n ~view_size:s ~expected_outdegree:27. ~alpha:0.96 in
         [
           Output.i n;
           Output.i s;
           Fmt.str "%.3e" (Temporal.tau_epsilon p ~epsilon:0.01);
           Output.f2 (Temporal.actions_per_node p ~epsilon:0.01);
           Output.f2 (Temporal.headline_scaling p);
         ])
       [ 1_000; 10_000; 100_000; 1_000_000 ]);
  Output.subsection "measured view-overlap decay (n=1000, loss=0.01)";
  let r = make_system ~seed:1234 ~n:1000 ~loss:0.01 in
  Runner.run_rounds r 300;
  let points = Properties.overlap_decay r ~blocks:10 ~rounds_per_block:10 in
  let params = Decay.make_params ~loss:0.01 ~delta:0.01 ~lower_threshold:18 ~view_size:40 in
  let survival = Decay.per_round_survival params in
  Output.table
    [ "rounds"; "measured overlap"; "geometric prediction" ]
    (List.map
       (fun (rounds, fraction) ->
         [
           Output.i rounds;
           Output.f3 fraction;
           Output.f3 (survival ** float_of_int rounds);
         ])
       points);
  let final_rounds, final =
    match List.rev points with p :: _ -> p | [] -> (0, 1.)
  in
  Output.check
    (Fmt.str "dependence on the starting state decays (%.3f left after %d rounds)"
       final final_rounds)
    (final < 0.5);
  (* Scaling headline: per-node actions grow like s log n. *)
  let per_node n =
    Temporal.actions_per_node
      (Temporal.make_params ~n ~view_size:40 ~expected_outdegree:27. ~alpha:0.96)
      ~epsilon:0.01
  in
  let ratio = per_node 1_000_000 /. per_node 1_000 in
  Output.check
    (Fmt.str "actions/node scales like log n (ratio %.2f for n x1000)" ratio)
    (ratio > 1.8 && ratio < 2.2)

(* --- Lemmas 7.1/7.5: exact global MC --- *)

let table_7_5 () =
  Output.section "L7.5" "Exact global Markov chain on tiny systems (section 7)";
  Fmt.pr
    "The full chain on membership graphs, built exactly for n=3.  Checks:@\n\
     ergodicity (Lemma 7.1/A.2), uniformity over instance-labeled states@\n\
     with no loss (Lemma 7.5), and exact uniformity of edge probabilities@\n\
     (Lemma 7.6).@.";
  let no_loss = { Global_mc.n = 3; view_size = 6; lower_threshold = 0; loss = 0. } in
  let triangle = [ [ 1; 2 ]; [ 0; 2 ]; [ 0; 1 ] ] in
  let r = Global_mc.explore no_loss ~initial:triangle in
  let lossy = { Global_mc.n = 3; view_size = 4; lower_threshold = 2; loss = 0.1 } in
  let rl = Global_mc.explore lossy ~initial:triangle in
  Output.table
    [ "chain"; "states"; "ergodic"; "labeled max/min"; "edge max/min"; "mean entries" ]
    [
      [
        "no loss (s=6,dL=0)";
        Output.i (Array.length r.Global_mc.states);
        string_of_bool r.Global_mc.is_ergodic;
        Output.f4 (Global_mc.labeled_uniformity_ratio r);
        Output.f4 (Global_mc.edge_probability_spread r);
        Output.f3 r.Global_mc.mean_entries;
      ];
      [
        "loss 10% (s=4,dL=2)";
        Output.i (Array.length rl.Global_mc.states);
        string_of_bool rl.Global_mc.is_ergodic;
        "-";
        Output.f4 (Global_mc.edge_probability_spread rl);
        Output.f3 rl.Global_mc.mean_entries;
      ];
    ];
  Output.check "Lemma 7.1: chains strongly connected"
    (r.Global_mc.is_ergodic && rl.Global_mc.is_ergodic);
  Output.check "Lemma 7.5 (exact, instance-labeled): stationary uniform"
    (Float.abs (Global_mc.labeled_uniformity_ratio r -. 1.) < 1e-6);
  Output.check "Lemma 7.6: edge probabilities exactly uniform (both chains)"
    (Float.abs (Global_mc.edge_probability_spread r -. 1.) < 1e-6
    && Float.abs (Global_mc.edge_probability_spread rl -. 1.) < 1e-5)
