(* Degree-analysis experiments: Figures 5.2, 6.1, 6.3 and the in-text
   tables of sections 6.3 (thresholds) and 6.4 (Lemmas 6.6/6.7). *)

module Pmf = Sf_stats.Pmf
module Summary = Sf_stats.Summary
module Degree_mc = Sf_analysis.Degree_mc
module Analytic = Sf_analysis.Analytic
module Thresholds = Sf_analysis.Thresholds
module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Properties = Sf_core.Properties
module Topology = Sf_core.Topology

let standard_config = Protocol.make_config ~view_size:40 ~lower_threshold:18

let make_system ?(seed = 7) ?(n = 1000) ?(config = standard_config) ~loss () =
  let rng = Sf_prng.Rng.create (seed + 1) in
  let topology = Topology.regular rng ~n ~out_degree:30 in
  Runner.create ~seed ~n ~loss_rate:loss ~config ~topology ()

(* --- Figure 5.2: transformation outcome frequencies --- *)

let fig_5_2 () =
  Output.section "F5.2" "S&F transformation outcomes (Figure 5.2)";
  Fmt.pr
    "Frequencies of the four transformation outcomes in a running system@\n\
     (n=1000, s=40, dL=18, loss=5%%), against the steady-state predictions@\n\
     of the degree MC.@.";
  let loss = 0.05 in
  let r = make_system ~loss () in
  Runner.run_rounds r 300;
  let base = Runner.world_counters r in
  Runner.run_rounds r 300;
  let now = Runner.world_counters r in
  let sends = float_of_int (now.Runner.sends - base.Runner.sends) in
  let dup = float_of_int (now.Runner.duplications - base.Runner.duplications) /. sends in
  let del = float_of_int (now.Runner.deletions - base.Runner.deletions) /. sends in
  let lost = float_of_int (now.Runner.messages_lost - base.Runner.messages_lost) /. sends in
  let normal = 1. -. dup -. del -. lost in
  Output.table
    [ "outcome (per send)"; "measured"; "meaning" ]
    [
      [ "(b) moved, delivered"; Output.f4 normal; "entries cleared, receiver installs" ];
      [ "(c) duplication"; Output.f4 dup; "sender at dL keeps entries" ];
      [ "(d) deletion"; Output.f4 del; "receiver view full" ];
      [ "(d) message lost"; Output.f4 lost; "loss between the two steps" ];
    ];
  Output.check "duplication ~ loss + deletion (Lemma 6.6)"
    (Float.abs (dup -. (lost +. del)) < 0.01)

(* --- Figure 6.1 --- *)

let fig_6_1 () =
  Output.section "F6.1"
    "No-loss degree distributions: analytical (eq 6.1), degree MC, binomial";
  Fmt.pr "Parameters as in the paper: s=90, dL=0, loss=0, ds(u)=90, any n >> s.@.";
  let dm = 90 in
  let analytic_out = Analytic.outdegree_distribution ~dm in
  let analytic_in = Analytic.indegree_distribution ~dm in
  let binomial = Analytic.binomial_reference ~dm in
  let params = Degree_mc.make_params ~view_size:90 ~lower_threshold:0 ~loss:0. () in
  let mc = Degree_mc.solve ~initial_state:(30, 30) params in
  let mc_out = Degree_mc.even_outdegree mc in
  Output.subsection "outdegree distribution (even support, probabilities)";
  let rows =
    List.filter_map
      (fun d ->
        let a = Pmf.prob analytic_out d
        and m = Pmf.prob mc_out d
        and b = Pmf.prob binomial d in
        if a > 5e-4 || m > 5e-4 then
          Some [ Output.i d; Output.f4 a; Output.f4 m; Output.f4 b ]
        else None)
      (List.init 46 (fun k -> 2 * k))
  in
  Output.table [ "d"; "analytical"; "degree MC"; "binomial" ] rows;
  Output.subsection "indegree distribution";
  let rows =
    List.filter_map
      (fun k ->
        let a = Pmf.prob analytic_in k
        and m = Pmf.prob mc.Degree_mc.indegree k
        and b = Pmf.prob binomial k in
        if a > 5e-4 || m > 5e-4 then
          Some [ Output.i k; Output.f4 a; Output.f4 m; Output.f4 b ]
        else None)
      (List.init 46 Fun.id)
  in
  Output.table [ "din"; "analytical"; "degree MC"; "binomial" ] rows;
  Output.subsection "summary";
  Output.table
    [ "series"; "mean"; "std" ]
    [
      [ "outdegree analytical"; Output.f3 (Pmf.mean analytic_out); Output.f3 (Pmf.std analytic_out) ];
      [ "outdegree degree-MC"; Output.f3 (Pmf.mean mc_out); Output.f3 (Pmf.std mc_out) ];
      [ "indegree analytical"; Output.f3 (Pmf.mean analytic_in); Output.f3 (Pmf.std analytic_in) ];
      [ "indegree degree-MC"; Output.f3 (Pmf.mean mc.Degree_mc.indegree); Output.f3 (Pmf.std mc.Degree_mc.indegree) ];
      [ "binomial reference"; Output.f3 (Pmf.mean binomial); Output.f3 (Pmf.std binomial) ];
    ];
  Output.subsection "indegree curves (# analytical, + degree MC, . binomial)";
  Sf_stats.Ascii_plot.pmf_overlay ~threshold:2e-3 Fmt.stdout
    [ ("analytical", analytic_in); ("degree MC", mc.Degree_mc.indegree);
      ("binomial", binomial) ];
  Fmt.pr "  TVD(outdegree: MC vs analytical) = %.4f@."
    (Pmf.tv_distance mc_out analytic_out);
  Fmt.pr "  TVD(indegree:  MC vs analytical) = %.4f@."
    (Pmf.tv_distance mc.Degree_mc.indegree analytic_in);
  Output.check "analytical and MC agree in form (TVD < 0.1)"
    (Pmf.tv_distance mc_out analytic_out < 0.1);
  Output.check "indegree variance below binomial (paper's observation)"
    (Pmf.std mc.Degree_mc.indegree < Pmf.std binomial)

(* --- Section 6.3 thresholds --- *)

let table_6_3 () =
  Output.section "T6.3" "Threshold selection rule (section 6.3)";
  Fmt.pr
    "dL and s from the target expected outdegree d_hat and budget delta,@\n\
     via the eq (6.1) distribution.  Paper example: d_hat=30, delta=0.01@\n\
     -> dL=18, s=40.@.";
  let rows =
    List.concat_map
      (fun d_hat ->
        List.map
          (fun delta ->
            let t = Thresholds.select ~d_hat ~delta in
            [
              Output.i d_hat;
              Output.f3 delta;
              Output.i t.Thresholds.lower_threshold;
              Output.i t.Thresholds.view_size;
              Output.f4 t.Thresholds.p_at_or_below_lower;
              Output.f4 t.Thresholds.p_above_size;
            ])
          [ 0.001; 0.01; 0.05 ])
      [ 10; 20; 30; 40 ]
  in
  Output.table
    [ "d_hat"; "delta"; "dL"; "s"; "Pr(d<=dL)"; "Pr(d>s)" ]
    rows;
  let t = Thresholds.select ~d_hat:30 ~delta:0.01 in
  Output.check "paper example reproduced: (dL, s) = (18, 40)"
    (t.Thresholds.lower_threshold = 18 && t.Thresholds.view_size = 40);
  let literal = Thresholds.select_literal ~d_hat:30 ~delta:0.01 in
  Fmt.pr "  note: the literal reading Pr(d>=s)<=delta gives s=%d instead.@."
    literal.Thresholds.view_size

(* --- Figure 6.3 --- *)

let paper_6_3 = [ (0.0, 28., 3.4); (0.01, 27., 3.6); (0.05, 24., 4.1); (0.1, 23., 4.3) ]

let fig_6_3 () =
  Output.section "F6.3" "Degree distributions under loss (Figure 6.3)";
  Fmt.pr
    "dL=18, s=40, loss in {0, 0.01, 0.05, 0.1}.  Paper-reported average@\n\
     indegrees: 28±3.4, 27±3.6, 24±4.1, 23±4.3.  Degree-MC fixed point and@\n\
     a 1000-node simulation (600 rounds) side by side.@.";
  let results =
    List.map
      (fun (loss, paper_mean, paper_std) ->
        let params = Degree_mc.make_params ~view_size:40 ~lower_threshold:18 ~loss () in
        let mc = Degree_mc.solve params in
        let r = make_system ~loss () in
        Runner.run_rounds r 600;
        let store = Runner.store r and live = Runner.is_live r in
        let sim_in = Properties.indegree_summary store ~live in
        let sim_out = Properties.outdegree_summary store ~live in
        ((loss, paper_mean, paper_std), mc, sim_in, sim_out))
      paper_6_3
  in
  Output.subsection "indegree: paper vs degree MC vs simulation";
  Output.table
    [ "loss"; "paper"; "degree MC"; "simulation" ]
    (List.map
       (fun ((loss, pm, ps), mc, sim_in, _) ->
         [
           Output.f2 loss;
           Fmt.str "%.0f±%.1f" pm ps;
           Fmt.str "%.2f±%.2f" (Pmf.mean mc.Degree_mc.indegree) (Pmf.std mc.Degree_mc.indegree);
           Fmt.str "%.2f±%.2f" (Summary.mean sim_in) (Summary.std sim_in);
         ])
       results);
  Output.subsection "outdegree: degree MC vs simulation";
  Output.table
    [ "loss"; "degree MC"; "simulation"; "MC mode" ]
    (List.map
       (fun ((loss, _, _), mc, _, sim_out) ->
         [
           Output.f2 loss;
           Fmt.str "%.2f±%.2f" (Pmf.mean mc.Degree_mc.outdegree) (Pmf.std mc.Degree_mc.outdegree);
           Fmt.str "%.2f±%.2f" (Summary.mean sim_out) (Summary.std sim_out);
           Output.i (Pmf.mode mc.Degree_mc.outdegree);
         ])
       results);
  Output.subsection "indegree distribution series (degree MC)";
  let mcs = List.map (fun ((loss, _, _), mc, _, _) -> (loss, mc)) results in
  let rows =
    List.filter_map
      (fun din ->
        let probs = List.map (fun (_, mc) -> Pmf.prob mc.Degree_mc.indegree din) mcs in
        if List.exists (fun p -> p > 1e-3) probs then
          Some (Output.i din :: List.map Output.f4 probs)
        else None)
      (List.init 45 Fun.id)
  in
  Output.table ([ "din" ] @ List.map (fun (l, _) -> Fmt.str "l=%.2f" l) mcs) rows;
  List.iter
    (fun ((loss, pm, _), mc, sim_in, _) ->
      let mc_mean = Pmf.mean mc.Degree_mc.indegree in
      Output.check
        (Fmt.str "loss %.2f: MC mean %.1f within 1.5 of paper %.0f and sim %.1f"
           loss mc_mean pm (Summary.mean sim_in))
        (Float.abs (mc_mean -. pm) < 1.5 && Float.abs (mc_mean -. Summary.mean sim_in) < 1.))
    results;
  (* Lemma 6.4: expected outdegree decreases with loss. *)
  let means = List.map (fun (_, mc, _, _) -> Pmf.mean mc.Degree_mc.outdegree) results in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  Output.check "Lemma 6.4: expected outdegree decreases with loss" (decreasing means);
  Output.check "outdegree stays well above dL=18 even at 10% loss"
    (List.for_all (fun m -> m > 20.) means)

(* --- Lemmas 6.6/6.7 rate balance --- *)

let table_6_7 () =
  Output.section "L6.6/6.7" "Duplication vs loss + deletion (Lemmas 6.6 and 6.7)";
  Fmt.pr
    "Per-send probabilities in the degree-MC fixed point and measured in@\n\
     simulation (dL=18, s=40, delta budget 0.01).@.";
  let rows =
    List.map
      (fun loss ->
        let params = Degree_mc.make_params ~view_size:40 ~lower_threshold:18 ~loss () in
        let mc = Degree_mc.solve params in
        let r = make_system ~loss () in
        Runner.run_rounds r 300;
        let base = Runner.world_counters r in
        Runner.run_rounds r 400;
        let rates = Runner.rates_since r base in
        ( loss,
          mc.Degree_mc.duplication_probability,
          mc.Degree_mc.deletion_probability,
          rates ))
      [ 0.; 0.01; 0.05; 0.1 ]
  in
  Output.table
    [ "loss"; "MC dup"; "MC del"; "MC loss+del"; "sim dup"; "sim del"; "sim loss+del" ]
    (List.map
       (fun (loss, dup, del, rates) ->
         [
           Output.f2 loss;
           Output.f4 dup;
           Output.f4 del;
           Output.f4 (loss +. del);
           Output.f4 rates.Runner.duplication;
           Output.f4 rates.Runner.deletion;
           Output.f4 (rates.Runner.loss +. rates.Runner.deletion);
         ])
       rows);
  List.iter
    (fun (loss, dup, del, _) ->
      Output.check
        (Fmt.str "Lemma 6.6 at loss %.2f: dup = loss + del" loss)
        (Float.abs (dup -. (loss +. del)) < 5e-3))
    rows;
  let delta = 0.01 in
  List.iter
    (fun (loss, dup, _, _) ->
      Output.check
        (Fmt.str "Lemma 6.7 at loss %.2f: dup within [loss, loss+delta]" loss)
        (dup >= loss -. 5e-3 && dup <= loss +. delta +. 5e-3))
    rows
