(* Churn experiments: Figure 6.4 (decay of departed ids) and the join
   integration bounds of Corollary 6.14. *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Churn = Sf_core.Churn
module Decay = Sf_analysis.Decay

let config = Protocol.make_config ~view_size:40 ~lower_threshold:18

let make_system ~seed ~loss =
  let rng = Sf_prng.Rng.create (seed + 1) in
  let n = 800 in
  let topology = Topology.regular rng ~n ~out_degree:30 in
  let r = Runner.create ~seed ~n ~loss_rate:loss ~config ~topology () in
  Runner.run_rounds r 300;
  r

(* --- Figure 6.4 --- *)

let fig_6_4 () =
  Output.section "F6.4" "Survival of a departed node's id instances (Figure 6.4)";
  Fmt.pr
    "Upper bound (1 - (1-loss-delta) dL / s^2)^rounds with delta=0.01,@\n\
     dL=18, s=40, plus the measured average survival over 12 leave events@\n\
     in an 800-node simulation.@.";
  let losses = [ 0.; 0.01; 0.05; 0.1 ] in
  let bounds =
    List.map
      (fun loss ->
        (loss, Decay.make_params ~loss ~delta:0.01 ~lower_threshold:18 ~view_size:40))
      losses
  in
  let measured =
    List.map
      (fun loss ->
        let r = make_system ~seed:(100 + int_of_float (loss *. 1000.)) ~loss in
        (loss, Churn.leave_decay_fractions r ~repetitions:12 ~rounds:500))
      losses
  in
  Output.subsection "survival: analytic bound (B) and measured (M) per loss rate";
  let checkpoints = [ 0; 25; 50; 70; 100; 150; 200; 300; 400; 500 ] in
  let header =
    [ "round" ]
    @ List.concat_map (fun l -> [ Fmt.str "B l=%.2f" l; Fmt.str "M l=%.2f" l ]) losses
  in
  let rows =
    List.map
      (fun round ->
        Output.i round
        :: List.concat_map
             (fun loss ->
               let _, params = List.find (fun (l, _) -> l = loss) bounds in
               let _, fractions = List.find (fun (l, _) -> l = loss) measured in
               [
                 Output.f3 (Decay.survival_bound params ~rounds:round);
                 Output.f3 fractions.(round);
               ])
             losses)
      checkpoints
  in
  Output.table header rows;
  Output.subsection "bound curves (rounds 0..500)";
  Sf_stats.Ascii_plot.multi_series Fmt.stdout
    (List.map
       (fun (loss, params) ->
         (Fmt.str "loss %.2f" loss, Decay.survival_curve params ~rounds:500))
       bounds);
  Output.subsection "rounds until the bound crosses 50%";
  Output.table
    [ "loss"; "rounds to 50% (bound)" ]
    (List.map
       (fun (loss, params) ->
         [ Output.f2 loss; Output.i (Decay.rounds_to_fraction params ~fraction:0.5) ])
       bounds);
  List.iter
    (fun (loss, params) ->
      Output.check
        (Fmt.str "loss %.2f: below 50%% within 70 rounds (paper's claim)" loss)
        (Decay.rounds_to_fraction params ~fraction:0.5 <= 70))
    bounds;
  (* The bound must actually bound the measurements. *)
  List.iter
    (fun loss ->
      let _, params = List.find (fun (l, _) -> l = loss) bounds in
      let _, fractions = List.find (fun (l, _) -> l = loss) measured in
      let sound =
        List.for_all
          (fun round ->
            fractions.(round) <= Decay.survival_bound params ~rounds:round +. 0.06)
          checkpoints
      in
      Output.check (Fmt.str "loss %.2f: measured decay within the Lemma 6.10 bound" loss) sound)
    losses

(* --- Corollary 6.14 --- *)

let table_6_14 () =
  Output.section "C6.14" "Join integration (Lemmas 6.11-6.13, Corollary 6.14)";
  Fmt.pr
    "A joiner bootstrapped with dL=18 live ids (s=40, so s/dL ~ 2).  The@\n\
     corollary predicts at least Din/4 id instances within about 2s rounds@\n\
     for small loss.  Measured: average over 10 joiners, loss=0.01.@.";
  let loss = 0.01 in
  let r = make_system ~seed:500 ~loss in
  let din =
    Sf_stats.Summary.mean
      (Sf_core.Properties.indegree_summary (Sf_core.Runner.store r)
         ~live:(Sf_core.Runner.is_live r))
  in
  let params = Decay.make_params ~loss ~delta:0.01 ~lower_threshold:18 ~view_size:40 in
  let window = Decay.joiner_integration_rounds params in
  let predicted = Decay.joiner_integration_instances params ~expected_indegree:din in
  let repetitions = 10 in
  let sum_instances = Array.make (window + 1) 0. in
  let sum_outdeg = Array.make (window + 1) 0. in
  for _ = 1 to repetitions do
    let trace = Churn.join_integration r ~rounds:window in
    Array.iteri
      (fun i x -> sum_instances.(i) <- sum_instances.(i) +. float_of_int x)
      trace.Churn.instances;
    Array.iteri
      (fun i x -> sum_outdeg.(i) <- sum_outdeg.(i) +. float_of_int x)
      trace.Churn.out_degrees
  done;
  let avg a i = a.(i) /. float_of_int repetitions in
  Output.table
    [ "round"; "avg id instances"; "avg outdegree" ]
    (List.map
       (fun i -> [ Output.i i; Output.f2 (avg sum_instances i); Output.f2 (avg sum_outdeg i) ])
       (List.filter (fun i -> i <= window) [ 0; 10; 20; 40; 60; 80; window ]));
  Fmt.pr "  analytic window: %d rounds;  predicted instances >= %.1f (Din=%.1f)@."
    window predicted din;
  Output.check
    (Fmt.str "joiner reaches the Cor 6.14 target (%.1f) within the window" predicted)
    (avg sum_instances window >= predicted);
  Output.check "joiner outdegree recovers above dL within the window"
    (avg sum_outdeg window > 18.)
