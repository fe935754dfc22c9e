(* Resilience experiments (RES1, RES2): what the self-healing
   layer (lib/resilience) buys under the loss regimes the paper leaves
   open.

   - RES1: a loss ramp 0 -> 0.4 with static thresholds vs adaptive
     retuning — the retuned system keeps its mean outdegree near the
     d_hat it was asked to hold, the static one drifts;
   - RES2: time-to-reconnect after a long partition — the supervised
     recovery path vs the manual Churn.recover_connectivity call. *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Properties = Sf_core.Properties
module Churn = Sf_core.Churn
module Summary = Sf_stats.Summary
module Scenario = Sf_faults.Scenario
module Loss = Sf_faults.Loss
module Policy = Sf_resil.Policy

(* The production solver wiring: section 6.3 re-solved for the estimated
   loss, clamped below the select_lossy domain bound. *)
let solve ~d_hat ~delta ~loss =
  let t =
    Sf_analysis.Thresholds.select_lossy ~d_hat ~delta ~loss:(Float.min loss 0.45)
  in
  (t.Sf_analysis.Thresholds.lower_threshold, t.Sf_analysis.Thresholds.view_size)

let scenario_of_string s =
  match Scenario.of_string s with
  | Ok sc -> sc
  | Error e -> Fmt.failwith "scenario %S: %s" s e

(* --- RES1: degree tracking under a loss ramp --- *)

let res1_d_hat = 30
let res1_segments = [ 0.0; 0.1; 0.2; 0.3; 0.4 ]
let res1_rounds_per_segment = 40

(* One arm of the ramp: drive the per-link loss through the segments and
   record the mean outdegree at the end of each. *)
let res1_arm ~resilience ~seed =
  let current_loss = ref 0.0 in
  let scenario =
    Scenario.make ~loss:(Loss.Per_link (fun _ _ -> !current_loss)) ()
  in
  let config = Protocol.make_config ~view_size:40 ~lower_threshold:18 in
  let n = 200 in
  let topology = Topology.regular (Sf_prng.Rng.create (seed + 1)) ~n ~out_degree:30 in
  let r =
    Runner.create ~scenario ?resilience ~seed ~n ~loss_rate:0. ~config ~topology ()
  in
  let means =
    List.map
      (fun loss ->
        current_loss := loss;
        Runner.run_rounds r res1_rounds_per_segment;
        ( loss,
          Summary.mean
            (Properties.outdegree_summary (Runner.store r) ~live:(Runner.is_live r)) ))
      res1_segments
  in
  (r, means)

let fig_res1 () =
  Output.section "RES1"
    "Adaptive retuning holds d_hat through a loss ramp (0 -> 0.4)";
  Fmt.pr
    "n=200, s=40, dL=18 (solved for d_hat=%d at loss 0), per-link loss ramped@\n\
     through %d segments of %d rounds; adaptive arm re-solves section 6.3@\n\
     online from the Lemma 6.6 loss estimate.@." res1_d_hat
    (List.length res1_segments) res1_rounds_per_segment;
  let policy =
    Policy.make ~recover:false ~estimator_window:1000 ~smoothing:0.5 ~cooldown:5
      ~solve:(solve ~d_hat:res1_d_hat ~delta:0.01)
      ()
  in
  let r_adaptive, adaptive = res1_arm ~resilience:(Some policy) ~seed:7100 in
  let _r_static, static = res1_arm ~resilience:None ~seed:7100 in
  Output.table
    [ "loss"; "static mean degree"; "adaptive mean degree" ]
    (List.map2
       (fun (loss, ms) (_, ma) -> [ Output.f2 loss; Output.f2 ms; Output.f2 ma ])
       static adaptive);
  (match Runner.resilience_statistics r_adaptive with
  | Some rs ->
    Fmt.pr "  adaptive arm: estimate %.3f after %d windows, %d retunes@."
      rs.Runner.loss_estimate rs.Runner.estimator_windows rs.Runner.retunes
  | None -> ());
  let final l = List.assoc 0.4 l in
  let target = float_of_int res1_d_hat in
  let adaptive_err = Float.abs (final adaptive -. target) /. target in
  let static_err = Float.abs (final static -. target) /. target in
  Output.check
    (Fmt.str "adaptive mean degree at loss 0.4 within 10%% of d_hat (off by %.1f%%)"
       (100. *. adaptive_err))
    (adaptive_err <= 0.10);
  Output.check
    (Fmt.str "static thresholds drift further (off by %.1f%%)" (100. *. static_err))
    (static_err > adaptive_err)

(* --- RES2: supervised vs manual time-to-reconnect --- *)

(* The splitting configuration of the resilience test "supervised
   partition recovery": small views, a 100-round two-way partition, 30
   worlds (world k seeded 530 + k), 150 rounds in all.  Both arms run
   the same worlds; the clock starts when the partition window closes
   (round 105). *)
let res2_window_end = 105
let res2_after = 45
let res2_worlds = 30

let res2_runner ?resilience seed =
  let config = Protocol.make_config ~view_size:8 ~lower_threshold:2 in
  let n = 200 in
  let scenario = scenario_of_string "partition@5-105:2" in
  let topology = Topology.regular (Sf_prng.Rng.create (seed + 1)) ~n ~out_degree:6 in
  Runner.create ~scenario ?resilience ~seed ~n ~loss_rate:0.05 ~config ~topology ()

(* Rounds past the window close until weak connectivity, probing every
   round; [limit] caps the search. *)
let rounds_to_reconnect r ~limit =
  let rec probe k =
    if Properties.is_weakly_connected (Runner.store r) ~live:(Runner.is_live r) then
      Some k
    else if k >= limit then None
    else begin
      Runner.run_rounds r 1;
      probe (k + 1)
    end
  in
  probe 0

type res2_world = {
  split : bool;            (* the manual arm is split at the window close *)
  manual : int option;     (* rounds past the close, by recover_connectivity *)
  supervised : int option; (* rounds past the close, by the supervisor alone *)
  attempts : int;          (* the supervisor's, over all 150 rounds *)
  recoveries : int;
}

let res2_world seed =
  let r_manual = res2_runner seed in
  Runner.run_rounds r_manual res2_window_end;
  let split =
    not (Properties.is_weakly_connected (Runner.store r_manual)
           ~live:(Runner.is_live r_manual))
  in
  let manual =
    if not split then Some 0
    else Option.map fst (Churn.recover_connectivity ~max_rounds:res2_after r_manual)
  in
  let policy =
    Policy.make ~retune:false ~solve:(solve ~d_hat:8 ~delta:0.01) ()
  in
  let r_sup = res2_runner ~resilience:policy seed in
  Runner.run_rounds r_sup res2_window_end;
  let supervised = rounds_to_reconnect r_sup ~limit:res2_after in
  (* The rest of the test's 150 rounds: its repair count covers them. *)
  Runner.run_rounds r_sup (res2_after - Option.value supervised ~default:res2_after);
  let attempts, recoveries =
    match Runner.resilience_statistics r_sup with
    | Some rs -> (rs.Runner.repair_attempts, rs.Runner.recoveries)
    | None -> (0, 0)
  in
  { split; manual; supervised; attempts; recoveries }

let fig_res2 () =
  Output.section "RES2" "Supervised recovery vs manual rendezvous repair";
  Fmt.pr
    "n=200, s=8, dL=2, partition@5-105:2 over %d worlds (seeds 530 + k).@\n\
     Manual arm: run to the window close, then invoke Churn.recover_connectivity.@\n\
     Supervised arm: the resilience supervisor repairs on its own schedule.@."
    res2_worlds;
  let worlds = List.init res2_worlds (fun k -> res2_world (530 + k)) in
  let count f = List.length (List.filter f worlds) in
  let rounds arm =
    let finished = List.filter_map arm worlds in
    Fmt.str "%d / %d"
      (List.fold_left ( + ) 0 finished)
      (List.fold_left max 0 finished)
  in
  let repaired = count (fun w -> w.attempts >= 1) in
  Output.table
    [ "arm"; "worlds reconnected"; "worlds repaired"; "rounds past close (sum / max)" ]
    [
      [
        "manual (recover_connectivity)";
        Output.i (count (fun w -> Option.is_some w.manual));
        Output.i (count (fun w -> w.split));
        rounds (fun w -> w.manual);
      ];
      [
        "supervised (resilience layer)";
        Output.i (count (fun w -> Option.is_some w.supervised));
        Output.i repaired;
        rounds (fun w -> w.supervised);
      ];
    ];
  Fmt.pr "  supervisor: %d repair attempts, %d confirmed recoveries@."
    (List.fold_left (fun acc w -> acc + w.attempts) 0 worlds)
    (List.fold_left (fun acc w -> acc + w.recoveries) 0 worlds);
  Output.check
    (Fmt.str "the supervisor repaired %d of %d worlds (>= 3)" repaired res2_worlds)
    (repaired >= 3);
  Output.check "every world with a repair attempt confirmed a recovery"
    (List.for_all (fun w -> w.attempts = 0 || w.recoveries >= 1) worlds);
  Output.check "both arms reconnected every world"
    (List.for_all (fun w -> Option.is_some w.manual && Option.is_some w.supervised) worlds);
  Output.check "supervised reconnects at least as fast as manual in every world"
    (List.for_all
       (fun w ->
         match (w.manual, w.supervised) with
         | Some m, Some s -> s <= m
         | _ -> false)
       worlds)
