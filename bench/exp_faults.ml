(* Fault-injection experiments (lib/faults) — behaviour of S&F beyond the
   paper's i.i.d. loss model:

   - FA1: Gilbert–Elliott bursty loss vs i.i.d. loss at the same stationary
     mean rate.  The paper's analysis assumes independent per-message drops
     (section 4.1); bursts concentrate the same number of losses on
     unlucky stretches, which stresses the degree distribution's lower
     tail while leaving the mean balance (Lemma 6.6) intact.
   - FA2: recovery times — how long the overlay needs to re-knit after a
     network partition heals, and after a crashed node range resumes with
     stale views; plus the permanent-split regime (a partition outliving
     view decay) healed by the out-of-band rendezvous rule.  Both legs run
     under the strict invariant audit. *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Properties = Sf_core.Properties
module Summary = Sf_stats.Summary
module Scenario = Sf_faults.Scenario
module Loss = Sf_faults.Loss
module Invariant = Sf_check.Invariant

let config = Protocol.make_config ~view_size:40 ~lower_threshold:18

(* --- FA1: bursty vs i.i.d. loss at equal mean --- *)

let bursty_vs_iid () =
  Output.section "FA1" "Bursty (Gilbert-Elliott) vs i.i.d. loss at equal mean rate";
  let mean_loss = 0.2 and mean_burst = 8.0 in
  let ge = Loss.gilbert_elliott ~mean_loss ~mean_burst () in
  Fmt.pr
    "n=600, s=40, dL=18.  Both systems lose %.0f%% of messages in expectation;@\n\
     the GE system loses them in bursts of mean length %.0f (stationary loss@\n\
     %.4f, so Lemma 6.6's mean balance is unchanged while the variance is not).@\n\
     300 warm-up rounds, then 300 measured.@."
    (100. *. mean_loss) mean_burst (Loss.stationary_loss ge);
  let n = 600 and rounds = 300 in
  let measure name scenario =
    let topology = Topology.regular (Sf_prng.Rng.create 501) ~n ~out_degree:30 in
    let r =
      Runner.create ?scenario ~seed:500 ~n ~loss_rate:mean_loss ~config ~topology ()
    in
    Runner.run_rounds r rounds;
    let base = Runner.world_counters r in
    Runner.run_rounds r rounds;
    let rates = Runner.rates_since r base in
    let observed_loss = rates.Runner.loss in
    let outs = Properties.outdegree_summary r in
    let at_or_below_dl =
      Array.fold_left
        (fun acc d -> if d <= config.Protocol.lower_threshold then acc + 1 else acc)
        0 (Properties.outdegree_samples r)
    in
    [
      name;
      Fmt.str "%.4f" observed_loss;
      Fmt.str "%.1f±%.1f" (Summary.mean outs) (Summary.std outs);
      Fmt.str "%.0f" (Summary.min_value outs);
      Output.i at_or_below_dl;
      Output.i (List.length (Runner.starved_nodes r));
      Output.f4 rates.Runner.duplication;
      Output.f4 (rates.Runner.loss +. rates.Runner.deletion);
      Fmt.str "%b" (Properties.is_weakly_connected r);
    ]
  in
  let iid_row = measure "i.i.d." None in
  let ge_row =
    measure "Gilbert-Elliott"
      (Some (Scenario.make ~loss:(Loss.Gilbert_elliott ge) ()))
  in
  Output.table
    [
      "loss process"; "observed"; "outdegree"; "min"; "<=dL"; "starved"; "dup";
      "loss+del"; "connected";
    ]
    [ iid_row; ge_row ];
  Fmt.pr
    "  Bursts widen the outdegree distribution and deepen its lower tail@\n\
     (more nodes at or below dL, hence more duplication), but the per-send@\n\
     mean balance and weak connectivity match the i.i.d. system.@."

(* --- FA2: partition and crash/restart recovery --- *)

(* Rounds until the membership graph is weakly connected again, by running
   one round at a time (cap [limit]). *)
let rounds_to_reconnect r ~limit =
  let rec go k =
    if Properties.is_weakly_connected r then Some k
    else if k >= limit then None
    else begin
      Runner.run_rounds r 1;
      go (k + 1)
    end
  in
  go 0

let fault_recovery () =
  Output.section "FA2" "Recovery from partitions and crash/restart (strict audit)";

  Output.subsection "crash/restart: 10% of nodes freeze for 20 rounds";
  let n = 400 in
  let scenario =
    match Scenario.of_string "crash@40-60:0-39" with
    | Ok sc -> sc
    | Error e -> failwith e
  in
  let topology = Topology.regular (Sf_prng.Rng.create 511) ~n ~out_degree:30 in
  let r =
    Runner.create ~scenario ~seed:510 ~n ~loss_rate:0.01 ~config ~topology ()
  in
  let stats = Invariant.audited_run ~mode:Invariant.Strict r ~rounds:100 in
  let crashed_outs = Summary.create () in
  Array.iter
    (fun u ->
      if u < 40 then
        Summary.add_int crashed_outs (Sf_core.View.Flat.degree (Runner.store r) u))
    (Runner.live_ids r);
  Output.row "  %d actions audited, %d resyncs, %d violations@."
    stats.Invariant.actions_checked stats.Invariant.resyncs
    stats.Invariant.violation_count;
  Output.row "  crashed range outdegree 40 rounds after resume: %.1f±%.1f@."
    (Summary.mean crashed_outs) (Summary.std crashed_outs);
  Output.check "crash/restart passes the strict audit"
    (stats.Invariant.violation_count = 0);
  Output.check "resumed nodes reintegrated (mean outdegree > dL)"
    (Summary.mean crashed_outs > float_of_int config.Protocol.lower_threshold);

  Output.subsection "short partition: 2-way split for 30 rounds, views survive";
  let scenario =
    match Scenario.of_string "partition@20-50:2" with
    | Ok sc -> sc
    | Error e -> failwith e
  in
  let topology = Topology.regular (Sf_prng.Rng.create 521) ~n ~out_degree:30 in
  let r =
    Runner.create ~scenario ~seed:520 ~n ~loss_rate:0.01 ~config ~topology ()
  in
  Runner.run_rounds r 50;
  (* The partition just healed; cross-partition entries (born before round
     20) have had 30 rounds to decay but s=40 views retain plenty. *)
  (match rounds_to_reconnect r ~limit:50 with
  | Some k ->
    Output.row "  weakly connected %d round(s) after the partition healed@." k;
    Output.check "reconnected within 5 rounds of healing" (k <= 5)
  | None -> Output.check "reconnected within 50 rounds of healing" false);

  Output.subsection
    "long partition, small views: permanent split healed by rendezvous";
  (* Whether the cut outlives every cross edge depends on the world, so
     the leg runs the 30 worlds of the faults test "long partition"
     (world k seeded 530 + k) and counts the split ones against its
     bound; every split world must be re-knit with a rebootstrap. *)
  let small = Protocol.make_config ~view_size:8 ~lower_threshold:2 in
  let n = 200 and worlds = 30 in
  let scenario =
    match Scenario.of_string "partition@5-105:2" with
    | Ok sc -> sc
    | Error e -> failwith e
  in
  let recoveries =
    List.filter_map
      (fun k ->
        let seed = 530 + k in
        let topology = Topology.regular (Sf_prng.Rng.create (seed + 1)) ~n ~out_degree:6 in
        let r =
          Runner.create ~scenario ~seed ~n ~loss_rate:0.05 ~config:small ~topology ()
        in
        Runner.run_rounds r 110;
        if Properties.is_weakly_connected r then None
        else Some (Sf_core.Churn.recover_connectivity ~max_rounds:50 r))
      (List.init worlds Fun.id)
  in
  let healed = List.filter_map Fun.id recoveries in
  let total f = List.fold_left (fun acc x -> acc + f x) 0 healed in
  Output.table
    [ "worlds"; "split"; "re-knit"; "rounds (mean)"; "rounds (max)"; "rebootstraps" ]
    [
      [
        Output.i worlds;
        Output.i (List.length recoveries);
        Output.i (List.length healed);
        (if healed = [] then "-"
         else Fmt.str "%.1f" (float_of_int (total fst) /. float_of_int (List.length healed)));
        Output.i (List.fold_left (fun acc (rounds, _) -> max acc rounds) 0 healed);
        Output.i (total snd);
      ];
    ];
  Output.check
    (Fmt.str "the cut split %d of %d worlds (>= 3)" (List.length recoveries) worlds)
    (List.length recoveries >= 3);
  Output.check "recover_connectivity re-knit every split world with a rebootstrap"
    (List.for_all (function Some (_, reboots) -> reboots >= 1 | None -> false) recoveries)
