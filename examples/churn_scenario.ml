(* A dynamic-membership scenario: a stable system absorbs a flash crowd of
   joiners, then a correlated crash of 20% of the nodes, while the paper's
   section 6.5 quantities are tracked — how fast dead ids erode from views
   and how fast joiners become represented.

   Run with: dune exec examples/churn_scenario.exe *)

module Runner = Sf_core.Runner
module Properties = Sf_core.Properties
module Protocol = Sf_core.Protocol
module Summary = Sf_stats.Summary

let report runner label =
  let outs = Properties.outdegree_summary runner in
  let ins = Properties.indegree_summary runner in
  let census = Properties.independence_census runner in
  Fmt.pr "%-28s n=%-5d out=%.1f±%.1f in=%.1f±%.1f alpha=%.3f connected=%b@." label
    (Runner.live_count runner) (Summary.mean outs) (Summary.std outs) (Summary.mean ins)
    (Summary.std ins) census.Sf_core.Census.alpha
    (Properties.is_weakly_connected runner)

let () =
  let config = Protocol.make_config ~view_size:40 ~lower_threshold:18 in
  let n = 1000 in
  let topology = Sf_core.Topology.regular (Sf_prng.Rng.create 5) ~n ~out_degree:30 in
  let runner = Runner.create ~seed:99 ~n ~loss_rate:0.01 ~config ~topology () in
  Runner.run_rounds runner 200;
  report runner "steady state";

  (* Flash crowd: 200 joiners over 20 rounds, each copying dL = 18 entries
     of a live node's view, the donor's id first (the paper's joining
     rule). *)
  let joiners = ref [] in
  for _ = 1 to 20 do
    for _ = 1 to 10 do
      joiners := Runner.add_node runner :: !joiners
    done;
    Runner.run_rounds runner 1
  done;
  report runner "after flash crowd (+200)";

  (* Integration: how represented are the joiners after 2s = 80 rounds?
     Corollary 6.14 predicts at least Din/4 instances each. *)
  Runner.run_rounds runner 80;
  let represented =
    List.filter (fun id -> Runner.count_id_instances runner id > 0) !joiners
  in
  let avg_instances =
    List.fold_left (fun acc id -> acc + Runner.count_id_instances runner id) 0 !joiners
    |> fun total -> float_of_int total /. float_of_int (List.length !joiners)
  in
  Fmt.pr "joiners represented after 2s rounds: %d of %d (avg %.1f instances each)@."
    (List.length represented) (List.length !joiners) avg_instances;
  report runner "after integration";

  (* Correlated crash: 20% of the nodes disappear at once. *)
  let victims =
    Array.to_list (Runner.live_ids runner) |> List.filteri (fun i _ -> i mod 5 = 0)
  in
  List.iter (fun id -> ignore (Runner.remove_node runner id)) victims;
  let dead_instances () =
    List.fold_left (fun acc id -> acc + Runner.count_id_instances runner id) 0 victims
  in
  Fmt.pr "crashed %d nodes; %d stale view entries point at them@." (List.length victims)
    (dead_instances ());
  report runner "immediately after crash";

  (* Erosion of the dead ids (Lemma 6.10): track the stale entries. *)
  let initial_stale = dead_instances () in
  let params =
    Sf_analysis.Decay.make_params ~loss:0.01 ~delta:0.01 ~lower_threshold:18 ~view_size:40
  in
  List.iter
    (fun rounds_so_far ->
      Runner.run_rounds runner 25;
      let stale = dead_instances () in
      let bound = Sf_analysis.Decay.survival_bound params ~rounds:rounds_so_far in
      Fmt.pr "  round +%3d: %5d stale entries (%.3f of initial; Lemma 6.10 bound %.3f)@."
        rounds_so_far stale
        (float_of_int stale /. float_of_int initial_stale)
        bound)
    [ 25; 50; 75; 100; 125; 150 ];
  report runner "after erosion";
  Fmt.pr "the membership healed itself: no reconfiguration, no bookkeeping.@."
