(* Quickstart: build a 1000-node Send & Forget system, pick its parameters
   with the paper's threshold rule, run it over a lossy network, and inspect
   the membership properties.

   Run with: dune exec examples/quickstart.exe *)

module Runner = Sf_core.Runner
module Properties = Sf_core.Properties
module Summary = Sf_stats.Summary

let () =
  (* 1. Choose protocol parameters for a target expected outdegree of 30
        with a 1% duplication/deletion budget (paper, section 6.3). *)
  let thresholds = Sf_analysis.Thresholds.select ~d_hat:30 ~delta:0.01 in
  let config = Sf_analysis.Thresholds.to_config thresholds in
  Fmt.pr "parameters: %a@." Sf_analysis.Thresholds.pp thresholds;

  (* 2. Build the system: 1000 nodes, 1%% message loss, views bootstrapped
        from a random regular topology. *)
  let n = 1000 in
  let topology =
    Sf_core.Topology.regular (Sf_prng.Rng.create 1) ~n ~out_degree:thresholds.d_hat
  in
  let runner = Runner.create ~seed:42 ~n ~loss_rate:0.01 ~config ~topology () in

  (* 3. Run 300 rounds (each node initiates ~300 actions). *)
  Runner.run_rounds runner 300;

  (* 4. Inspect the membership service's properties.  The monitors read
        the world as its engine keeps it: one store, row u = node u's
        view, and which rows are live. *)
  let store = Runner.store runner and live = Runner.is_live runner in
  let outs = Properties.outdegree_summary store ~live in
  let ins = Properties.indegree_summary store ~live in
  Fmt.pr "outdegree: %.1f +- %.1f@." (Summary.mean outs) (Summary.std outs);
  Fmt.pr "indegree:  %.1f +- %.1f  (load balance, Property M2)@." (Summary.mean ins)
    (Summary.std ins);
  let census = Sf_core.Census.of_flat store in
  Fmt.pr "independent entries: %.1f%%  (spatial independence, Property M4)@."
    (100. *. census.Sf_core.Census.alpha);
  Fmt.pr "weakly connected: %b@." (Properties.is_weakly_connected store ~live);

  (* 5. Applications draw peer samples from their local views. *)
  let rng = Sf_prng.Rng.create 7 in
  let samples = Sf_core.Sampling.sample_many runner rng ~node_id:0 ~k:5 in
  Fmt.pr "five peer samples drawn by node 0: %a@." Fmt.(list ~sep:sp int) samples
