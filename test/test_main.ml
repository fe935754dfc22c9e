(* Aggregated test entry point: one Alcotest section per subsystem. *)

let () =
  Alcotest.run "send-and-forget"
    [
      ("prng", Test_prng.suite);
      ("stats", Test_stats.suite);
      ("markov", Test_markov.suite);
      ("graph", Test_graph.suite);
      ("engine", Test_engine.suite);
      ("protocol", Test_protocol.suite);
      ("runner", Test_runner.suite);
      ("properties", Test_properties.suite);
      ("churn", Test_churn.suite);
      ("overlay", Test_overlay.suite);
      ("baselines", Test_baselines.suite);
      ("variants", Test_variants.suite);
      ("analysis", Test_analysis.suite);
      ("degree-law", Test_degree_law.suite);
      ("global-mc", Test_global_mc.suite);
      ("random-walk", Test_random_walk.suite);
      ("extensions", Test_extensions.suite);
      ("net", Test_net.suite);
      ("robustness", Test_robustness.suite);
      ("lint", Test_lint.suite);
      ("analyze", Test_analyze.suite);
      ("check", Test_check.suite);
      ("faults", Test_faults.suite);
      ("obs", Test_obs.suite);
      ("resilience", Test_resil.suite);
      ("scale", Test_scale.suite);
      ("spread", Test_spread.suite);
    ]
