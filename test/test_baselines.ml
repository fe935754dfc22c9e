(* Tests for the baseline protocols, checking the contrasts the paper draws
   in section 3.1. *)

module Baselines = Sf_core.Baselines
module Topology = Sf_core.Topology
module Census = Sf_core.Census
module Properties = Sf_core.Properties

let make ?(seed = 66) ?(n = 100) ?(loss = 0.) kind =
  let rng = Sf_prng.Rng.create (seed + 5) in
  let topology = Topology.regular rng ~n ~out_degree:6 in
  Baselines.create ~seed ~n ~view_size:12 ~loss_rate:loss ~kind ~topology

(* The monitors read a baseline's store; a killed node's row is not live. *)
let live b u = not (Baselines.is_dead b u)
let connected b = Properties.is_weakly_connected (Baselines.store b) ~live:(live b)
let census b = Census.of_flat (Baselines.store b)

let test_shuffle_lossless_preserves_ids () =
  let b = make ~loss:0. (Baselines.Shuffle { exchange_size = 3 }) in
  let before = Baselines.total_instances b in
  Baselines.run_rounds b 100;
  Alcotest.(check int) "edge count invariant without loss" before
    (Baselines.total_instances b);
  Alcotest.(check bool) "still connected" true (connected b)

let test_shuffle_bleeds_ids_under_loss () =
  let b = make ~loss:0.05 (Baselines.Shuffle { exchange_size = 3 }) in
  let before = Baselines.total_instances b in
  Baselines.run_rounds b 150;
  let after = Baselines.total_instances b in
  Alcotest.(check bool)
    (Printf.sprintf "edges %d -> %d" before after)
    true
    (after < before / 2)

let test_shuffle_creates_no_anchored_dependence () =
  let b = make ~loss:0.02 (Baselines.Shuffle { exchange_size = 3 }) in
  Baselines.run_rounds b 50;
  let c = census b in
  Alcotest.(check int) "no anchored entries" 0 c.Census.anchored

let test_push_pull_never_loses_ids () =
  let b = make ~loss:0.2 (Baselines.Push_pull { gossip_size = 3 }) in
  let before = Baselines.total_instances b in
  Baselines.run_rounds b 100;
  Alcotest.(check bool) "instances never shrink" true
    (Baselines.total_instances b >= before);
  Alcotest.(check bool) "connected" true (connected b)

let test_push_pull_accumulates_dependence () =
  let b = make ~loss:0.01 (Baselines.Push_pull { gossip_size = 3 }) in
  Baselines.run_rounds b 100;
  let c = census b in
  Alcotest.(check bool)
    (Printf.sprintf "alpha %.3f collapses" c.Census.alpha)
    true
    (c.Census.alpha < 0.5);
  Alcotest.(check bool) "anchored entries dominate" true (c.Census.anchored > 0)

let test_push_only_is_reinforcement_only () =
  let b = make ~loss:0. Baselines.Push_only in
  Baselines.run_rounds b 100;
  (* Without mixing, views fill with pushed sender ids; the system keeps
     running and no ids are destroyed below the initial count. *)
  Alcotest.(check bool) "instances kept" true
    (Baselines.total_instances b >= 100 * 6);
  let c = census b in
  Alcotest.(check bool) "duplicates accumulate (no mixing)" true
    (c.Census.parallel_surplus > 0)

let test_indegree_summary_counts () =
  let b = make (Baselines.Push_pull { gossip_size = 2 }) in
  let s = Properties.indegree_summary (Baselines.store b) ~live:(live b) in
  Alcotest.(check int) "one summary entry per node" 100 (Sf_stats.Summary.count s);
  (* Regular topology: all indegrees 6 initially. *)
  Alcotest.(check bool) "initial variance 0" true (Sf_stats.Summary.variance s < 1e-9)

(* Two live halves, {0, 1} and {3, 4}, joined only through node 2.  Once
   2 is killed its id still sits in every view, and must bridge
   nothing. *)
let test_killed_id_does_not_bridge () =
  let views = [| [ 1; 2 ]; [ 0; 2 ]; [ 0; 3 ]; [ 4; 2 ]; [ 3; 2 ] |] in
  let b =
    Baselines.create ~seed:1 ~n:5 ~view_size:8 ~loss_rate:0. ~kind:Baselines.Push_only
      ~topology:(Array.get views)
  in
  Alcotest.(check bool) "connected through node 2" true (connected b);
  Baselines.kill b 2;
  Alcotest.(check bool) "split once 2 is dead" false (connected b)

let suite =
  [
    Alcotest.test_case "shuffle lossless conservation" `Quick test_shuffle_lossless_preserves_ids;
    Alcotest.test_case "shuffle bleeds under loss" `Quick test_shuffle_bleeds_ids_under_loss;
    Alcotest.test_case "shuffle has no anchors" `Quick test_shuffle_creates_no_anchored_dependence;
    Alcotest.test_case "push-pull loss immunity" `Quick test_push_pull_never_loses_ids;
    Alcotest.test_case "push-pull dependence" `Quick test_push_pull_accumulates_dependence;
    Alcotest.test_case "push-only reinforcement" `Quick test_push_only_is_reinforcement_only;
    Alcotest.test_case "indegree summary" `Quick test_indegree_summary_counts;
    Alcotest.test_case "a killed id does not bridge two live halves" `Quick
      test_killed_id_does_not_bridge;
  ]
