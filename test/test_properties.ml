(* Tests for the property monitors (M2-M5) and the dependence census. *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Properties = Sf_core.Properties
module Census = Sf_core.Census
module View = Sf_core.View
module Summary = Sf_stats.Summary

let config = Protocol.make_config ~view_size:12 ~lower_threshold:4

let make_system ?(seed = 33) ?(n = 120) ?(loss = 0.) () =
  let rng = Sf_prng.Rng.create (seed + 7) in
  let topology = Topology.regular rng ~n ~out_degree:4 in
  Runner.create ~seed ~n ~loss_rate:loss ~config ~topology ()

(* --- Census on crafted views --- *)

let entry ?(serial = 0) ?(anchor = None) id = { View.id; serial; anchor; born = 0 }

let test_census_empty () =
  let c = Census.of_views Seq.empty in
  Alcotest.(check int) "no entries" 0 c.Census.total_entries;
  Alcotest.(check bool) "alpha 1" true (c.Census.alpha = 1.)

let test_census_labels () =
  let v = View.create 6 in
  View.set v 0 (entry 7);                      (* independent *)
  View.set v 1 (entry 1);                      (* self edge (owner 1) *)
  View.set v 2 (entry ~anchor:(Some 9) 4);     (* anchored *)
  View.set v 3 (entry ~serial:1 7);            (* parallel duplicate of slot 0 *)
  let c = Census.of_views (List.to_seq [ (1, v) ]) in
  Alcotest.(check int) "total" 4 c.Census.total_entries;
  Alcotest.(check int) "self" 1 c.Census.self_edges;
  Alcotest.(check int) "anchored" 1 c.Census.anchored;
  Alcotest.(check int) "parallel" 1 c.Census.parallel_surplus;
  Alcotest.(check int) "dependent" 3 c.Census.dependent_entries;
  Alcotest.(check bool) "alpha = 1/4" true (Float.abs (c.Census.alpha -. 0.25) < 1e-9)

let test_census_overlapping_labels_count_once () =
  (* A self-edge that is also anchored and duplicated is one dependent
     entry per instance, not three. *)
  let v = View.create 6 in
  View.set v 0 (entry ~anchor:(Some 2) 2);
  View.set v 1 (entry ~serial:1 ~anchor:(Some 2) 2);
  let c = Census.of_views (List.to_seq [ (2, v) ]) in
  Alcotest.(check int) "dependent = total" 2 c.Census.dependent_entries;
  Alcotest.(check bool) "alpha 0" true (c.Census.alpha = 0.)

(* --- M2: load balance --- *)

let test_indegree_summary_matches_graph () =
  let r = make_system () in
  Runner.run_rounds r 20;
  let summary = Properties.indegree_summary r in
  let g = Runner.membership_graph r in
  let direct = Summary.create () in
  Array.iter
    (fun u -> Summary.add_int direct (Sf_graph.Digraph.in_degree g u))
    (Runner.live_ids r);
  Alcotest.(check bool) "means agree" true
    (Float.abs (Summary.mean summary -. Summary.mean direct) < 1e-9);
  Alcotest.(check int) "counts agree" (Summary.count direct) (Summary.count summary)

let test_load_balance_recovers_from_star () =
  (* Property M2: from a pathological star topology, indegree variance must
     shrink dramatically (768 -> ~5 in this configuration). *)
  let n = 150 in
  let topology = Topology.star_like ~n ~hubs:3 ~out_degree:4 in
  let r = Runner.create ~seed:44 ~n ~loss_rate:0. ~config ~topology () in
  let var0 = Summary.variance_population (Properties.indegree_summary r) in
  Runner.run_rounds r 800;
  let var1 = Summary.variance_population (Properties.indegree_summary r) in
  Alcotest.(check bool)
    (Printf.sprintf "variance %.1f -> %.1f" var0 var1)
    true
    (var1 < var0 /. 20.)

(* --- M3: uniformity --- *)

let test_uniformity_chi_square () =
  (* Snapshots within one run are temporally correlated (indegrees relax
     over ~100 rounds), which inflates a naive chi-square.  Aggregating one
     snapshot from each of several independent runs gives genuinely
     independent counts. *)
  let runs = 25 and n = 100 in
  let counts = Array.make n 0. in
  for seed = 1 to runs do
    let r = make_system ~seed:(1000 + seed) ~n () in
    Runner.run_rounds r 200;
    Array.iter
      (fun u ->
        View.iter
          (fun _ e ->
            if e.View.id <> u && e.View.id < n then
              counts.(e.View.id) <- counts.(e.View.id) +. 1.)
          (View.copy_row (Runner.store r) u))
      (Runner.live_ids r)
  done;
  let result = Sf_stats.Hypothesis.chi_square_uniform counts in
  Alcotest.(check bool)
    (Printf.sprintf "p-value %.4f" result.Sf_stats.Hypothesis.p_value)
    true
    (result.Sf_stats.Hypothesis.p_value > 0.001)

(* --- M4: spatial independence --- *)

let test_alpha_bound_under_loss () =
  let loss = 0.05 in
  let r = make_system ~n:200 ~loss () in
  Runner.run_rounds r 200;
  let base = Runner.world_counters r in
  Runner.run_rounds r 200;
  let census = Properties.independence_census r in
  (* The measured duplication rate gives the effective delta. *)
  let rates = Runner.rates_since r base in
  let bound =
    Sf_analysis.Dependence.alpha_lower_bound ~loss ~delta:rates.Runner.duplication
  in
  Alcotest.(check bool)
    (Printf.sprintf "alpha %.3f vs (loose) bound %.3f" census.Census.alpha bound)
    true
    (* The census over-counts dependence, so allow a small margin below the
       analytic bound. *)
    (census.Census.alpha > bound -. 0.05);
  Alcotest.(check bool) "some dependence exists under loss" true
    (census.Census.dependent_entries > 0)

let test_alpha_near_one_without_loss () =
  let r = make_system ~loss:0. () in
  Runner.run_rounds r 300;
  let census = Properties.independence_census r in
  Alcotest.(check bool)
    (Printf.sprintf "alpha %.3f" census.Census.alpha)
    true (census.Census.alpha > 0.9)

(* --- M5: temporal independence --- *)

let test_overlap_decay_is_monotone_and_fast () =
  let r = make_system ~n:150 () in
  Runner.run_rounds r 100;
  let points = Properties.overlap_decay r ~blocks:6 ~rounds_per_block:20 in
  Alcotest.(check int) "points" 7 (List.length points);
  (match points with
  | (0, f) :: _ -> Alcotest.(check bool) "starts at 1" true (f = 1.)
  | _ -> Alcotest.fail "expected a round-0 point");
  let fractions = List.map snd points in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "non-increasing" true (monotone fractions);
  let final = match List.rev fractions with f :: _ -> f | [] -> 1. in
  (* Lemma 6.9-style geometric replacement: after 120 rounds with
     dL=4, s=12 the surviving fraction is far below a half. *)
  Alcotest.(check bool) (Printf.sprintf "final overlap %.3f" final) true (final < 0.2)

let test_connectivity_monitor () =
  let r = make_system () in
  Alcotest.(check bool) "connected initially" true (Properties.is_weakly_connected r);
  Runner.run_rounds r 100;
  Alcotest.(check bool) "still connected" true (Properties.is_weakly_connected r)

(* --- Sampling facade --- *)

let test_sampling_basics () =
  let r = make_system () in
  Runner.run_rounds r 50;
  let rng = Sf_prng.Rng.create 3 in
  let node_id = Runner.random_live_id r in
  (match Sf_core.Sampling.sample r rng ~node_id with
  | Some id ->
    Alcotest.(check bool) "sample is a live id" true (Runner.is_live r id);
    Alcotest.(check bool) "not self" true (id <> node_id)
  | None -> Alcotest.fail "expected a sample");
  let samples = Sf_core.Sampling.sample_many r rng ~node_id ~k:10 in
  Alcotest.(check int) "k samples" 10 (List.length samples);
  Alcotest.(check bool) "unknown node" true
    (Sf_core.Sampling.sample r rng ~node_id:99_999 = None)

let test_sampling_census_roughly_uniform () =
  (* As for raw uniformity, independent runs decorrelate the samples. *)
  let runs = 20 and n = 100 in
  let observed = Array.make n 0. in
  for seed = 1 to runs do
    let r = make_system ~seed:(2000 + seed) ~n () in
    Runner.run_rounds r 200;
    let rng = Sf_prng.Rng.create (3000 + seed) in
    let counts = Sf_core.Sampling.sampling_census r rng ~samples_per_node:2 ~rounds_between:40 in
    Hashtbl.iter (fun id c -> if id < n then observed.(id) <- observed.(id) +. float_of_int c) counts
  done;
  let result = Sf_stats.Hypothesis.chi_square_uniform observed in
  Alcotest.(check bool)
    (Printf.sprintf "sampling uniform (p=%.4f)" result.Sf_stats.Hypothesis.p_value)
    true
    (result.Sf_stats.Hypothesis.p_value > 0.001)

(* M4 reads the runner's store with [Census.of_flat]: rows are ids and a
   departed node's row is empty, so after churn (and a join that grows the
   store) the census equals the one over each live view on its own. *)
let test_census_over_store_after_churn () =
  let r = make_system ~loss:0.05 () in
  ignore (Sf_core.Churn.run_with_churn r ~rounds:20 ~joins:3 ~leaves:3);
  Alcotest.(check bool) "the store grew" true
    (View.Flat.node_count (Runner.store r) > 120);
  let per_view =
    Census.of_views
      (Array.to_seq (Runner.live_ids r)
      |> Seq.map (fun u -> (u, View.copy_row (Runner.store r) u)))
  in
  Alcotest.(check bool) "census over the store = census over live views" true
    (Properties.independence_census r = per_view)

let suite =
  [
    Alcotest.test_case "census empty" `Quick test_census_empty;
    Alcotest.test_case "census labels" `Quick test_census_labels;
    Alcotest.test_case "census no double counting" `Quick test_census_overlapping_labels_count_once;
    Alcotest.test_case "M2 indegree summary" `Quick test_indegree_summary_matches_graph;
    Alcotest.test_case "M2 star recovery" `Quick test_load_balance_recovers_from_star;
    Alcotest.test_case "M3 uniformity chi-square" `Slow test_uniformity_chi_square;
    Alcotest.test_case "M4 alpha under loss" `Quick test_alpha_bound_under_loss;
    Alcotest.test_case "M4 alpha without loss" `Quick test_alpha_near_one_without_loss;
    Alcotest.test_case "M5 overlap decay" `Quick test_overlap_decay_is_monotone_and_fast;
    Alcotest.test_case "connectivity monitor" `Quick test_connectivity_monitor;
    Alcotest.test_case "sampling basics" `Quick test_sampling_basics;
    Alcotest.test_case "sampling census uniform" `Slow test_sampling_census_roughly_uniform;
    Alcotest.test_case "census over the store after churn" `Quick
      test_census_over_store_after_churn;
  ]
