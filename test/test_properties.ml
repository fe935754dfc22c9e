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

(* The monitors over a runner's world: its store and its liveness. *)
let indegrees r = Properties.indegree_summary (Runner.store r) ~live:(Runner.is_live r)
let is_connected r = Properties.is_weakly_connected (Runner.store r) ~live:(Runner.is_live r)

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
  let summary = indegrees r in
  let g = Runner.membership_graph r in
  let direct = Summary.create () in
  Array.iter
    (fun u -> Summary.add_int direct (Sf_graph.Digraph.in_degree g u))
    (Runner.live_ids r);
  Alcotest.(check bool) "means agree" true
    (Float.abs (Summary.mean summary -. Summary.mean direct) < 1e-9);
  Alcotest.(check int) "counts agree" (Summary.count direct) (Summary.count summary)

(* All non-hub nodes point into a small hub set; the hubs point around the
   hub ring and at the first few non-hubs: a load-imbalanced start. *)
let star_like ~n ~hubs ~out_degree u =
  if u < hubs then
    List.init out_degree (fun k ->
        if k < hubs - 1 then (u + k + 1) mod hubs else hubs + ((u + k) mod (n - hubs)))
  else List.init out_degree (fun k -> (u + k) mod hubs)

let test_load_balance_recovers_from_star () =
  (* Property M2: from a pathological star topology, indegree variance must
     shrink dramatically (768 -> ~5 in this configuration). *)
  let n = 150 in
  let topology = star_like ~n ~hubs:3 ~out_degree:4 in
  let r = Runner.create ~seed:44 ~n ~loss_rate:0. ~config ~topology () in
  let var0 = Summary.variance (indegrees r) in
  Runner.run_rounds r 800;
  let var1 = Summary.variance (indegrees r) in
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
  let census = Census.of_flat (Runner.store r) in
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
  let census = Census.of_flat (Runner.store r) in
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
  Alcotest.(check bool) "connected initially" true (is_connected r);
  Runner.run_rounds r 100;
  Alcotest.(check bool) "still connected" true (is_connected r)

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
  (* As for raw uniformity, independent runs decorrelate the samples: each
     run takes two samples per live node, 40 rounds apart. *)
  let runs = 20 and n = 100 in
  let observed = Array.make n 0. in
  for seed = 1 to runs do
    let r = make_system ~seed:(2000 + seed) ~n () in
    Runner.run_rounds r 200;
    let rng = Sf_prng.Rng.create (3000 + seed) in
    for _ = 1 to 2 do
      Runner.run_rounds r 40;
      Array.iter
        (fun node_id ->
          match Sf_core.Sampling.sample r rng ~node_id with
          | Some id when id < n -> observed.(id) <- observed.(id) +. 1.
          | _ -> ())
        (Runner.live_ids r)
    done
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
    (Census.of_flat (Runner.store r) = per_view)

(* --- The monitors over any store, against naive per-row counts --- *)

module Flat = View.Flat

(* A store of [rows] rows of [s] slots; row [u] holds [views.(u)]. *)
let store_of ~s views =
  let store = View.create_rows ~nodes:(Array.length views) s in
  Array.iteri
    (fun u ids ->
      List.iteri
        (fun slot id -> Flat.set store u slot ~id ~serial:0 ~anchor:(-1) ~born:0)
        ids)
    views;
  store

(* Random stores of 1-12 rows and 4 slots, ids up to two past the last
   row (so some name no row), and a random live mask. *)
let gen_world =
  QCheck.Gen.(
    int_range 1 12 >>= fun rows ->
    pair
      (array_size (return rows) (list_size (int_bound 4) (int_bound (rows + 1))))
      (array_size (return rows) bool))

let arb_world =
  QCheck.make gen_world ~print:(fun (views, live) ->
      String.concat "; "
        (Array.to_list
           (Array.mapi
              (fun u ids ->
                Printf.sprintf "%d%s:[%s]" u
                  (if live.(u) then "" else "(dead)")
                  (String.concat "," (List.map string_of_int ids)))
              views)))

let summary_equal a b =
  Summary.count a = Summary.count b
  && (Summary.count a = 0
     || Summary.mean a = Summary.mean b
        && Summary.variance a = Summary.variance b
        && Summary.min_value a = Summary.min_value b
        && Summary.max_value a = Summary.max_value b)

let prop_monitors_match_naive =
  QCheck.Test.make ~count:500 ~name:"monitors equal naive counts and a Digraph reference"
    arb_world (fun (views, live_mask) ->
      let rows = Array.length views in
      let store = store_of ~s:4 views and live u = live_mask.(u) in
      let live_rows = List.filter live (List.init rows Fun.id) in
      let naive_out = Array.of_list (List.map (fun u -> List.length views.(u)) live_rows) in
      let naive_in =
        Array.of_list
          (List.map
             (fun v ->
               List.fold_left
                 (fun acc u -> acc + List.length (List.filter (( = ) v) views.(u)))
                 0 live_rows)
             live_rows)
      in
      (* The deleted UDP driver path's reference: a Digraph over the
         live rows and the edges to live rows. *)
      let g = Sf_graph.Digraph.create () in
      List.iter
        (fun u ->
          Sf_graph.Digraph.ensure_vertex g u;
          List.iter
            (fun id -> if id < rows && live id then Sf_graph.Digraph.add_edge g u id)
            views.(u))
        live_rows;
      Properties.outdegree_samples store ~live = naive_out
      && Properties.indegree_samples store ~live = naive_in
      && summary_equal (Properties.outdegree_summary store ~live)
           (Summary.of_int_array naive_out)
      && summary_equal (Properties.indegree_summary store ~live)
           (Summary.of_int_array naive_in)
      && Properties.is_weakly_connected store ~live
         = Sf_graph.Digraph.is_weakly_connected g)

(* Two live halves, {0, 1} and {3, 4}, joined only through node 2.  The
   removed [Baselines.indegree_summary] summed every node's indegree, a
   killed one's included; the monitor summarises live rows only. *)
let test_killed_node_indegree_not_summarised () =
  let views = [| [ 1; 2 ]; [ 0; 2 ]; [ 0; 3 ]; [ 4; 2 ]; [ 3; 2 ] |] in
  let b =
    Sf_core.Baselines.create ~seed:1 ~n:5 ~view_size:8 ~loss_rate:0.
      ~kind:Sf_core.Baselines.Push_only ~topology:(Array.get views)
  in
  let store = Sf_core.Baselines.store b in
  let live u = not (Sf_core.Baselines.is_dead b u) in
  Alcotest.(check (array int)) "every node's indegree" [| 2; 1; 4; 2; 1 |]
    (Properties.indegree_samples store ~live);
  Sf_core.Baselines.kill b 2;
  Alcotest.(check (array int)) "node 2 is no longer summarised" [| 1; 1; 1; 1 |]
    (Properties.indegree_samples store ~live);
  Alcotest.(check int) "four indegrees" 4
    (Summary.count (Properties.indegree_summary store ~live))

(* Two rows that name only id 5, a node of no row.  The removed driver
   path built a Digraph, where 5 became a vertex joining both rows; in
   the store it bridges nothing. *)
let test_id_past_the_rows_bridges_nothing () =
  let store = store_of ~s:4 [| [ 5; 5 ]; [ 5; 5 ] |] in
  let live _ = true in
  Alcotest.(check bool) "split" false (Properties.is_weakly_connected store ~live);
  Alcotest.(check (array int)) "no indegree from id 5" [| 0; 0 |]
    (Properties.indegree_samples store ~live)

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
    QCheck_alcotest.to_alcotest prop_monitors_match_naive;
    Alcotest.test_case "a killed node's indegree is not summarised" `Quick
      test_killed_node_indegree_not_summarised;
    Alcotest.test_case "an id past the last row bridges nothing" `Quick
      test_id_past_the_rows_bridges_nothing;
  ]
