(* Tests for the extension modules: ASCII plotting, graph quality, chain
   mixing diagnostics, min-wise samplers, Cyclon and baseline churn, and
   reconnection-adjacent helpers. *)

module Pmf = Sf_stats.Pmf
module Ascii_plot = Sf_stats.Ascii_plot
module Quality = Sf_graph.Quality
module Digraph = Sf_graph.Digraph
module Chain = Sf_markov.Chain
module Mixing = Sf_markov.Mixing
module Minwise = Sf_core.Minwise
module Baselines = Sf_core.Baselines
module Topology = Sf_core.Topology

(* --- ASCII plots --- *)

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let render f =
  let buffer = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buffer in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buffer

let test_ascii_pmf () =
  let p = Pmf.create ~offset:3 [| 0.2; 0.5; 0.3 |] in
  let out = render (fun ppf -> Ascii_plot.pmf ppf p) in
  Alcotest.(check bool) "mentions support points" true (String.contains out '3');
  Alcotest.(check bool) "has bars" true (String.contains out '#');
  (* The peak row has the longest bar. *)
  let lines = String.split_on_char '\n' out in
  let bar_length line =
    String.fold_left (fun acc c -> if c = '#' then acc + 1 else acc) 0 line
  in
  let bars = List.filter (fun l -> bar_length l > 0) lines in
  Alcotest.(check int) "three bars" 3 (List.length bars);
  let longest = List.fold_left (fun acc l -> max acc (bar_length l)) 0 bars in
  let peak_line = List.find (fun l -> bar_length l = longest) bars in
  Alcotest.(check bool) "peak is point 4" true (String.contains peak_line '4')

let test_ascii_pmf_threshold () =
  let p = Pmf.create ~offset:0 [| 0.999; 0.001 |] in
  let out = render (fun ppf -> Ascii_plot.pmf ~threshold:0.01 ppf p) in
  let lines = List.filter (fun l -> String.contains l '|') (String.split_on_char '\n' out) in
  Alcotest.(check int) "tiny mass skipped" 1 (List.length lines)

let test_ascii_series () =
  let values = Array.init 50 (fun i -> exp (-.float_of_int i /. 10.)) in
  let out = render (fun ppf -> Ascii_plot.series ppf ("decay", values)) in
  Alcotest.(check bool) "labelled" true (contains_substring out "decay");
  Alcotest.(check bool) "has points" true (String.contains out '*')

let test_ascii_overlay_limits () =
  let p = Pmf.create ~offset:0 [| 1. |] in
  let four = List.init 4 (fun i -> (string_of_int i, p)) in
  Alcotest.(check bool) "more than three rejected" true
    (match render (fun ppf -> Ascii_plot.pmf_overlay ppf four) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Graph quality --- *)

let ring_graph n =
  let g = Digraph.create () in
  for u = 0 to n - 1 do
    Digraph.add_edge g u ((u + 1) mod n)
  done;
  g

let clique_graph n =
  let g = Digraph.create () in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then Digraph.add_edge g u v
    done
  done;
  g

let test_quality_ring_paths () =
  let rng = Sf_prng.Rng.create 1 in
  let stats = Quality.path_statistics ~sources:20 rng (ring_graph 20) in
  (* Undirected 20-ring: diameter 10, average distance 5.26. *)
  Alcotest.(check int) "ring diameter" 10 stats.Quality.estimated_diameter;
  Alcotest.(check bool) "avg path ~ n/4" true
    (Float.abs (stats.Quality.average_path_length -. (100. /. 19.)) < 0.01);
  Alcotest.(check int) "all reachable" 0 stats.Quality.unreachable_pairs

let test_quality_clique () =
  let rng = Sf_prng.Rng.create 2 in
  let stats = Quality.path_statistics ~sources:6 rng (clique_graph 6) in
  Alcotest.(check int) "clique diameter 1" 1 stats.Quality.estimated_diameter;
  Alcotest.(check bool) "clustering 1" true
    (Float.abs (Quality.clustering_coefficient (clique_graph 6) -. 1.) < 1e-9)

let test_quality_ring_clustering () =
  (* A plain cycle has no triangles. *)
  Alcotest.(check bool) "cycle clustering 0" true
    (Quality.clustering_coefficient (ring_graph 10) < 1e-9)

let test_quality_disconnected_pairs () =
  let g = Digraph.create () in
  Digraph.add_edge g 0 1;
  Digraph.ensure_vertex g 2;
  let rng = Sf_prng.Rng.create 3 in
  let stats = Quality.path_statistics ~sources:3 rng g in
  Alcotest.(check bool) "unreachable pairs counted" true (stats.Quality.unreachable_pairs > 0)

let test_quality_robustness () =
  let rng = Sf_prng.Rng.create 4 in
  (* A clique survives any removal as one component. *)
  let profile = Quality.robustness_profile rng (clique_graph 30) ~removal_fractions:[ 0.5 ] in
  (match profile with
  | [ (_, giant) ] -> Alcotest.(check bool) "clique giant 1.0" true (giant = 1.)
  | _ -> Alcotest.fail "one point expected");
  (* A ring shatters: removing half the nodes leaves fragments. *)
  let profile = Quality.robustness_profile rng (ring_graph 100) ~removal_fractions:[ 0.5 ] in
  match profile with
  | [ (_, giant) ] -> Alcotest.(check bool) "ring shatters" true (giant < 0.5)
  | _ -> Alcotest.fail "one point expected"

(* --- Mixing --- *)

let two_state p q =
  Chain.of_rows ~size:2 (function
    | 0 -> [ (0, 1. -. p); (1, p) ]
    | _ -> [ (0, q); (1, 1. -. q) ])

let test_mixing_second_eigenvalue_two_state () =
  (* Exact second eigenvalue of the two-state chain: 1 - p - q. *)
  let p = 0.3 and q = 0.2 in
  let chain = two_state p q in
  let stationary = [| q /. (p +. q); p /. (p +. q) |] in
  let rng = Sf_prng.Rng.create 5 in
  let lambda =
    Mixing.second_eigenvalue_estimate chain ~stationary ~uniform:(fun () ->
        Sf_prng.Rng.float rng)
  in
  Alcotest.(check bool)
    (Printf.sprintf "lambda %.4f ~ %.4f" lambda (1. -. p -. q))
    true
    (Float.abs (lambda -. (1. -. p -. q)) < 1e-3)

let test_mixing_profile_monotone () =
  let chain = two_state 0.3 0.2 in
  let stationary = [| 0.4; 0.6 |] in
  let profile =
    Mixing.distance_profile chain
      ~initial:(Chain.point_distribution ~size:2 0)
      ~stationary ~checkpoints:[ 0; 1; 2; 5; 10; 50 ]
  in
  let ok = ref true in
  for i = 0 to Array.length profile.Mixing.tv_distances - 2 do
    if profile.Mixing.tv_distances.(i) < profile.Mixing.tv_distances.(i + 1) -. 1e-12 then
      ok := false
  done;
  Alcotest.(check bool) "TVD non-increasing" true !ok;
  Alcotest.(check bool) "converges" true
    (profile.Mixing.tv_distances.(Array.length profile.Mixing.tv_distances - 1) < 1e-6)

let test_mixing_time_two_state () =
  let chain = two_state 0.5 0.5 in
  let stationary = [| 0.5; 0.5 |] in
  match Mixing.mixing_time chain ~stationary with
  | Some t -> Alcotest.(check bool) "small mixing time" true (t >= 1 && t <= 5)
  | None -> Alcotest.fail "must mix"

let test_steps_to_distance_bound () =
  let chain = two_state 0.01 0.01 in
  let stationary = [| 0.5; 0.5 |] in
  Alcotest.(check bool) "respects max_steps" true
    (Mixing.steps_to_distance ~max_steps:3 chain
       ~initial:(Chain.point_distribution ~size:2 0)
       ~stationary ~threshold:1e-9
    = None)

(* --- Min-wise samplers --- *)

let test_minwise_deterministic_winner () =
  let rng = Sf_prng.Rng.create 6 in
  let t = Minwise.create rng ~k:4 in
  List.iter (Minwise.observe t) [ 1; 2; 3; 4; 5 ];
  let first = Minwise.samples t in
  (* Re-observing the same ids changes nothing: min-hash is stable. *)
  List.iter (Minwise.observe t) [ 5; 4; 3; 2; 1 ];
  Alcotest.(check (list int)) "stable under re-observation" first (Minwise.samples t);
  Alcotest.(check int) "all samplers filled" 4 (List.length first);
  List.iter
    (fun id -> Alcotest.(check bool) "winner among observed" true (id >= 1 && id <= 5))
    first

let test_minwise_uniform_over_ids () =
  (* Across many independent samplers, the winner among a fixed id set is
     uniform. *)
  let rng = Sf_prng.Rng.create 7 in
  let counts = Array.make 10 0. in
  for _ = 1 to 3000 do
    let t = Minwise.create rng ~k:1 in
    List.iter (Minwise.observe t) (List.init 10 Fun.id);
    match Minwise.samples t with
    | [ id ] -> counts.(id) <- counts.(id) +. 1.
    | _ -> Alcotest.fail "one sampler"
  done;
  let result = Sf_stats.Hypothesis.chi_square_uniform counts in
  Alcotest.(check bool)
    (Printf.sprintf "uniform winners (p=%.4f)" result.Sf_stats.Hypothesis.p_value)
    true
    (result.Sf_stats.Hypothesis.p_value > 0.001)

let test_minwise_invalidate () =
  let rng = Sf_prng.Rng.create 8 in
  let t = Minwise.create rng ~k:3 in
  List.iter (Minwise.observe t) [ 1; 2; 3 ];
  Minwise.invalidate t ~is_dead:(fun _ -> true);
  Alcotest.(check (list int)) "all reset" [] (Minwise.samples t);
  Minwise.observe t 9;
  Alcotest.(check (list int)) "repopulates" [ 9; 9; 9 ] (Minwise.samples t)

let test_minwise_empty () =
  let rng = Sf_prng.Rng.create 9 in
  let t = Minwise.create rng ~k:2 in
  Alcotest.(check (list int)) "empty before observations" [] (Minwise.samples t)

(* --- Cyclon and baseline churn --- *)

let make_baseline ?(world = 0) ?(n = 80) ?(loss = 0.) kind =
  let topology = Topology.regular (Sf_prng.Rng.create (10 + world)) ~n ~out_degree:6 in
  Baselines.create ~seed:(11 + world) ~n ~view_size:12 ~loss_rate:loss ~kind ~topology

let test_cyclon_lossless_conserves_ids () =
  let b = make_baseline (Baselines.Cyclon { exchange_size = 3 }) in
  let before = Baselines.total_instances b in
  Baselines.run_rounds b 80;
  Alcotest.(check int) "edge count invariant" before (Baselines.total_instances b)

(* Entries pointing at a killed node persist for push-pull (never purged
   structurally, only overwritten at random), so 20 rounds after the kill
   some worlds still measure a positive stale fraction: 13 of 30 fixed
   worlds (world k built from seeds 10 + k and 11 + k). *)
let test_kill_drops_traffic () =
  let worlds = 30 in
  let stale =
    List.init worlds (fun world ->
        let b = make_baseline ~world (Baselines.Push_pull { gossip_size = 2 }) in
        Baselines.kill b 0;
        Alcotest.(check bool) "marked dead" true (Baselines.is_dead b 0);
        Baselines.run_rounds b 20;
        Baselines.dead_entry_fraction b > 0.)
    |> List.filter Fun.id |> List.length
  in
  Alcotest.(check bool)
    (Printf.sprintf "stale entries measured in %d of %d worlds (>= 5)" stale worlds)
    true (stale >= 5)

let test_revive_rebootstraps () =
  let b = make_baseline (Baselines.Cyclon { exchange_size = 3 }) in
  Baselines.kill b 5;
  Baselines.run_rounds b 30;
  Baselines.revive b 5 ~bootstrap:6;
  Alcotest.(check bool) "alive again" false (Baselines.is_dead b 5);
  Baselines.run_rounds b 5;
  (* The revived node trades again: total instances reflect its activity. *)
  Alcotest.(check bool) "system still running" true (Baselines.total_instances b > 0)

let test_cyclon_purges_stale_faster () =
  let run kind =
    let b = make_baseline ~n:120 kind in
    Baselines.run_rounds b 30;
    (* Kill a tenth of the nodes at once, then measure stale decay. *)
    for id = 0 to 11 do
      Baselines.kill b id
    done;
    Baselines.run_rounds b 40;
    Baselines.dead_entry_fraction b
  in
  let shuffle = run (Baselines.Shuffle { exchange_size = 3 }) in
  let cyclon = run (Baselines.Cyclon { exchange_size = 3 }) in
  Alcotest.(check bool)
    (Printf.sprintf "cyclon %.4f <= shuffle %.4f (+margin)" cyclon shuffle)
    true
    (cyclon <= shuffle +. 0.01)

(* --- degree MC to_chain --- *)

let test_degree_mc_chain_consistency () =
  let params =
    Sf_analysis.Degree_mc.make_params ~view_size:12 ~lower_threshold:4 ~loss:0.05 ()
  in
  let r = Sf_analysis.Degree_mc.solve params in
  let chain = Sf_analysis.Degree_mc.to_chain r in
  (* The exported chain's stationary distribution matches the fixed point. *)
  let stepped = Chain.step chain r.Sf_analysis.Degree_mc.joint in
  Alcotest.(check bool) "joint is stationary for the exported chain" true
    (2. *. Chain.tv_distance stepped r.Sf_analysis.Degree_mc.joint < 1e-6)

let suite =
  [
    Alcotest.test_case "ascii pmf" `Quick test_ascii_pmf;
    Alcotest.test_case "ascii pmf threshold" `Quick test_ascii_pmf_threshold;
    Alcotest.test_case "ascii series" `Quick test_ascii_series;
    Alcotest.test_case "ascii overlay limits" `Quick test_ascii_overlay_limits;
    Alcotest.test_case "quality: ring paths" `Quick test_quality_ring_paths;
    Alcotest.test_case "quality: clique" `Quick test_quality_clique;
    Alcotest.test_case "quality: cycle clustering" `Quick test_quality_ring_clustering;
    Alcotest.test_case "quality: unreachable pairs" `Quick test_quality_disconnected_pairs;
    Alcotest.test_case "quality: robustness" `Quick test_quality_robustness;
    Alcotest.test_case "mixing: second eigenvalue" `Quick test_mixing_second_eigenvalue_two_state;
    Alcotest.test_case "mixing: profile monotone" `Quick test_mixing_profile_monotone;
    Alcotest.test_case "mixing: mixing time" `Quick test_mixing_time_two_state;
    Alcotest.test_case "mixing: step bound" `Quick test_steps_to_distance_bound;
    Alcotest.test_case "minwise: stable winners" `Quick test_minwise_deterministic_winner;
    Alcotest.test_case "minwise: uniform winners" `Quick test_minwise_uniform_over_ids;
    Alcotest.test_case "minwise: invalidate" `Quick test_minwise_invalidate;
    Alcotest.test_case "minwise: empty" `Quick test_minwise_empty;
    Alcotest.test_case "cyclon: lossless conservation" `Quick test_cyclon_lossless_conserves_ids;
    Alcotest.test_case "baselines: kill" `Quick test_kill_drops_traffic;
    Alcotest.test_case "baselines: revive" `Quick test_revive_rebootstraps;
    Alcotest.test_case "cyclon: stale purge" `Quick test_cyclon_purges_stale_faster;
    Alcotest.test_case "degree MC chain export" `Quick test_degree_mc_chain_consistency;
  ]
