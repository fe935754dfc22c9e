(* Estimating the system size from peer samples — one of the "gathering
   statistics" applications the paper's introduction motivates.

   No node knows n, but uniform independent samples make n estimable by
   collision counting: if k samples are drawn uniformly from n ids, the
   expected number of colliding pairs is C(k,2)/n, so

     n-hat = C(k,2) / collisions.

   The estimator leans on exactly the properties the paper proves:
   - spatial independence (M4): samples from *different* nodes' views are
     nearly independent, so one sample from each of k nodes works;
   - uniformity (M3): no id is over-represented;
   - temporal independence (M5): snapshots taken a few dozen rounds apart
     are fresh, so averaging over snapshots sharpens the estimate.

   The contrast case draws all k samples from a single node's frozen view:
   within one view of size ~30 collisions are everywhere and the "estimate"
   collapses to roughly the view size.

   Run with: dune exec examples/size_estimation.exe *)

module Runner = Sf_core.Runner
module Sampling = Sf_core.Sampling

(* n-hat from a list of sampled ids. *)
let collision_estimate samples =
  let counts = Hashtbl.create 256 in
  List.iter
    (fun id ->
      Hashtbl.replace counts id (1 + Option.value ~default:0 (Hashtbl.find_opt counts id)))
    samples;
  let collisions =
    Hashtbl.fold (fun _ c acc -> acc + (c * (c - 1) / 2)) counts 0
  in
  let k = List.length samples in
  let pairs = float_of_int (k * (k - 1) / 2) in
  if collisions = 0 then Float.infinity else pairs /. float_of_int collisions

let () =
  let n = 2000 in
  let thresholds = Sf_analysis.Thresholds.select ~d_hat:30 ~delta:0.01 in
  let config = Sf_analysis.Thresholds.to_config thresholds in
  let topology = Sf_core.Topology.regular (Sf_prng.Rng.create 2) ~n ~out_degree:30 in
  let runner = Runner.create ~seed:17 ~n ~loss_rate:0.01 ~config ~topology () in
  Runner.run_rounds runner 200;
  let rng = Sf_prng.Rng.create 18 in

  Fmt.pr "true system size: %d nodes (no node knows this)@." n;

  (* One sample from each of k random nodes, per snapshot; snapshots spaced
     30 rounds apart so each is fresh (M5). *)
  let k = 500 and snapshots = 8 in
  let estimates =
    List.init snapshots (fun snapshot ->
        Runner.run_rounds runner 30;
        let samples =
          List.filter_map
            (fun _ ->
              let node_id = Runner.random_live_id runner in
              Sampling.sample runner rng ~node_id)
            (List.init k Fun.id)
        in
        let estimate = collision_estimate samples in
        Fmt.pr "  snapshot %d: %d samples, n-hat = %.0f@." (snapshot + 1)
          (List.length samples) estimate;
        estimate)
  in
  let finite = List.filter (fun e -> e < Float.infinity) estimates in
  let mean =
    List.fold_left ( +. ) 0. finite /. float_of_int (max 1 (List.length finite))
  in
  let error = Float.abs (mean -. float_of_int n) /. float_of_int n in
  Fmt.pr "averaged n-hat = %.0f  (relative error %.1f%%)@." mean (100. *. error);

  (* The contrast: all k samples from one node's frozen view. *)
  let node_id = Runner.random_live_id runner in
  let frozen_samples = Sampling.sample_many runner rng ~node_id ~k in
  let frozen_estimate = collision_estimate frozen_samples in
  Fmt.pr "@.frozen single view: n-hat = %.0f — bounded by the view size (~%d)@."
    frozen_estimate thresholds.view_size;
  Fmt.pr
    "uniform, independent, evolving views are what make sampling statistics work.@."
