(* Tests for the section 5 optimization variants. *)

module Variants = Sf_core.Variants
module Topology = Sf_core.Topology
module Census = Sf_core.Census
module Properties = Sf_core.Properties

let make ?(seed = 77) ?(n = 150) ?(loss = 0.05) options =
  let rng = Sf_prng.Rng.create (seed + 3) in
  let topology = Topology.regular rng ~n ~out_degree:8 in
  Variants.create ~seed ~n ~view_size:16 ~lower_threshold:6 ~loss_rate:loss ~options
    ~topology

(* Every row of a variant's store is live. *)
let outdegrees v = Properties.outdegree_summary (Variants.store v) ~live:(fun _ -> true)
let connected v = Properties.is_weakly_connected (Variants.store v) ~live:(fun _ -> true)
let alpha v = (Census.of_flat (Variants.store v)).Census.alpha

let test_standard_variant_behaves_like_sandf () =
  let v = make ~loss:0.05 Variants.standard in
  Variants.run_rounds v 150;
  let outs = outdegrees v in
  let k = Variants.counters v in
  (* Duplication compensates loss (Lemma 6.6 regime). *)
  let dup_rate = float_of_int k.Variants.duplications /. float_of_int k.Variants.sends in
  let loss_rate = float_of_int k.Variants.losses /. float_of_int k.Variants.sends in
  Alcotest.(check bool)
    (Printf.sprintf "dup %.3f near loss %.3f" dup_rate loss_rate)
    true
    (Float.abs (dup_rate -. loss_rate) < 0.03);
  Alcotest.(check bool) "degrees above threshold" true (Sf_stats.Summary.mean outs > 6.);
  Alcotest.(check int) "no undeletions in standard mode" 0 k.Variants.undeletions;
  Alcotest.(check bool) "connected" true (connected v)

let test_mark_and_undelete_reduces_dependence () =
  let standard = make ~seed:78 Variants.standard in
  let marked = make ~seed:78 { Variants.standard with mark_and_undelete = true } in
  Variants.run_rounds standard 150;
  Variants.run_rounds marked 150;
  let a = alpha standard in
  let b = alpha marked in
  Alcotest.(check bool)
    (Printf.sprintf "alpha standard %.3f < mark-undelete %.3f" a b)
    true (b > a);
  let k = Variants.counters marked in
  Alcotest.(check bool) "undeletions used" true (k.Variants.undeletions > 0)

let test_replace_when_full_eliminates_deletions () =
  let v = make { Variants.standard with replace_when_full = true } in
  Variants.run_rounds v 150;
  let k = Variants.counters v in
  Alcotest.(check int) "no deletions" 0 k.Variants.deletions

let test_batching_reduces_message_count () =
  let single = make ~seed:79 Variants.standard in
  let batched = make ~seed:79 { Variants.standard with batch = 3 } in
  Variants.run_rounds single 100;
  Variants.run_rounds batched 100;
  let k1 = Variants.counters single and k3 = Variants.counters batched in
  (* Batched actions fire less often (they need 4 non-empty slots) but move
     more ids per message; the system must stay connected either way. *)
  Alcotest.(check bool) "batched sends fewer messages" true
    (k3.Variants.sends < k1.Variants.sends);
  Alcotest.(check bool) "batched connected" true (connected batched)

let test_batch_validation () =
  Alcotest.check_raises "batch 0 rejected"
    (Invalid_argument "Variants.create: batch must be >= 1") (fun () ->
      ignore (make { Variants.standard with batch = 0 }))

let test_mark_and_undelete_survives_heavy_loss () =
  let v = make ~loss:0.15 { Variants.standard with mark_and_undelete = true } in
  Variants.run_rounds v 200;
  let outs = outdegrees v in
  Alcotest.(check bool) "degrees survive heavy loss" true
    (Sf_stats.Summary.mean outs >= 6.);
  Alcotest.(check bool) "connected" true (connected v)

let suite =
  [
    Alcotest.test_case "standard variant = S&F regime" `Quick test_standard_variant_behaves_like_sandf;
    Alcotest.test_case "mark-and-undelete dependence" `Quick test_mark_and_undelete_reduces_dependence;
    Alcotest.test_case "replace-when-full" `Quick test_replace_when_full_eliminates_deletions;
    Alcotest.test_case "batching" `Quick test_batching_reduces_message_count;
    Alcotest.test_case "batch validation" `Quick test_batch_validation;
    Alcotest.test_case "mark-and-undelete heavy loss" `Quick test_mark_and_undelete_survives_heavy_loss;
  ]
