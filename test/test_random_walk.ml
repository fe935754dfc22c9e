(* Tests for the random-walk sampling baseline (paper, section 3.1). *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Random_walk = Sf_core.Random_walk

let config = Protocol.make_config ~view_size:12 ~lower_threshold:4

let make_system ?(seed = 88) ?(n = 100) () =
  let rng = Sf_prng.Rng.create (seed + 9) in
  let topology = Topology.regular rng ~n ~out_degree:4 in
  let r = Runner.create ~seed ~n ~loss_rate:0. ~config ~topology () in
  Runner.run_rounds r 50;
  r

let test_walk_completes_without_loss () =
  let r = make_system () in
  let rng = Sf_prng.Rng.create 1 in
  for _ = 1 to 100 do
    match Random_walk.walk r rng ~start:0 ~length:8 ~loss_rate:0. with
    | Random_walk.Completed endpoint ->
      Alcotest.(check bool) "endpoint live" true (Runner.is_live r endpoint)
    | Random_walk.Lost_at_hop _ -> Alcotest.fail "no loss configured"
    | Random_walk.Dead_end _ -> Alcotest.fail "views are populated"
  done

let test_walk_length_zero () =
  let r = make_system () in
  let rng = Sf_prng.Rng.create 2 in
  (match Random_walk.walk r rng ~start:5 ~length:0 ~loss_rate:0. with
  | Random_walk.Completed e -> Alcotest.(check int) "stays put" 5 e
  | _ -> Alcotest.fail "zero-length walk completes trivially")

let test_walk_from_dead_node () =
  let r = make_system () in
  let victim = Runner.random_live_id r in
  ignore (Runner.remove_node r victim);
  let rng = Sf_prng.Rng.create 3 in
  (match Random_walk.walk r rng ~start:victim ~length:5 ~loss_rate:0. with
  | Random_walk.Dead_end 0 -> ()
  | _ -> Alcotest.fail "walk from a departed node dead-ends immediately")

let test_success_rate_matches_theory () =
  (* The paper's objection: success probability decays exponentially with
     walk length under loss. *)
  let r = make_system ~n:200 () in
  let rng = Sf_prng.Rng.create 4 in
  List.iter
    (fun length ->
      let stats =
        Random_walk.sample_statistics r rng ~attempts:4000 ~length ~loss_rate:0.1
      in
      let expected = Random_walk.success_probability ~length ~loss_rate:0.1 in
      Alcotest.(check bool)
        (Printf.sprintf "len %d: %.3f vs %.3f" length stats.Random_walk.success_rate expected)
        true
        (Float.abs (stats.Random_walk.success_rate -. expected) < 0.03))
    [ 1; 5; 15 ]

let test_statistics_accounting () =
  let r = make_system () in
  let rng = Sf_prng.Rng.create 5 in
  let stats = Random_walk.sample_statistics r rng ~attempts:500 ~length:10 ~loss_rate:0.3 in
  Alcotest.(check int) "outcomes partition attempts" 500
    (stats.Random_walk.completed + stats.Random_walk.lost + stats.Random_walk.dead_ends);
  let tallied = Hashtbl.fold (fun _ c acc -> acc + c) stats.Random_walk.endpoint_counts 0 in
  Alcotest.(check int) "endpoint counts match completions" stats.Random_walk.completed tallied

let test_exponential_decay_ordering () =
  let r = make_system ~n:150 () in
  let rng = Sf_prng.Rng.create 6 in
  let rate length =
    (Random_walk.sample_statistics r rng ~attempts:3000 ~length ~loss_rate:0.1)
      .Random_walk.success_rate
  in
  let r2 = rate 2 and r10 = rate 10 and r30 = rate 30 in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f > %.3f > %.3f" r2 r10 r30)
    true
    (r2 > r10 && r10 > r30)

let suite =
  [
    Alcotest.test_case "walk completes" `Quick test_walk_completes_without_loss;
    Alcotest.test_case "zero-length walk" `Quick test_walk_length_zero;
    Alcotest.test_case "walk from dead node" `Quick test_walk_from_dead_node;
    Alcotest.test_case "success rate matches theory" `Quick test_success_rate_matches_theory;
    Alcotest.test_case "statistics accounting" `Quick test_statistics_accounting;
    Alcotest.test_case "exponential decay" `Quick test_exponential_decay_ordering;
  ]
