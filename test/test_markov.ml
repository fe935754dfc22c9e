(* Tests for the Markov-chain toolkit. *)

module Chain = Sf_markov.Chain
module Scc = Sf_markov.Scc

let close ?(eps = 1e-9) what expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.12g, got %.12g" what expected actual)
    true
    (Float.abs (expected -. actual) <= eps *. (1. +. Float.abs expected))

(* --- SCC --- *)

let test_scc_cycle () =
  let r = Scc.tarjan ~n:4 ~successors:(fun i -> [ (i + 1) mod 4 ]) in
  Alcotest.(check int) "one component" 1 r.Scc.count

let test_scc_chain_graph () =
  (* 0 -> 1 -> 2 with no back edges: three singleton components. *)
  let succ = function 0 -> [ 1 ] | 1 -> [ 2 ] | _ -> [] in
  let r = Scc.tarjan ~n:3 ~successors:succ in
  Alcotest.(check int) "three components" 3 r.Scc.count

let test_scc_two_cycles () =
  (* Two 2-cycles joined by a one-way edge. *)
  let succ = function
    | 0 -> [ 1 ]
    | 1 -> [ 0; 2 ]
    | 2 -> [ 3 ]
    | _ -> [ 2 ]
  in
  let r = Scc.tarjan ~n:4 ~successors:succ in
  Alcotest.(check int) "two components" 2 r.Scc.count;
  Alcotest.(check bool) "0 and 1 together" true (r.Scc.component_of.(0) = r.Scc.component_of.(1));
  Alcotest.(check bool) "2 and 3 together" true (r.Scc.component_of.(2) = r.Scc.component_of.(3));
  Alcotest.(check bool) "cycles separate" true (r.Scc.component_of.(0) <> r.Scc.component_of.(2))

let test_scc_large_path_no_overflow () =
  (* The iterative implementation must survive deep recursion shapes. *)
  let n = 200_000 in
  let r = Scc.tarjan ~n ~successors:(fun i -> if i + 1 < n then [ i + 1 ] else []) in
  Alcotest.(check int) "n components" n r.Scc.count

let test_is_strongly_connected () =
  Alcotest.(check bool) "cycle yes" true
    (Scc.is_strongly_connected ~n:5 ~successors:(fun i -> [ (i + 1) mod 5 ]));
  Alcotest.(check bool) "path no" false
    (Scc.is_strongly_connected ~n:3 ~successors:(function 0 -> [ 1 ] | 1 -> [ 2 ] | _ -> []))

(* --- Chain construction --- *)

let two_state p q =
  Chain.of_rows ~size:2 (function
    | 0 -> [ (0, 1. -. p); (1, p) ]
    | _ -> [ (0, q); (1, 1. -. q) ])

(* P(i, j), read as the mass one step puts on j from a point mass at i. *)
let prob c i j = (Chain.step c (Chain.point_distribution ~size:(Chain.size c) i)).(j)

let test_chain_row_normalization () =
  let c = Chain.of_weighted_edges ~size:2 [ (0, 1, 3.); (0, 0, 1.); (1, 0, 2.) ] in
  close "P(0,1)" 0.75 (prob c 0 1);
  close "P(0,0)" 0.25 (prob c 0 0);
  close "P(1,0)" 1. (prob c 1 0)

let test_chain_absorbing_row () =
  (* A row with no edges becomes an absorbing self-loop. *)
  let c = Chain.of_weighted_edges ~size:2 [ (0, 1, 1.) ] in
  close "P(1,1)" 1. (prob c 1 1)

let test_chain_duplicate_edges_accumulate () =
  let c = Chain.of_weighted_edges ~size:2 [ (0, 1, 1.); (0, 1, 1.); (0, 0, 2.) ] in
  close "accumulated" 0.5 (prob c 0 1)

(* --- Ergodicity --- *)

let test_periodicity_of_cycle () =
  let c = Chain.of_rows ~size:4 (fun i -> [ ((i + 1) mod 4, 1.) ]) in
  Alcotest.(check int) "period 4" 4 (Chain.period c);
  Alcotest.(check bool) "not aperiodic" false (Chain.is_aperiodic c);
  Alcotest.(check bool) "irreducible" true (Chain.is_irreducible c)

let test_self_loop_breaks_period () =
  let c =
    Chain.of_rows ~size:4 (fun i ->
        if i = 0 then [ (1, 0.5); (0, 0.5) ] else [ ((i + 1) mod 4, 1.) ])
  in
  Alcotest.(check int) "period 1" 1 (Chain.period c);
  Alcotest.(check bool) "ergodic" true (Chain.is_ergodic c)

(* --- Stationary distributions --- *)

let test_stationary_two_state () =
  (* pi = (q, p) / (p + q). *)
  let p = 0.3 and q = 0.1 in
  let c = two_state p q in
  let r = Chain.stationary c in
  close ~eps:1e-8 "pi(0)" (q /. (p +. q)) r.Chain.distribution.(0);
  close ~eps:1e-8 "pi(1)" (p /. (p +. q)) r.Chain.distribution.(1)

let test_stationary_doubly_stochastic_uniform () =
  (* A doubly stochastic chain has the uniform stationary distribution. *)
  let c =
    Chain.of_rows ~size:5 (fun i -> [ ((i + 1) mod 5, 0.5); ((i + 2) mod 5, 0.5) ])
  in
  let r = Chain.stationary c in
  Array.iter (fun x -> close ~eps:1e-7 "uniform" 0.2 x) r.Chain.distribution

let test_stationary_periodic_chain_converges () =
  (* The lazy iteration must converge even for a period-2 chain. *)
  let c = Chain.of_rows ~size:2 (function 0 -> [ (1, 1.) ] | _ -> [ (0, 1.) ]) in
  let r = Chain.stationary c in
  close ~eps:1e-7 "pi(0)" 0.5 r.Chain.distribution.(0)

let test_step_preserves_mass () =
  let c = two_state 0.4 0.7 in
  let p = Chain.step c [| 0.25; 0.75 |] in
  close "mass preserved" 1. (p.(0) +. p.(1))

let test_step_n () =
  let c = two_state 1.0 1.0 in
  (* Deterministic swap: after 2 steps we are back. *)
  let p = Chain.step c (Chain.step c [| 1.; 0. |]) in
  close "back to start" 1. p.(0)

let test_tv_distance_vectors () =
  close "tv" 0.5 (Chain.tv_distance [| 1.; 0. |] [| 0.5; 0.5 |])

(* --- Hitting times --- *)

let test_hitting_time_two_state () =
  (* From 0 to 1 with P(0->1) = p: geometric with mean 1/p. *)
  let c = two_state 0.25 0.5 in
  close ~eps:1e-6 "mean hitting" 4. (Chain.expected_hitting_time c ~source:0 ~target:1);
  close "self hitting 0" 0. (Chain.expected_hitting_time c ~source:1 ~target:1)

let test_hitting_time_path () =
  (* Symmetric walk on 0-1-2 with reflecting ends; hit 2 from 0: classic 4. *)
  let c =
    Chain.of_rows ~size:3 (function
      | 0 -> [ (1, 1.) ]
      | 1 -> [ (0, 0.5); (2, 0.5) ]
      | _ -> [ (1, 1.) ])
  in
  close ~eps:1e-6 "hit 2 from 0" 4. (Chain.expected_hitting_time c ~source:0 ~target:2)

(* --- Sampling --- *)

let test_sample_step_distribution () =
  let c = two_state 0.3 0.9 in
  let rng = Sf_prng.Rng.create 77 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Chain.sample_step c ~uniform:(fun () -> Sf_prng.Rng.float rng) 0 = 1 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "sampled transition rate" true (Float.abs (rate -. 0.3) < 0.01)

(* --- Properties --- *)

let random_chain_gen =
  QCheck.Gen.(
    int_range 2 8 >>= fun size ->
    let row _ =
      list_size (int_range 1 size) (pair (int_range 0 (size - 1)) (float_range 0.1 5.))
    in
    list_size (return size) (row ()) >|= fun rows -> (size, rows))

let prop_stationary_is_fixed_point =
  QCheck.Test.make ~name:"stationary distribution is a fixed point" ~count:100
    (QCheck.make random_chain_gen) (fun (size, rows) ->
      let rows = Array.of_list rows in
      let c = Chain.of_rows ~size (fun i -> rows.(i)) in
      let r = Chain.stationary c in
      let stepped = Chain.step c r.Chain.distribution in
      2. *. Chain.tv_distance stepped r.Chain.distribution < 1e-6)

let prop_rows_are_stochastic =
  QCheck.Test.make ~name:"constructed rows sum to 1" ~count:100
    (QCheck.make random_chain_gen) (fun (size, rows) ->
      let rows = Array.of_list rows in
      let c = Chain.of_rows ~size (fun i -> rows.(i)) in
      let ok = ref true in
      for i = 0 to size - 1 do
        let total = List.fold_left ( +. ) 0. (List.init size (prob c i)) in
        if Float.abs (total -. 1.) > 1e-9 then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "scc cycle" `Quick test_scc_cycle;
    Alcotest.test_case "scc path" `Quick test_scc_chain_graph;
    Alcotest.test_case "scc two cycles" `Quick test_scc_two_cycles;
    Alcotest.test_case "scc deep path (no stack overflow)" `Quick test_scc_large_path_no_overflow;
    Alcotest.test_case "strong connectivity" `Quick test_is_strongly_connected;
    Alcotest.test_case "row normalization" `Quick test_chain_row_normalization;
    Alcotest.test_case "absorbing empty row" `Quick test_chain_absorbing_row;
    Alcotest.test_case "duplicate edges accumulate" `Quick test_chain_duplicate_edges_accumulate;
    Alcotest.test_case "cycle period" `Quick test_periodicity_of_cycle;
    Alcotest.test_case "self-loop aperiodicity" `Quick test_self_loop_breaks_period;
    Alcotest.test_case "two-state stationary" `Quick test_stationary_two_state;
    Alcotest.test_case "doubly stochastic uniform" `Quick test_stationary_doubly_stochastic_uniform;
    Alcotest.test_case "periodic chain converges" `Quick test_stationary_periodic_chain_converges;
    Alcotest.test_case "step preserves mass" `Quick test_step_preserves_mass;
    Alcotest.test_case "step_n" `Quick test_step_n;
    Alcotest.test_case "tv distance" `Quick test_tv_distance_vectors;
    Alcotest.test_case "hitting time two-state" `Quick test_hitting_time_two_state;
    Alcotest.test_case "hitting time path" `Quick test_hitting_time_path;
    Alcotest.test_case "sample_step distribution" `Quick test_sample_step_distribution;
    QCheck_alcotest.to_alcotest prop_stationary_is_fixed_point;
    QCheck_alcotest.to_alcotest prop_rows_are_stochastic;
  ]
