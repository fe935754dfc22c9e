(* Tests for the exact global Markov chain (section 7.1) on tiny systems. *)

module Global_mc = Sf_analysis.Global_mc

let no_loss_params =
  { Global_mc.n = 3; view_size = 6; lower_threshold = 0; loss = 0. }

let triangle = [ [ 1; 2 ]; [ 0; 2 ]; [ 0; 1 ] ]

let test_transitions_are_stochastic () =
  let total =
    List.fold_left (fun acc (_, p) -> acc +. p) 0.
      (Global_mc.transitions no_loss_params triangle)
  in
  Alcotest.(check bool) "sum to 1" true (Float.abs (total -. 1.) < 1e-12)

(* [transitions] lists each successor once: a partitioned successor's
   mass is folded into the state's one self-loop entry, not listed as a
   second one.  Checked over every reachable state (a breadth-first walk
   of [transitions] itself, which reaches what [explore] reaches), without
   and with loss and duplication. *)
let test_transitions_list_each_successor_once () =
  List.iter
    (fun p ->
      let seen = Hashtbl.create 4096 and queue = Queue.create () in
      let visit st =
        if not (Hashtbl.mem seen st) then begin
          Hashtbl.replace seen st ();
          Queue.push st queue
        end
      in
      visit triangle;
      let rec walk () =
        match Queue.take_opt queue with
        | None -> ()
        | Some st ->
          let moves = Global_mc.transitions p st in
          let successors = List.map fst moves in
          Alcotest.(check int) "no successor listed twice"
            (List.length successors)
            (List.length (List.sort_uniq compare successors));
          let total = List.fold_left (fun acc (_, q) -> acc +. q) 0. moves in
          Alcotest.(check bool)
            (Printf.sprintf "masses sum to 1 (%.17g)" total)
            true
            (Float.abs (total -. 1.) <= 1e-12);
          List.iter visit successors;
          walk ()
      in
      walk ();
      Alcotest.(check bool) "walked past the initial state" true (Hashtbl.length seen > 1))
    [ no_loss_params; { Global_mc.n = 3; view_size = 4; lower_threshold = 2; loss = 0.1 } ]

let test_connectivity_predicate () =
  Alcotest.(check bool) "triangle connected" true
    (Global_mc.is_weakly_connected_state ~n:3 triangle);
  Alcotest.(check bool) "isolated node" false
    (Global_mc.is_weakly_connected_state ~n:3 [ [ 1 ]; [ 0 ]; [] ]);
  (* Self-edges only do not connect a node to the rest. *)
  Alcotest.(check bool) "self-edges only" false
    (Global_mc.is_weakly_connected_state ~n:3 [ [ 1 ]; [ 0 ]; [ 2; 2 ] ])

let test_no_loss_chain_lemma_7_5 () =
  (* Lemma 7.5 (exact form): the stationary distribution is uniform over
     instance-labeled membership graphs of the sum-degree class. *)
  let r = Global_mc.explore no_loss_params ~initial:triangle in
  Alcotest.(check bool) "ergodic (Lemma A.2)" true r.Global_mc.is_ergodic;
  let ratio = Global_mc.labeled_uniformity_ratio r in
  Alcotest.(check bool) (Printf.sprintf "labeled uniformity ratio %.6f" ratio) true
    (Float.abs (ratio -. 1.) < 1e-6);
  (* Lemma 7.6: every id equally likely in every other view. *)
  let spread = Global_mc.edge_probability_spread r in
  Alcotest.(check bool) (Printf.sprintf "edge spread %.6f" spread) true
    (Float.abs (spread -. 1.) < 1e-6)

let test_no_loss_chain_preserves_sum_degrees () =
  let r = Global_mc.explore no_loss_params ~initial:triangle in
  (* Every reachable state keeps ds(u) = d(u) + 2 din(u) = 6 (Lemma 6.2),
     where din(u) counts u's occurrences across all views. *)
  Array.iter
    (fun st ->
      List.iteri
        (fun u view ->
          let d = List.length view in
          let din =
            List.fold_left
              (fun acc view' -> acc + List.length (List.filter (( = ) u) view'))
              0 st
          in
          Alcotest.(check int) "ds = 6" 6 (d + (2 * din)))
        st)
    r.Global_mc.states

let test_lossy_chain_lemma_7_6 () =
  (* With loss and duplication the stationary distribution is no longer
     uniform, but uniformity of edge probabilities (Lemma 7.6) survives by
     symmetry. Small s keeps the state space tractable. *)
  let p = { Global_mc.n = 3; view_size = 4; lower_threshold = 2; loss = 0.1 } in
  let r = Global_mc.explore p ~initial:triangle in
  Alcotest.(check bool) "ergodic under loss (Lemma 7.1)" true r.Global_mc.is_ergodic;
  let spread = Global_mc.edge_probability_spread r in
  Alcotest.(check bool) (Printf.sprintf "edge spread %.6f" spread) true
    (Float.abs (spread -. 1.) < 1e-5);
  Alcotest.(check bool) "views not empty on average" true (r.Global_mc.mean_entries > 1.)

let test_explore_rejects_bad_initial () =
  Alcotest.(check bool) "disconnected initial rejected" true
    (match Global_mc.explore no_loss_params ~initial:[ [ 1 ]; [ 0 ]; [] ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_max_states_guard () =
  let p = { Global_mc.n = 3; view_size = 4; lower_threshold = 2; loss = 0.1 } in
  Alcotest.(check bool) "guard trips" true
    (match Global_mc.explore ~max_states:10 p ~initial:triangle with
    | exception Global_mc.Too_many_states _ -> true
    | _ -> false)

let test_multiplicity_correction () =
  Alcotest.(check bool) "all distinct" true
    (Global_mc.multiplicity_correction triangle = 1.);
  Alcotest.(check bool) "triple + pair" true
    (Global_mc.multiplicity_correction [ [ 1; 1; 1 ]; [ 2; 2 ]; [] ] = 12.)

let suite =
  [
    Alcotest.test_case "transitions stochastic" `Quick test_transitions_are_stochastic;
    Alcotest.test_case "transitions list each successor once" `Quick
      test_transitions_list_each_successor_once;
    Alcotest.test_case "connectivity predicate" `Quick test_connectivity_predicate;
    Alcotest.test_case "Lemmas 7.5/7.6 (no loss, exact)" `Quick test_no_loss_chain_lemma_7_5;
    Alcotest.test_case "Lemma 6.2 on reachable states" `Quick test_no_loss_chain_preserves_sum_degrees;
    Alcotest.test_case "Lemmas 7.1/7.6 under loss (exact)" `Slow test_lossy_chain_lemma_7_6;
    Alcotest.test_case "bad initial state" `Quick test_explore_rejects_bad_initial;
    Alcotest.test_case "state-count guard" `Quick test_max_states_guard;
    Alcotest.test_case "multiplicity correction" `Quick test_multiplicity_correction;
  ]
