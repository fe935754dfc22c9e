(* Tests for the system runner: sequential and timed execution, churn, the
   Lemma 6.2 sum-degree invariant, and the Lemma 6.6 rate balance. *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Digraph = Sf_graph.Digraph

let small_config = Protocol.make_config ~view_size:12 ~lower_threshold:4

let make_system ?(seed = 21) ?(n = 60) ?(loss = 0.) ?(config = small_config)
    ?(out_degree = 4) () =
  let rng = Sf_prng.Rng.create (seed + 1000) in
  let topology = Topology.regular rng ~n ~out_degree in
  Runner.create ~seed ~n ~loss_rate:loss ~config ~topology ()

let test_create_applies_topology () =
  let r = make_system () in
  Alcotest.(check int) "node count" 60 (Runner.live_count r);
  Array.iter
    (fun node -> Alcotest.(check int) "initial outdegree" 4 (Protocol.degree node))
    (Runner.live_nodes r);
  let g = Runner.membership_graph r in
  Alcotest.(check int) "edge count" (60 * 4) (Digraph.edge_count g);
  Alcotest.(check bool) "connected" true (Digraph.is_weakly_connected g)

let test_run_rounds_counts_actions () =
  let r = make_system () in
  Runner.run_rounds r 3;
  Alcotest.(check int) "3 rounds = 3n actions" (3 * 60) (Runner.action_count r)

let test_determinism () =
  let degrees r =
    Array.to_list (Array.map Protocol.degree (Runner.live_nodes r))
  in
  let a = make_system ~seed:5 () in
  let b = make_system ~seed:5 () in
  Runner.run_rounds a 20;
  Runner.run_rounds b 20;
  Alcotest.(check (list int)) "identical evolutions" (degrees a) (degrees b);
  Alcotest.(check bool) "graphs identical" true
    (Digraph.equal (Runner.membership_graph a) (Runner.membership_graph b))

(* Lemma 6.2: with no loss, dL = 0, and ds(u) <= s initially, the sum degree
   of every node is invariant. *)
let test_sum_degree_invariant_lemma_6_2 () =
  let config = Protocol.make_config ~view_size:12 ~lower_threshold:0 in
  (* regular topology with out_degree 4: ds(u) = 4 + 2*4 = 12 = s. *)
  let r = make_system ~config ~out_degree:4 ~loss:0. () in
  let sum_degrees r =
    let g = Runner.membership_graph r in
    List.sort compare
      (List.map (fun u -> (u, Digraph.sum_degree g u)) (Digraph.vertices g))
  in
  let before = sum_degrees r in
  List.iter
    (fun (_, ds) -> Alcotest.(check int) "initial ds = 12" 12 ds)
    before;
  Runner.run_rounds r 50;
  Alcotest.(check bool) "sum degrees invariant over 50 rounds" true
    (before = sum_degrees r);
  let counters = Runner.world_counters r in
  Alcotest.(check int) "no duplications" 0 counters.Runner.duplications;
  Alcotest.(check int) "no deletions" 0 counters.Runner.deletions

(* Observation 5.1 at system level: every outdegree even and within [0, s]
   at all times, with and without loss. *)
let test_observation_5_1_under_loss () =
  let r = make_system ~loss:0.2 () in
  for _ = 1 to 40 do
    Runner.run_rounds r 1;
    Array.iter
      (fun node ->
        let d = Protocol.degree node in
        Alcotest.(check bool) "even and bounded" true (d mod 2 = 0 && d >= 0 && d <= 12))
      (Runner.live_nodes r)
  done

(* Lemma 6.6: in the steady state, duplication rate = loss + deletion rate
   (per send). *)
let test_lemma_6_6_rate_balance () =
  let r = make_system ~n:300 ~loss:0.05 () in
  Runner.run_rounds r 200;
  let base = Runner.world_counters r in
  Runner.run_rounds r 400;
  let rates = Runner.rates_since r base in
  let lhs = rates.Runner.duplication in
  let rhs = rates.Runner.loss +. rates.Runner.deletion in
  Alcotest.(check bool)
    (Printf.sprintf "dup %.4f vs loss+del %.4f" lhs rhs)
    true
    (Float.abs (lhs -. rhs) < 0.01)

let test_counters_consistency () =
  let r = make_system ~loss:0.1 () in
  Runner.run_rounds r 30;
  let c = Runner.world_counters r in
  Alcotest.(check int) "actions = self loops + sends" c.Runner.actions
    (c.Runner.self_loops + c.Runner.sends);
  Alcotest.(check int) "no departures, nothing to-dead" 0 c.Runner.to_dead;
  Alcotest.(check int) "receipts = sends - lost" c.Runner.receipts
    (c.Runner.sends - c.Runner.messages_lost);
  Alcotest.(check bool) "duplications <= sends" true (c.Runner.duplications <= c.Runner.sends)

let test_rejects_bad_loss () =
  List.iter
    (fun loss ->
      Alcotest.check_raises (Printf.sprintf "loss %g" loss)
        (Invalid_argument "Runner.create: loss_rate must lie in [0,1]") (fun () ->
          ignore (make_system ~loss ())))
    [ -0.1; 1.5 ]

(* Sends to a departed node survive loss but reach nobody: they are
   counted to-dead, the departed node receives nothing, and in sequential
   mode every send is received, lost or to-dead. *)
let test_sends_to_departed () =
  let r = make_system ~loss:0.1 () in
  let victim =
    match Runner.remove_node r 7 with
    | Some node -> node
    | None -> Alcotest.fail "node 7 was live"
  in
  let received = victim.Protocol.messages_received in
  Runner.run_rounds r 30;
  let c = Runner.world_counters r in
  Alcotest.(check bool) "sends reached the departed id" true (c.Runner.to_dead > 0);
  Alcotest.(check int) "the departed node received nothing" received
    victim.Protocol.messages_received;
  Alcotest.(check int) "sends = receipts + lost + to-dead" c.Runner.sends
    (c.Runner.receipts + c.Runner.messages_lost + c.Runner.to_dead)

let test_add_node () =
  let r = make_system () in
  Runner.run_rounds r 5;
  let id = Runner.add_node r in
  Alcotest.(check int) "fresh id" 60 id;
  Alcotest.(check int) "count up" 61 (Runner.live_count r);
  (match Runner.find_node r id with
  | Some node -> Alcotest.(check int) "joiner outdegree" 4 (Protocol.degree node)
  | None -> Alcotest.fail "joiner not found");
  (* The joiner participates; with outdegree 4 of 12 slots its send rate is
     d(d-1)/(s(s-1)) ~ 0.09 per round, so 80 rounds make a missing
     reinforcement astronomically unlikely. *)
  Runner.run_rounds r 80;
  Alcotest.(check bool) "joiner gains indegree eventually" true
    (Runner.count_id_instances r id > 0)

(* Every view the runner fills from a donor follows the one install rule
   ({!Protocol.install_copy}): the live donor in slot 0, then the donor's
   live ids other than the node's own in slot order, up to max(2, dL)
   entries, padded with the donor's id to an even count, every entry
   anchored at the donor.  [node_id]'s view is checked against its donor's
   view, which the install only reads. *)
let check_install_rule r ~what node_id =
  let fail fmt = Printf.ksprintf (fun m -> Alcotest.fail (what ^ ": " ^ m)) fmt in
  let node =
    match Runner.find_node r node_id with Some n -> n | None -> fail "node not live"
  in
  let entries = Sf_core.View.entries node.Protocol.view in
  let donor =
    match entries with e :: _ -> e.Sf_core.View.id | [] -> fail "empty view"
  in
  let donor_view =
    match Runner.find_node r donor with
    | Some d -> d.Protocol.view
    | None -> fail "donor %d not live" donor
  in
  let cap = max 2 (Runner.node_config r node_id).Protocol.lower_threshold in
  let copied =
    List.filter
      (fun id -> id <> node_id && Runner.find_node r id <> None)
      (Sf_core.View.ids donor_view)
    |> List.filteri (fun k _ -> k < cap - 1)
  in
  let expected = donor :: copied in
  let expected =
    if List.length expected land 1 = 1 then expected @ [ donor ] else expected
  in
  Alcotest.(check (list int)) (what ^ ": donor, then its live ids in slot order")
    expected
    (Sf_core.View.ids node.Protocol.view);
  Alcotest.(check (list int)) (what ^ ": slots 0, 1, 2, ...")
    (List.init (List.length entries) Fun.id)
    (List.filter
       (fun k -> Sf_core.View.get node.Protocol.view k <> None)
       (List.init (Sf_core.View.size node.Protocol.view) Fun.id));
  Alcotest.(check bool) (what ^ ": every entry anchored at the donor") true
    (List.for_all (fun e -> e.Sf_core.View.anchor = Some donor) entries);
  let count = List.length entries in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d entries, even and at most %d" what count cap)
    true
    (count land 1 = 0 && count <= cap)

(* A join, a reconnection and a rebootstrap, in a world whose views still
   hold departed ids. *)
let test_installs_by_rule () =
  let r = make_system () in
  Runner.run_rounds r 20;
  for id = 0 to 9 do
    ignore (Runner.remove_node r id)
  done;
  let joiner = Runner.add_node r in
  check_install_rule r ~what:"join" joiner;
  let view id =
    match Runner.find_node r id with
    | Some node -> Sf_core.View.ids node.Protocol.view
    | None -> Alcotest.fail "repaired node not live"
  in
  (match Runner.reconnect r ~node_id:20 with
  | Runner.Reconnected { donor; installed; _ } ->
    check_install_rule r ~what:"reconnect" 20;
    Alcotest.(check bool) "reconnect: the donor comes first" true
      (List.nth_opt (view 20) 0 = Some donor);
    Alcotest.(check int) "reconnect: installed count" installed
      (List.length (view 20))
  | Runner.Exhausted _ -> Alcotest.fail "reconnect: no loss, live candidates");
  let installed = Runner.rebootstrap r ~node_id:30 in
  check_install_rule r ~what:"rebootstrap" 30;
  Alcotest.(check int) "rebootstrap: installed count" installed
    (List.length (view 30))

let test_remove_node () =
  let r = make_system () in
  let victim = (Runner.random_live_node r).Protocol.node_id in
  (match Runner.remove_node r victim with
  | Some _ -> ()
  | None -> Alcotest.fail "victim was live");
  Alcotest.(check int) "count down" 59 (Runner.live_count r);
  Alcotest.(check bool) "double remove" true (Runner.remove_node r victim = None);
  (* Instances of the departed id decay to zero (erosion, section 6.5.2):
     with no loss and a positive dL this takes a bounded number of rounds. *)
  Runner.run_rounds r 2000;
  Alcotest.(check int) "departed id eroded" 0 (Runner.count_id_instances r victim)

let test_timed_mode_progress () =
  let r = make_system ~n:40 () in
  Runner.start_timed r (Runner.Poisson 1.0);
  Runner.run_until r 50.;
  (* In 50 time units at rate 1, about 2000 actions should have happened. *)
  let actions = Runner.action_count r in
  Alcotest.(check bool)
    (Printf.sprintf "%d actions in 50 units" actions)
    true
    (actions > 1000 && actions < 3000);
  let c = Runner.world_counters r in
  Alcotest.(check bool) "messages flowed" true (c.Runner.receipts > 0)

let test_timed_mode_periodic () =
  let r = make_system ~n:20 () in
  Runner.start_timed r (Runner.Periodic 1.0);
  Runner.run_until r 10.5;
  (* Each node fires about 10 times. *)
  let actions = Runner.action_count r in
  Alcotest.(check bool)
    (Printf.sprintf "%d actions" actions)
    true
    (actions >= 20 * 9 && actions <= 20 * 12)

let test_timed_join_participates () =
  let r = make_system ~n:20 () in
  Runner.start_timed r (Runner.Periodic 1.0);
  Runner.run_until r 5.;
  let id = Runner.add_node r in
  let before = Runner.action_count r in
  Runner.run_until r 30.;
  Alcotest.(check bool) "system kept running" true (Runner.action_count r > before);
  (match Runner.find_node r id with
  | Some node ->
    Alcotest.(check bool) "joiner initiated" true (node.Protocol.initiated_actions > 0)
  | None -> Alcotest.fail "joiner vanished")

let test_no_loss_conserves_edges () =
  (* With loss = 0 and sequential actions, every send is delivered, so the
     total number of entries changes only through duplication/deletion. *)
  let config = Protocol.make_config ~view_size:12 ~lower_threshold:0 in
  let r = make_system ~config ~loss:0. () in
  let edges r = Digraph.edge_count (Runner.membership_graph r) in
  let before = edges r in
  Runner.run_rounds r 50;
  Alcotest.(check int) "edges conserved" before (edges r)

(* Exact edge ledger: every duplication creates 2 entries, every loss and
   every deletion destroys 2, and ordinary transformations conserve — so at
   any instant (sequential mode, no churn)

     edges = initial + 2 (duplications - deletions - losses).

   This accounts for every entry in the system exactly, across any loss
   rate and any schedule. *)
let prop_edge_ledger =
  QCheck.Test.make ~name:"exact edge ledger" ~count:25
    QCheck.(pair small_int (int_range 0 30))
    (fun (seed, loss_percent) ->
      let loss = float_of_int loss_percent /. 100. in
      let r = make_system ~seed:(seed + 1) ~n:80 ~loss () in
      let initial = Digraph.edge_count (Runner.membership_graph r) in
      Runner.run_rounds r 40;
      let c = Runner.world_counters r in
      let expected =
        initial + (2 * (c.Runner.duplications - c.Runner.deletions - c.Runner.messages_lost))
      in
      Digraph.edge_count (Runner.membership_graph r) = expected)

(* --- Known answer: a lossy, churning, self-tuning sequential world,
   pinned so a refactor of the step rule cannot move it --- *)

(* A wrapping polynomial hash of every live view, in node-id order: each
   slot's id, serial, anchor (-1 for none) and born stamp, -1 for an
   empty slot. *)
let views_hash r =
  let h = ref 0 in
  let mix v = h := (!h * 1_000_003) + v in
  Array.iter
    (fun node ->
      mix node.Protocol.node_id;
      let view = node.Protocol.view in
      for slot = 0 to Sf_core.View.size view - 1 do
        match Sf_core.View.get view slot with
        | None -> mix (-1)
        | Some e ->
          mix e.Sf_core.View.id;
          mix e.Sf_core.View.serial;
          mix (Option.value ~default:(-1) e.Sf_core.View.anchor);
          mix e.Sf_core.View.born
      done)
    (Runner.live_nodes r);
  !h

(* n = 300, loss 0.1, s = 10, dL = 4, one leave and one join (a 4-id
   bootstrap) every round.  The two-level solver asks for dL = 2 while
   the loss estimate is below 0.1 and dL = 4 above, so the controller
   retunes as the estimate settles; sends duplicate and full views
   delete throughout. *)
let test_known_answer () =
  let solve ~loss = ((if loss < 0.1 then 2 else 4), 10) in
  let resilience =
    Sf_resil.Policy.make ~hysteresis:0.01 ~estimator_window:300 ~cooldown:3 ~solve ()
  in
  let config = Protocol.make_config ~view_size:10 ~lower_threshold:4 in
  let n = 300 in
  let topology = Topology.regular (Sf_prng.Rng.create 1300) ~n ~out_degree:6 in
  let r = Runner.create ~resilience ~seed:13 ~n ~loss_rate:0.1 ~config ~topology () in
  let churn = Sf_prng.Rng.create 31 in
  for _ = 1 to 30 do
    Runner.run_rounds r 1;
    let live = Runner.live_nodes r in
    let leaver = live.(Sf_prng.Rng.int churn (Array.length live)) in
    ignore (Runner.remove_node r leaver.Protocol.node_id);
    ignore (Runner.add_node r)
  done;
  let c = Runner.world_counters r in
  let retunes =
    match Runner.resilience_statistics r with
    | Some rs -> rs.Runner.retunes
    | None -> Alcotest.fail "resilience statistics missing"
  in
  Alcotest.(check bool) "the controller retuned" true (retunes >= 1);
  Alcotest.(check bool) "a send duplicated" true (c.Runner.duplications >= 1);
  Alcotest.(check bool) "a receive deleted" true (c.Runner.deletions >= 1);
  Alcotest.(check (list int)) "world counters"
    [ 9000; 6625; 2375; 97; 2105; 47; 218; 1; 4392 ]
    [ c.Runner.actions; c.Runner.self_loops; c.Runner.sends;
      c.Runner.duplications; c.Runner.receipts; c.Runner.deletions;
      c.Runner.messages_lost; retunes; Runner.minted_serials r ];
  Alcotest.(check int) "live views hash" 542151260500230763 (views_hash r)

(* Timed mode, pinned the same way: Poisson clocks, latency draws, a
   crash window (arrival-time drops), a partition, a delay window
   (scaled latency) and one leave mid-run (arrivals at a dead node).  The
   to-dead count is read from the trace's rejected deliveries. *)
let test_timed_known_answer () =
  let config = Protocol.make_config ~view_size:10 ~lower_threshold:4 in
  let n = 80 in
  let topology = Topology.regular (Sf_prng.Rng.create 1700) ~n ~out_degree:6 in
  let scenario =
    Sf_faults.Scenario.make
      ~windows:
        Sf_faults.Scenario.
          [
            { start = 4.; stop = 9.; fault = Crash { first = 0; last = 9 } };
            { start = 12.; stop = 16.; fault = Partition { parts = 2 } };
            { start = 18.; stop = 24.; fault = Delay { factor = 3. } };
          ]
      ()
  in
  let tracer = Sf_obs.Trace.create ~capacity:(1 lsl 16) in
  let obs = Sf_obs.Obs.create ~tracer () in
  let r =
    Runner.create ~scenario ~obs ~seed:17 ~n ~loss_rate:0.05 ~config ~topology ()
  in
  Runner.start_timed r (Runner.Poisson 1.0);
  Runner.run_until r 10.;
  ignore (Runner.remove_node r 40);
  Runner.run_until r 30.;
  Alcotest.(check int) "whole trace kept" 0 (Sf_obs.Trace.dropped tracer);
  let to_dead =
    List.length
      (List.filter
         (fun record ->
           match record.Sf_obs.Trace.event with
           | Sf_obs.Trace.Deliver { accepted; _ } -> not accepted
           | _ -> false)
         (Sf_obs.Trace.records tracer))
  in
  let c = Runner.world_counters r in
  Alcotest.(check (list int)) "world counters"
    [ 2327; 1605; 722; 132; 599; 15; 90; 3; 1334 ]
    [ c.Runner.actions; c.Runner.self_loops; c.Runner.sends;
      c.Runner.duplications; c.Runner.receipts; c.Runner.deletions;
      c.Runner.messages_lost; to_dead; Runner.minted_serials r ];
  Alcotest.(check int) "live views hash" 3720198667904072927 (views_hash r)

let suite =
  [
    Alcotest.test_case "topology applied" `Quick test_create_applies_topology;
    QCheck_alcotest.to_alcotest prop_edge_ledger;
    Alcotest.test_case "round accounting" `Quick test_run_rounds_counts_actions;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "Lemma 6.2 sum-degree invariant" `Quick test_sum_degree_invariant_lemma_6_2;
    Alcotest.test_case "Observation 5.1 under loss" `Quick test_observation_5_1_under_loss;
    Alcotest.test_case "Lemma 6.6 rate balance" `Quick test_lemma_6_6_rate_balance;
    Alcotest.test_case "counter consistency" `Quick test_counters_consistency;
    Alcotest.test_case "loss validation" `Quick test_rejects_bad_loss;
    Alcotest.test_case "sends to a departed node" `Quick test_sends_to_departed;
    Alcotest.test_case "join" `Quick test_add_node;
    Alcotest.test_case "leave and erosion" `Quick test_remove_node;
    Alcotest.test_case "timed mode (Poisson)" `Quick test_timed_mode_progress;
    Alcotest.test_case "timed mode (periodic)" `Quick test_timed_mode_periodic;
    Alcotest.test_case "timed join" `Quick test_timed_join_participates;
    Alcotest.test_case "no-loss edge conservation" `Quick test_no_loss_conserves_edges;
    Alcotest.test_case "known answer" `Quick test_known_answer;
    Alcotest.test_case "timed known answer" `Quick test_timed_known_answer;
    Alcotest.test_case "joins and repairs install by the rule" `Quick
      test_installs_by_rule;
  ]
