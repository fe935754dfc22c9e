(* Tests for the system runner: sequential and timed execution, churn, the
   Lemma 6.2 sum-degree invariant, and the Lemma 6.6 rate balance. *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Digraph = Sf_graph.Digraph

let small_config = Protocol.make_config ~view_size:12 ~lower_threshold:4

let degrees r =
  Array.to_list
    (Sf_core.Properties.outdegree_samples (Sf_core.Runner.store r)
       ~live:(Sf_core.Runner.is_live r))

(* Node [u]'s view as a single view. *)
let view r u = Sf_core.View.copy_row (Runner.store r) u

let make_system ?(seed = 21) ?(n = 60) ?(loss = 0.) ?(config = small_config)
    ?(out_degree = 4) () =
  let rng = Sf_prng.Rng.create (seed + 1000) in
  let topology = Topology.regular rng ~n ~out_degree in
  Runner.create ~seed ~n ~loss_rate:loss ~config ~topology ()

let test_create_applies_topology () =
  let r = make_system () in
  Alcotest.(check int) "node count" 60 (Runner.live_count r);
  List.iter (Alcotest.(check int) "initial outdegree" 4) (degrees r);
  let g = Runner.membership_graph r in
  Alcotest.(check int) "edge count" (60 * 4) (Digraph.edge_count g);
  Alcotest.(check bool) "connected" true (Digraph.is_weakly_connected g)

let test_run_rounds_counts_actions () =
  let r = make_system () in
  Runner.run_rounds r 3;
  Alcotest.(check int) "3 rounds = 3n actions" (3 * 60) (Runner.action_count r)

let test_determinism () =
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
    List.iter
      (fun d ->
        Alcotest.(check bool) "even and bounded" true (d mod 2 = 0 && d >= 0 && d <= 12))
      (degrees r)
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
  Alcotest.(check bool) "node 7 was live" true (Runner.remove_node r 7);
  let received = ref 0 in
  Runner.set_audit r
    (Some
       (fun _ -> function
         | Runner.Action
             {
               outcome =
                 Runner.Audit_send { destination = 7; delivery = Accepted | Deleted; _ };
               _;
             } ->
           incr received
         | _ -> ()));
  Runner.run_rounds r 30;
  let c = Runner.world_counters r in
  Alcotest.(check bool) "sends reached the departed id" true (c.Runner.to_dead > 0);
  Alcotest.(check int) "the departed node received nothing" 0 !received;
  Alcotest.(check int) "sends = receipts + lost + to-dead" c.Runner.sends
    (c.Runner.receipts + c.Runner.messages_lost + c.Runner.to_dead)

let test_add_node () =
  let r = make_system () in
  Runner.run_rounds r 5;
  let id = Runner.add_node r in
  Alcotest.(check int) "fresh id" 60 id;
  Alcotest.(check int) "count up" 61 (Runner.live_count r);
  Alcotest.(check bool) "joiner found" true (Runner.is_live r id);
  Alcotest.(check int) "joiner outdegree" 4
    (Sf_core.View.Flat.degree (Runner.store r) id);
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
  if not (Runner.is_live r node_id) then fail "node not live";
  let node_view = view r node_id in
  let entries = Sf_core.View.entries node_view in
  let donor =
    match entries with e :: _ -> e.Sf_core.View.id | [] -> fail "empty view"
  in
  if not (Runner.is_live r donor) then fail "donor %d not live" donor;
  let cap = max 2 (Runner.config r).Protocol.lower_threshold in
  let copied =
    List.filter
      (fun id -> id <> node_id && Runner.is_live r id)
      (Sf_core.View.ids (view r donor))
    |> List.filteri (fun k _ -> k < cap - 1)
  in
  let expected = donor :: copied in
  let expected =
    if List.length expected land 1 = 1 then expected @ [ donor ] else expected
  in
  Alcotest.(check (list int)) (what ^ ": donor, then its live ids in slot order")
    expected
    (Sf_core.View.ids node_view);
  Alcotest.(check (list int)) (what ^ ": slots 0, 1, 2, ...")
    (List.init (List.length entries) Fun.id)
    (List.filter
       (fun k -> Sf_core.View.get node_view k <> None)
       (List.init (Sf_core.View.size node_view) Fun.id));
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
    if Runner.is_live r id then Sf_core.View.ids (view r id)
    else Alcotest.fail "repaired node not live"
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

(* A join after a retune starts at the retuned dL, not the base one: the
   solve lowers dL from 6 to 2, so the joiner installs max(2, 2) = 2
   entries where the base config would give 6 (the donor's id padding
   a thin donor's copy). *)
let test_join_after_retune () =
  let config = Protocol.make_config ~view_size:14 ~lower_threshold:6 in
  let resilience =
    Sf_resil.Policy.make ~recover:false ~estimator_window:100 ~cooldown:1
      ~solve:(fun ~loss:_ -> (2, 14))
      ()
  in
  let n = 100 in
  let topology = Topology.regular (Sf_prng.Rng.create 77) ~n ~out_degree:8 in
  let r = Runner.create ~resilience ~seed:7 ~n ~loss_rate:0.2 ~config ~topology () in
  Runner.run_rounds r 30;
  (match Runner.resilience_statistics r with
  | Some rs -> Alcotest.(check bool) "the controller retuned" true (rs.Runner.retunes >= 1)
  | None -> Alcotest.fail "resilience statistics missing");
  let live_dl = (Runner.config r).Protocol.lower_threshold in
  Alcotest.(check int) "the retune lowered dL" 2 live_dl;
  let joiner = Runner.add_node r in
  let donor = Sf_core.View.Flat.id_at (Runner.store r) joiner 0 in
  (* Enough that the copy, not the padding, fills the joiner's view. *)
  Alcotest.(check bool) "the donor holds enough live ids" true
    (List.length
       (List.filter
          (fun id -> id <> joiner && Runner.is_live r id)
          (Sf_core.View.ids (view r donor)))
    >= max 2 live_dl - 1);
  Alcotest.(check int) "the joiner starts at max(2, live dL)" (max 2 live_dl)
    (Sf_core.View.Flat.degree (Runner.store r) joiner)

let test_remove_node () =
  let r = make_system () in
  let victim = Runner.random_live_id r in
  Alcotest.(check bool) "victim was live" true (Runner.remove_node r victim);
  Alcotest.(check int) "count down" 59 (Runner.live_count r);
  Alcotest.(check bool) "double remove" false (Runner.remove_node r victim);
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
  let initiated = ref 0 in
  Runner.set_audit r
    (Some
       (fun _ -> function
         | Runner.Action { initiator; _ } when initiator = id -> incr initiated
         | _ -> ()));
  let before = Runner.action_count r in
  Runner.run_until r 30.;
  Alcotest.(check bool) "system kept running" true (Runner.action_count r > before);
  Alcotest.(check bool) "joiner still live" true (Runner.is_live r id);
  Alcotest.(check bool) "joiner initiated" true (!initiated > 0)

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
    (fun u ->
      mix u;
      let view = view r u in
      for slot = 0 to Sf_core.View.size view - 1 do
        match Sf_core.View.get view slot with
        | None -> mix (-1)
        | Some e ->
          mix e.Sf_core.View.id;
          mix e.Sf_core.View.serial;
          mix (Option.value ~default:(-1) e.Sf_core.View.anchor);
          mix e.Sf_core.View.born
      done)
    (Runner.live_ids r);
  !h

(* n = 300, loss 0.1, s = 10, dL = 4, one leave and one join (a 4-id
   bootstrap) every round.  The two-level solver asks for dL = 2 while
   the loss estimate is below 0.1 and dL = 4 above, so the controller
   retunes when the estimate settles below 0.1; sends duplicate and full
   views delete throughout.  World k is seeded 13 + k. *)
let known_world k =
  let solve ~loss = ((if loss < 0.1 then 2 else 4), 10) in
  let resilience =
    Sf_resil.Policy.make ~hysteresis:0.01 ~estimator_window:300 ~cooldown:3 ~solve ()
  in
  let config = Protocol.make_config ~view_size:10 ~lower_threshold:4 in
  let n = 300 in
  let topology = Topology.regular (Sf_prng.Rng.create (1300 + k)) ~n ~out_degree:6 in
  let r = Runner.create ~resilience ~seed:(13 + k) ~n ~loss_rate:0.1 ~config ~topology () in
  let churn = Sf_prng.Rng.create (31 + k) in
  for _ = 1 to 30 do
    Runner.run_rounds r 1;
    let live = Runner.live_ids r in
    ignore (Runner.remove_node r live.(Sf_prng.Rng.int churn (Array.length live)));
    ignore (Runner.add_node r)
  done;
  let retunes =
    match Runner.resilience_statistics r with
    | Some rs -> rs.Runner.retunes
    | None -> Alcotest.fail "resilience statistics missing"
  in
  (r, retunes)

(* Whether the estimate settles below 0.1 is a coin flip of the stream,
   so the retune count runs over 30 worlds (28 of them retune).  World 1
   is pinned: it retunes to dL = 2 in its second round, so the pin
   covers the retune and the 28 joins that install at the live dL. *)
let test_known_answer () =
  let worlds = 30 in
  let retuned =
    List.length (List.filter (fun k -> snd (known_world k) >= 1) (List.init worlds Fun.id))
  in
  Alcotest.(check bool)
    (Printf.sprintf "the controller retuned in %d of %d worlds (>= 20)" retuned worlds)
    true (retuned >= 20);
  let r, retunes = known_world 1 in
  let c = Runner.world_counters r in
  Alcotest.(check bool) "the pinned world retuned" true (retunes >= 1);
  Alcotest.(check bool) "a send duplicated" true (c.Runner.duplications >= 1);
  Alcotest.(check bool) "a receive deleted" true (c.Runner.deletions >= 1);
  Alcotest.(check (list int)) "world counters"
    [ 9000; 6668; 2332; 68; 2045; 38; 227; 1; 4264 ]
    [ c.Runner.actions; c.Runner.self_loops; c.Runner.sends;
      c.Runner.duplications; c.Runner.receipts; c.Runner.deletions;
      c.Runner.messages_lost; retunes; Runner.minted_serials r ];
  Alcotest.(check int) "live views hash" 2267065860114149185 (views_hash r)

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
    [ 2327; 1612; 715; 136; 600; 21; 82; 8; 1331 ]
    [ c.Runner.actions; c.Runner.self_loops; c.Runner.sends;
      c.Runner.duplications; c.Runner.receipts; c.Runner.deletions;
      c.Runner.messages_lost; to_dead; Runner.minted_serials r ];
  Alcotest.(check int) "live views hash" (-2271879406523235670) (views_hash r)

(* A join past the last row doubles the store: n = 4 and 20 joins grow it
   to 8, 16 and 32 rows.  Every earlier row survives each growth bit for
   bit, the new rows are empty, and the grown world passes the full
   structural scan. *)
let test_store_growth () =
  let r = make_system ~n:4 ~out_degree:2 ~loss:0.1 () in
  let growths = ref 0 in
  for _ = 1 to 20 do
    Runner.run_rounds r 3;
    let before = Runner.store r in
    let rows = Sf_core.View.Flat.node_count before in
    let copies = List.init rows (fun u -> Sf_core.View.copy_row before u) in
    let id = Runner.add_node r in
    let after = Runner.store r in
    if Sf_core.View.Flat.node_count after <> rows then begin
      incr growths;
      Alcotest.(check int) "doubled" (2 * rows) (Sf_core.View.Flat.node_count after);
      List.iteri
        (fun u copy ->
          Alcotest.(check bool)
            (Printf.sprintf "row %d bit-identical" u)
            true
            (Sf_core.View.Flat.equal copy (Sf_core.View.copy_row after u)))
        copies;
      for u = id + 1 to (2 * rows) - 1 do
        Alcotest.(check int) (Printf.sprintf "row %d empty" u) 0
          (Sf_core.View.Flat.degree after u)
      done;
      Alcotest.(check (list string)) "scan clean after growth" []
        (List.map
           (fun v -> v.Sf_check.Invariant.invariant)
           (Sf_check.Invariant.scan r))
    end
  done;
  Alcotest.(check int) "grew 4 -> 8 -> 16 -> 32" 3 !growths;
  Alcotest.(check int) "all live" 24 (Runner.live_count r)

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
    Alcotest.test_case "a join after a retune runs the live dL" `Quick
      test_join_after_retune;
    Alcotest.test_case "a join past the last row grows the store" `Quick
      test_store_growth;
  ]
