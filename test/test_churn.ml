(* Tests for churn experiments (section 6.5 of the paper). *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Churn = Sf_core.Churn
module Properties = Sf_core.Properties
module Flat = Sf_core.View.Flat

let config = Protocol.make_config ~view_size:12 ~lower_threshold:4

let make_system ?(seed = 55) ?(n = 120) ?(loss = 0.) () =
  let rng = Sf_prng.Rng.create (seed + 13) in
  let topology = Topology.regular rng ~n ~out_degree:4 in
  let r = Runner.create ~seed ~n ~loss_rate:loss ~config ~topology () in
  Runner.run_rounds r 100;
  r

let test_leave_decay_trace () =
  let r = make_system () in
  let victim, trace = Churn.leave_decay r ~rounds:200 () in
  Alcotest.(check bool) "victim removed" true (not (Runner.is_live r victim));
  Alcotest.(check int) "trace length" 201 (Array.length trace);
  Alcotest.(check bool) "had instances at departure" true (trace.(0) > 0);
  Alcotest.(check bool) "decays to nearly nothing" true
    (trace.(200) <= max 1 (trace.(0) / 10))

let test_leave_decay_respects_bound () =
  (* Lemma 6.10: the average survival fraction must lie below the analytic
     upper bound at (generous) checkpoints. *)
  let r = make_system ~n:200 () in
  let fractions = Churn.leave_decay_fractions r ~repetitions:20 ~rounds:150 in
  let params =
    Sf_analysis.Decay.make_params ~loss:0. ~delta:0.02 ~lower_threshold:4 ~view_size:12
  in
  let bound = Sf_analysis.Decay.survival_curve params ~rounds:150 in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "round %d: measured %.3f <= bound %.3f" i fractions.(i) bound.(i))
        true
        (fractions.(i) <= bound.(i) +. 0.05))
    [ 25; 50; 100; 150 ]

let test_join_integration () =
  let r = make_system () in
  let trace = Churn.join_integration r ~rounds:120 in
  Alcotest.(check int) "no instances at entry" 0 trace.Churn.instances.(0);
  Alcotest.(check int) "bootstrap outdegree = dL" 4 trace.Churn.out_degrees.(0);
  Alcotest.(check bool) "creates representation" true (trace.Churn.instances.(120) > 0);
  (* Outdegree stays legal throughout. *)
  Array.iter
    (fun d -> Alcotest.(check bool) "legal outdegree" true (d >= 0 && d <= 12 && d mod 2 = 0))
    trace.Churn.out_degrees

(* The churn worlds below are run over [worlds] fixed worlds, world [k]
   seeded [55 + k]: a churn outcome depends on the world, so each test
   asserts per world what holds on every world and counts the rest
   against a bound. *)
let worlds = 30

let count_worlds f = List.length (List.filter Fun.id (List.init worlds f))

(* Corollary 6.14: within the Lemma 6.13 window a joiner is expected to
   create at least (dL/s)^2 * Din instances.  The mean over the worlds
   must reach it, and most joiners must be held at all: 25 of the 30
   were when this test was written. *)
let test_join_integration_bound () =
  let params =
    Sf_analysis.Decay.make_params ~loss:0. ~delta:0.02 ~lower_threshold:4 ~view_size:12
  in
  let window = Sf_analysis.Decay.joiner_integration_rounds params in
  let instances = ref 0 and indegree = ref 0. in
  let held =
    count_worlds (fun k ->
        let r = make_system ~seed:(55 + k) ~n:200 () in
        indegree := !indegree +. Sf_stats.Summary.mean (Properties.indegree_summary r);
        let trace = Churn.join_integration r ~rounds:window in
        instances := !instances + trace.Churn.instances.(window);
        trace.Churn.instances.(window) >= 1)
  in
  let mean = float_of_int !instances /. float_of_int worlds in
  let predicted =
    Sf_analysis.Decay.joiner_integration_instances params
      ~expected_indegree:(!indegree /. float_of_int worlds)
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean instances %.2f after %d rounds >= %.2f" mean window predicted)
    true (mean >= predicted);
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d joiners held (>= 20)" held worlds)
    true (held >= 20)

(* The largest weak component of the membership graph among live nodes,
   ignoring entries that point at departed ids. *)
let live_giant r =
  let store = Runner.store r in
  let g = Sf_graph.Digraph.create () in
  Array.iter
    (fun u ->
      Sf_graph.Digraph.ensure_vertex g u;
      for slot = 0 to Flat.view_size store - 1 do
        let id = Flat.id_at store u slot in
        if Runner.is_live r id then Sf_graph.Digraph.add_edge g u id
      done)
    (Runner.live_ids r);
  List.fold_left
    (fun acc comp -> max acc (List.length comp))
    0
    (Sf_graph.Digraph.weakly_connected_components g)

(* Sustained churn replaces the entire population over the run.  S&F keeps
   the population healthy, but perfect weak connectivity cannot be promised:
   a node whose few neighbors all depart duplicates dead ids forever and
   isolates — exactly the severe-churn caveat of the paper's section 7
   ("if the churn is severe enough to partition the network ... no
   gossip-based protocol can be expected to work well").  The test checks
   the realistic property: in every world the population and its degrees
   stay healthy, and in most the giant component covers almost everyone
   (24 of the 30 worlds when this test was written). *)
let test_sustained_churn_keeps_system_healthy () =
  let covered =
    count_worlds (fun k ->
        let seed = 55 + k in
        let r = make_system ~seed ~n:150 ~loss:0.02 () in
        ignore (Churn.run_with_churn r ~rounds:80 ~joins:2 ~leaves:2);
        Alcotest.(check int)
          (Printf.sprintf "seed %d: population stable" seed)
          150 (Runner.live_count r);
        let outs = Properties.outdegree_summary r in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: healthy degrees" seed)
          true
          (Sf_stats.Summary.mean outs > 4.);
        live_giant r >= 140)
  in
  Alcotest.(check bool)
    (Printf.sprintf "giant component >= 140 of 150 in %d of %d worlds (>= 18)" covered
       worlds)
    true (covered >= 18)

(* The section 5 reconnection rule heals starvation: the same severe churn
   that isolates nodes (see above) leaves no isolated node behind in most
   worlds when recovery is on (28 of the 30 when this test was written),
   and leaves some worlds fully connected (11 of the 30). *)
let test_reconnection_heals_starvation () =
  let healed = ref 0 in
  let connected =
    count_worlds (fun k ->
        let r = make_system ~seed:(55 + k) ~n:150 ~loss:0.02 () in
        ignore (Churn.run_with_churn ~recover:true r ~rounds:80 ~joins:2 ~leaves:2);
        (* A few settle rounds: reconnected nodes re-announce themselves
           and transiently starved nodes are restocked by incoming
           messages. *)
        List.iter
          (fun node_id -> ignore (Runner.reconnect r ~node_id))
          (Runner.isolated_nodes r);
        Runner.run_rounds r 10;
        if Runner.isolated_nodes r = [] then incr healed;
        Properties.is_weakly_connected r)
  in
  Alcotest.(check bool)
    (Printf.sprintf "no isolated node in %d of %d worlds (>= 24)" !healed worlds)
    true (!healed >= 24);
  Alcotest.(check bool)
    (Printf.sprintf "connected after healing in %d of %d worlds (>= 5)" connected worlds)
    true (connected >= 5)

let test_reconnect_direct () =
  let r = make_system ~n:60 () in
  Runner.run_rounds r 20;
  let node = Runner.random_live_id r in
  (* Starve the node artificially: point its whole view at a dead id. *)
  let dead =
    match List.find_opt (( <> ) node) (Array.to_list (Runner.live_ids r)) with
    | Some id -> id
    | None -> Alcotest.fail "no victim candidate"
  in
  ignore (Runner.remove_node r dead);
  let store = Runner.store r in
  ignore (Flat.clear_row store node);
  Flat.set store node 0 ~id:dead ~serial:0 ~anchor:(-1) ~born:0;
  Flat.set store node 1 ~id:dead ~serial:1 ~anchor:(-1) ~born:0;
  Alcotest.(check bool) "starved" true (Runner.is_starved r node);
  (match Runner.reconnect r ~node_id:node with
  | Runner.Reconnected { donor; installed; probes } ->
    Alcotest.(check bool) "live donor" true (Runner.is_live r donor);
    Alcotest.(check bool) "entries installed" true (installed >= 2);
    Alcotest.(check bool) "probes counted" true (probes >= 1)
  | Runner.Exhausted _ -> Alcotest.fail "seen-cache should contain live ids");
  Alcotest.(check bool) "no longer starved" false (Runner.is_starved r node);
  Alcotest.(check bool) "even outdegree (Obs 5.1)" true
    (Flat.degree store node mod 2 = 0)

let test_reconnect_exhausted_when_everyone_dead () =
  let r = make_system ~n:60 () in
  Runner.run_rounds r 5;
  let keeper = Runner.random_live_id r in
  Array.iter
    (fun id -> if id <> keeper then ignore (Runner.remove_node r id))
    (Runner.live_ids r);
  (match Runner.reconnect r ~node_id:keeper with
  | Runner.Exhausted { probes } ->
    Alcotest.(check bool) "probed something" true (probes >= 1)
  | Runner.Reconnected _ -> Alcotest.fail "no live candidate exists")

let suite =
  [
    Alcotest.test_case "leave decay trace" `Quick test_leave_decay_trace;
    Alcotest.test_case "reconnection heals starvation" `Quick test_reconnection_heals_starvation;
    Alcotest.test_case "reconnect direct" `Quick test_reconnect_direct;
    Alcotest.test_case "reconnect exhausted" `Quick test_reconnect_exhausted_when_everyone_dead;
    Alcotest.test_case "Lemma 6.10 decay bound" `Quick test_leave_decay_respects_bound;
    Alcotest.test_case "join integration" `Quick test_join_integration;
    Alcotest.test_case "Cor 6.14 integration window" `Quick test_join_integration_bound;
    Alcotest.test_case "sustained churn" `Quick test_sustained_churn_keeps_system_healthy;
  ]
