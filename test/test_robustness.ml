(* Tests for the robustness extensions: non-uniform loss, session churn,
   and rumor dissemination. *)

module Runner = Sf_core.Runner
module Sharded = Sf_core.Runner.Sharded
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Sessions = Sf_core.Sessions
module Report = Sf_spread.Report
module Summary = Sf_stats.Summary

let config = Protocol.make_config ~view_size:12 ~lower_threshold:4

(* [drop_to dst] is the drop probability of every message to [dst]: a
   per-link scenario that ignores the source. *)
let make_system ?(seed = 60) ?(n = 120) ?(loss = 0.) ?drop_to () =
  let rng = Sf_prng.Rng.create (seed + 21) in
  let topology = Topology.regular rng ~n ~out_degree:4 in
  let scenario =
    Option.map
      (fun f ->
        Sf_faults.Scenario.make ~loss:(Sf_faults.Loss.Per_link (fun _ dst -> f dst)) ())
      drop_to
  in
  Runner.create ?scenario ~seed ~n ~loss_rate:loss ~config ~topology ()

(* --- Non-uniform loss --- *)

let test_drop_to_extremes () =
  (* Messages to even nodes always dropped, to odd nodes never. *)
  let r =
    make_system ~loss:0.5
      ~drop_to:(fun dst -> if dst mod 2 = 0 then 1. else 0.)
      ()
  in
  (* Receipts per node, from the audit's delivery outcomes. *)
  let received = Array.make 120 0 in
  Runner.set_audit r
    (Some
       (fun _ -> function
         | Runner.Action
             {
               outcome =
                 Runner.Audit_send { destination; delivery = Accepted | Deleted; _ };
               _;
             } ->
           received.(destination) <- received.(destination) + 1
         | _ -> ()));
  Runner.run_rounds r 50;
  let counters = Runner.world_counters r in
  Alcotest.(check bool) "some messages lost" true (counters.Runner.messages_lost > 0);
  Alcotest.(check bool) "some messages delivered" true (counters.Runner.receipts > 0);
  (* Nodes whose inbound drops entirely never receive. *)
  Array.iter
    (fun u ->
      if u mod 2 = 0 then
        Alcotest.(check int) (Printf.sprintf "node %d received nothing" u) 0 received.(u))
    (Runner.live_ids r)

let test_drop_to_statistics () =
  let r =
    make_system ~n:200 ~loss:0.05
      ~drop_to:(fun dst -> if dst < 100 then 0.1 else 0.)
      ()
  in
  Runner.run_rounds r 300;
  let counters = Runner.world_counters r in
  let observed =
    float_of_int counters.Runner.messages_lost /. float_of_int counters.Runner.sends
  in
  (* Mean loss ~ 0.05 since half the destinations drop at 0.1 (weighted by
     how often each half is targeted, which stays near balanced). *)
  Alcotest.(check bool)
    (Printf.sprintf "observed loss %.3f near 0.05" observed)
    true
    (Float.abs (observed -. 0.05) < 0.02)

(* --- Sessions --- *)

let test_lifetime_sampling () =
  let rng = Sf_prng.Rng.create 1 in
  let mean_of lifetime =
    let s = Summary.create () in
    for _ = 1 to 40_000 do
      Summary.add s (Sessions.sample_lifetime rng lifetime)
    done;
    Summary.mean s
  in
  let exp_mean = mean_of (Sessions.Exponential 50.) in
  Alcotest.(check bool)
    (Printf.sprintf "exponential mean %.1f near 50" exp_mean)
    true
    (Float.abs (exp_mean -. 50.) < 2.);
  (* Pareto shape 2.5, minimum 30: mean = 2.5*30/1.5 = 50. *)
  let par = Sessions.Pareto { shape = 2.5; minimum = 30. } in
  Alcotest.(check bool) "analytic mean" true
    (Float.abs (Sessions.mean_lifetime par -. 50.) < 1e-9);
  let par_mean = mean_of par in
  Alcotest.(check bool)
    (Printf.sprintf "pareto mean %.1f near 50" par_mean)
    true
    (Float.abs (par_mean -. 50.) < 4.);
  (* Pareto samples never fall below the minimum. *)
  for _ = 1 to 1000 do
    Alcotest.(check bool) "above minimum" true (Sessions.sample_lifetime rng par >= 30.)
  done

(* Session churn over 30 fixed worlds (world k seeded 60 + k, its
   sessions 7 + k).  Every world holds its population near equilibrium
   with legal degrees.  The repair pass runs before each round, so a
   node a join or a leave isolates in the last round is still alone at
   the end: 27 of the 30 worlds end with none. *)
let test_session_churn_keeps_population () =
  let worlds = 30 in
  let connected =
    List.init worlds (fun k ->
        let r = make_system ~seed:(60 + k) ~n:150 ~loss:0.01 () in
        Runner.run_rounds r 50;
        let sessions =
          Sessions.create ~runner:r ~seed:(7 + k) ~lifetime:(Sessions.Exponential 75.)
            ~arrival_rate:2. ()
        in
        Sessions.run sessions ~rounds:150;
        let stats = Sessions.statistics sessions in
        (* Equilibrium population ~ arrival_rate * mean = 150. *)
        Alcotest.(check bool)
          (Printf.sprintf "population %d near 150" stats.Sessions.population)
          true
          (stats.Sessions.population > 75 && stats.Sessions.population < 260);
        Alcotest.(check bool) "joins happened" true (stats.Sessions.joins > 100);
        Alcotest.(check bool) "leaves happened" true (stats.Sessions.leaves > 100);
        Array.iter
          (fun d -> Alcotest.(check bool) "legal degree" true (d mod 2 = 0 && d <= 12))
          (Sf_core.Properties.outdegree_samples (Sf_core.Runner.store r)
             ~live:(Sf_core.Runner.is_live r));
        Runner.isolated_nodes r = [])
    |> List.filter Fun.id |> List.length
  in
  Alcotest.(check bool)
    (Printf.sprintf "no isolated node in %d of %d worlds (>= 20)" connected worlds)
    true (connected >= 20)

let test_session_zero_arrivals_drains () =
  let r = make_system ~n:60 () in
  let sessions =
    Sessions.create ~recover:false ~runner:r ~seed:8
      ~lifetime:(Sessions.Exponential 20.) ~arrival_rate:0. ()
  in
  Sessions.run sessions ~rounds:200;
  (* Everyone's session expires; the driver keeps a floor of a few nodes. *)
  Alcotest.(check bool) "population drained to the floor" true
    (Runner.live_count r <= 5)

(* --- Dissemination --- *)

(* The push epidemic on the flat spread engine: fanout 2 from node 0 over
   a sharded world whose i.i.d. loss also eats rumor messages. *)
let push_spread ?coverage_target ?max_rounds ?(seed = 60) ~n ~warmup ~loss_rate
    () =
  let w =
    Sharded.create ~shards:4 ~loss_rate ~init:Sharded.Scatter ~init_degree:4
      ~seed ~n ~config ()
  in
  Sharded.run_rounds w warmup;
  Sf_spread.Flat.run ?max_rounds ~domains:1
    (Sf_spread.Flat.create ?coverage_target ~strategy:Sf_spread.Strategy.Push
       ~fanout:2 ~source:0 ~seed:(seed + 1) w)

let test_rumor_reaches_everyone () =
  let trace =
    push_spread ~n:200 ~warmup:80 ~coverage_target:1.0 ~loss_rate:0. ()
  in
  (match trace.Report.rounds_to_target with
  | Some rounds ->
    Alcotest.(check bool)
      (Printf.sprintf "full coverage in %d rounds" rounds)
      true
      (rounds <= 25)
  | None -> Alcotest.fail "rumor must reach everyone without loss");
  (* Coverage is monotone non-decreasing. *)
  let ok = ref true in
  Array.iteri
    (fun i f ->
      if i > 0 && f < trace.Report.coverage.(i - 1) -. 1e-9 then ok := false)
    trace.Report.coverage;
  Alcotest.(check bool) "coverage monotone" true !ok

let test_rumor_loss_slows_spread () =
  let run loss seed =
    let trace = push_spread ~seed ~n:200 ~warmup:80 ~loss_rate:loss () in
    Option.value ~default:999 trace.Report.rounds_to_half
  in
  let fast = run 0. 61 in
  let slow = run 0.6 62 in
  Alcotest.(check bool)
    (Printf.sprintf "no loss %d rounds <= 60%% loss %d rounds" fast slow)
    true (fast <= slow)

let test_rumor_max_rounds_cap () =
  (* 99% loss (the sharded engine refuses certain loss): the rumor barely
     leaves the source. *)
  let trace = push_spread ~n:100 ~warmup:50 ~max_rounds:10 ~loss_rate:0.99 () in
  Alcotest.(check bool) "never reaches half" true (trace.Report.rounds_to_half = None);
  Alcotest.(check int) "stopped at the cap" 10 (Array.length trace.Report.coverage)

let suite =
  [
    Alcotest.test_case "destination loss extremes" `Quick test_drop_to_extremes;
    Alcotest.test_case "destination loss statistics" `Quick test_drop_to_statistics;
    Alcotest.test_case "lifetime sampling" `Quick test_lifetime_sampling;
    Alcotest.test_case "session churn equilibrium" `Quick test_session_churn_keeps_population;
    Alcotest.test_case "session drain" `Quick test_session_zero_arrivals_drains;
    Alcotest.test_case "rumor full coverage" `Quick test_rumor_reaches_everyone;
    Alcotest.test_case "rumor loss slows spread" `Quick test_rumor_loss_slows_spread;
    Alcotest.test_case "rumor round cap" `Quick test_rumor_max_rounds_cap;
  ]
