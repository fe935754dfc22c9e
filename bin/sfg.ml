(* sfg — command-line driver for the Send & Forget reproduction.

   Every analysis and experiment in the library is reachable from here with
   explicit parameters, so results can be regenerated piecemeal without the
   full bench harness.  See `sfg --help` and per-command help. *)

open Cmdliner

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Properties = Sf_core.Properties
module Census = Sf_core.Census
module Summary = Sf_stats.Summary
module Pmf = Sf_stats.Pmf

(* --- Common arguments --- *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let n_arg default =
  Arg.(
    value & opt int default & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")

let view_size_arg default =
  Arg.(
    value & opt int default
    & info [ "s"; "view-size" ] ~docv:"S" ~doc:"View size s (even).")

let lower_threshold_arg default =
  Arg.(
    value
    & opt int default
    & info [ "dl"; "lower-threshold" ] ~docv:"DL"
        ~doc:"Lower outdegree threshold dL (even).")

let loss_arg =
  Arg.(
    value
    & opt float 0.01
    & info [ "loss" ] ~docv:"P" ~doc:"Uniform i.i.d. message loss probability.")

let rounds_arg default =
  Arg.(
    value
    & opt int default
    & info [ "rounds" ] ~docv:"R" ~doc:"Rounds to run (one round = n actions).")

let delta_arg =
  Arg.(
    value
    & opt float 0.01
    & info [ "delta" ] ~docv:"D" ~doc:"Duplication/deletion probability budget.")

let port_arg default =
  Arg.(value & opt int default & info [ "port" ] ~docv:"PORT" ~doc:"First UDP port.")

(* --- Sharded-engine arguments (shared by scale and spread) --- *)

let shards_arg default =
  Arg.(
    value & opt int default
    & info [ "shards" ] ~docv:"S"
        ~doc:
          "Logical shard count of the sharded engine — part of the run's \
           identity (changing it changes the run; changing --domains does not).")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"K"
        ~doc:
          "Domains to run on (default: the recommended domain count, capped at \
           the shard count).  Any value produces the same run.")

let resolve_domains ~shards = function
  | Some d -> d
  | None -> max 1 (min shards (Domain.recommended_domain_count ()))

let churn_arg default =
  Arg.(
    value & opt float default
    & info [ "churn" ] ~docv:"RATE"
        ~doc:
          "Per-round leave probability of each live node on the sharded engine; \
           every leave is matched by a join, keeping the population stationary \
           under RATE turnover.")

let headroom_arg =
  Arg.(
    value & opt (some int) None
    & info [ "headroom" ] ~docv:"SLOTS"
        ~doc:
          "Extra node slots for churn beyond n (depth of the id-reuse delay), \
           rounded up to a multiple of the shard count.  Default \
           max(1024, 2 ceil(RATE n)): twice a round's expected leaves, since a \
           slot freed in a round is reused only in the next.")

let sharded_churn ~n ~churn_rate ~headroom =
  let default = max 1024 (2 * int_of_float (Float.ceil (churn_rate *. float_of_int n))) in
  if churn_rate > 0. then
    Some { Runner.Sharded.churn_rate; headroom = Option.value headroom ~default }
  else None

let verify_domains_arg =
  Arg.(
    value & flag
    & info [ "verify-domains" ]
        ~doc:
          "Replay the run on 1, 2 and 4 domains and require bit-for-bit equal \
           end states; exit 1 on divergence.")

let make_runner ?scenario ?obs ?resilience ~seed ~n ~view_size ~lower_threshold ~loss
    () =
  let config = Protocol.make_config ~view_size ~lower_threshold in
  let rng = Sf_prng.Rng.create (seed + 1) in
  let topology = Topology.regular rng ~n ~out_degree:(Protocol.start_degree config ~n) in
  Runner.create ?scenario ?obs ?resilience ~seed ~n ~loss_rate:loss ~config ~topology ()

(* --- Resilience policy (shared by soak and the --resilience flags) --- *)

let d_hat_arg =
  Arg.(
    value
    & opt int 30
    & info [ "d-hat" ] ~docv:"D"
        ~doc:"Target mean outdegree the adaptive controller re-solves for.")

let resilience_arg =
  Arg.(
    value & flag
    & info [ "resilience" ]
        ~doc:
          "Install the self-healing layer: online loss estimation, adaptive \
           (dL, s) retuning toward --d-hat, supervised recovery.")

(* The section 6.3 solver, re-solved online for the estimated loss.  The
   estimate is clamped below [select_lossy]'s 0.5 domain bound: past that
   the inversion is meaningless and the controller should just hold the
   most defensive thresholds it already reached. *)
let resilience_policy ~d_hat ~delta () =
  let solve ~loss =
    let t =
      Sf_analysis.Thresholds.select_lossy ~d_hat ~delta ~loss:(Float.min loss 0.45)
    in
    (t.Sf_analysis.Thresholds.lower_threshold, t.Sf_analysis.Thresholds.view_size)
  in
  Sf_resil.Policy.make ~solve ()

let print_resilience_stats rs =
  Fmt.pr
    "resilience:  loss estimate %.4f (%s, %d windows); %d retunes, %d repair \
     attempts, %d recoveries@."
    rs.Runner.loss_estimate
    (if rs.Runner.estimator_confident then "confident" else "warming up")
    rs.Runner.estimator_windows rs.Runner.retunes rs.Runner.repair_attempts
    rs.Runner.recoveries

let print_resilience_statistics r =
  match Runner.resilience_statistics r with
  | None -> ()
  | Some rs -> print_resilience_stats rs

(* --- Fault scenarios --- *)

let scenario_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Sf_faults.Scenario.of_string s) in
  let print ppf sc = Fmt.string ppf (Sf_faults.Scenario.to_string sc) in
  Arg.conv ~docv:"SCENARIO" (parse, print)

let scenario_arg =
  Arg.(
    value
    & opt (some scenario_conv) None
    & info [ "scenario" ] ~docv:"SCENARIO"
        ~doc:
          "Fault scenario: semicolon-separated items — iid, ge:MEAN:BURST (bursty \
           loss with stationary mean MEAN and mean burst length BURST), \
           partition@A-B:K (K-way split), crash@A-B:LO-HI (freeze node ids), \
           delay@A-B:F (latency multiplier), corrupt@A-B:R (per-message corruption \
           probability).  Window times A-B are in rounds.")

(* A gate's built-in scenario, written in the --scenario syntax. *)
let default_scenario spec =
  match Sf_faults.Scenario.of_string spec with
  | Ok sc -> sc
  | Error e -> Fmt.failwith "default scenario %S: %s" spec e

let declares kind (scenario : Sf_faults.Scenario.t) =
  List.exists
    (fun w -> Sf_faults.Scenario.fault_kind w.Sf_faults.Scenario.fault = kind)
    scenario.Sf_faults.Scenario.windows

(* --- Gate verdicts (check, storm, soak, cluster, spread, scale) --- *)

(* Every gate collects its findings here and ends in [finish].  A failure
   (a broken invariant, a diverging replay, a missed target) exits 1.  A
   dead fault class — a declared fault that left no evidence, so the plan
   never engaged — exits 2, but only when nothing failed: a dead class
   never hides a real failure.  Every finding is printed either way, and
   [finish] always exits. *)
module Verdict = struct
  type t = { mutable failures : string list; mutable dead : string list }

  let create () = { failures = []; dead = [] }
  let fail v fmt = Fmt.kstr (fun m -> v.failures <- m :: v.failures) fmt
  let dead v fmt = Fmt.kstr (fun m -> v.dead <- m :: v.dead) fmt

  let finish v cmd =
    List.iter (Fmt.epr "%s: %s@." cmd) (List.rev v.failures);
    List.iter (Fmt.epr "%s: %s@." cmd) (List.rev v.dead);
    if v.failures <> [] then exit 1
    else if v.dead <> [] then exit 2
    else begin
      Fmt.pr "%s: OK@." cmd;
      exit 0
    end

  (* The gate's world, or exit 1 with the engine's own message when the
     engine refuses it (say, a fault window it cannot run). *)
  let world v cmd make =
    try make () with
    | Invalid_argument m ->
      fail v "%s" m;
      finish v cmd
end

(* Every fault class a scenario declares must leave evidence in the
   injector counters.  A silent zero means a misconfigured window or a
   regressed injector, not an invariant violation. *)
let injector_verdict v scenario = function
  | None -> Verdict.dead v "scenario declared but no injector statistics"
  | Some fs ->
    let expect what count =
      if count = 0 then Verdict.dead v "injector verdict: %s" what
    in
    (match scenario.Sf_faults.Scenario.loss with
    | Sf_faults.Loss.Gilbert_elliott _ ->
      expect "bursty loss declared but zero burst drops"
        fs.Sf_faults.Injector.burst_drops
    | Sf_faults.Loss.Iid | Sf_faults.Loss.Per_link _ -> ());
    if declares "partition" scenario then
      expect "partition declared but zero partition drops"
        fs.Sf_faults.Injector.partition_drops;
    if declares "crash" scenario then
      expect "crash declared but zero crash drops" fs.Sf_faults.Injector.crash_drops;
    if declares "corrupt" scenario then
      expect "corruption declared but zero corruptions"
        fs.Sf_faults.Injector.corruptions;
    if scenario.Sf_faults.Scenario.windows <> [] then
      expect "fault windows declared but zero window transitions"
        fs.Sf_faults.Injector.fault_transitions

(* The stable invariants of a cluster view — soundness, the M1 bounds and
   parity (every protocol transition moves ids in pairs).  The UDP
   clusters have no per-action audit hook, so their final views are
   checked with this. *)
let check_cluster_view v ~view_size id view =
  (match Sf_check.Invariant.check_view view with
  | Some viol ->
    Verdict.fail v "cluster node %d: %a" id Sf_check.Invariant.pp_violation viol
  | None -> ());
  let d = Sf_core.View.degree view in
  if d < 0 || d > view_size || d mod 2 <> 0 then
    Verdict.fail v "cluster node %d: outdegree %d violates M1 bounds or parity" id d

(* The domain-count determinism contract: [run k] builds a fresh world and
   runs it on k domains; the runs on 2 and 4 domains must end bit-for-bit
   equal to the 1-domain run, which is built once. *)
let domain_oracle v ~what ~equal run =
  let reference = run 1 in
  List.iter
    (fun k ->
      let ok = equal reference (run k) in
      Fmt.pr "determinism: %s: %d-domain run %s the 1-domain run@." what k
        (if ok then "bit-identical to" else "DIVERGES from");
      if not ok then
        Verdict.fail v "%s: %d-domain run diverges from the 1-domain run" what k)
    [ 2; 4 ]

(* A split overlay gets one more chance, the rendezvous recovery rule; a
   split it cannot heal fails the gate. *)
let heal_split v r =
  if not (Properties.is_weakly_connected r) then begin
    Fmt.pr "overlay split by the fault plan; invoking rendezvous recovery...@.";
    match Sf_core.Churn.recover_connectivity r with
    | Some (recovery_rounds, repairs) ->
      Fmt.pr "reconnected after %d recovery rounds (%d repairs)@."
        recovery_rounds repairs
    | None -> Verdict.fail v "overlay split and unhealable"
  end

let print_fault_statistics fs =
  Fmt.pr
    "faults:      %d judged — %d chance drops (%d bursty), %d partition, %d crash, \
     %d corrupted; %d window transitions@."
    fs.Sf_faults.Injector.judged fs.Sf_faults.Injector.chance_drops
    fs.Sf_faults.Injector.burst_drops fs.Sf_faults.Injector.partition_drops
    fs.Sf_faults.Injector.crash_drops fs.Sf_faults.Injector.corruptions
    fs.Sf_faults.Injector.fault_transitions

let print_system_state r =
  let outs = Properties.outdegree_summary r in
  let ins = Properties.indegree_summary r in
  let census = Properties.independence_census r in
  Fmt.pr "nodes:       %d@." (Runner.live_count r);
  Fmt.pr "actions:     %d@." (Runner.action_count r);
  Fmt.pr "outdegree:   %.2f ± %.2f  (min %.0f, max %.0f)@." (Summary.mean outs)
    (Summary.std outs) (Summary.min_value outs) (Summary.max_value outs);
  Fmt.pr "indegree:    %.2f ± %.2f  (min %.0f, max %.0f)@." (Summary.mean ins)
    (Summary.std ins) (Summary.min_value ins) (Summary.max_value ins);
  Fmt.pr "alpha:       %.4f  (self %d, anchored %d, parallel %d of %d entries)@."
    census.Census.alpha census.Census.self_edges census.Census.anchored
    census.Census.parallel_surplus census.Census.total_entries;
  Fmt.pr "connected:   %b@." (Properties.is_weakly_connected r);
  let c = Runner.world_counters r in
  Fmt.pr "messages:    %d sent, %d delivered, %d lost, %d to dead nodes@."
    c.Runner.sends c.Runner.receipts c.Runner.messages_lost c.Runner.to_dead

(* --- simulate --- *)

let simulate seed n view_size lower_threshold loss rounds timed resilience d_hat delta
    =
  let resilience =
    if resilience then Some (resilience_policy ~d_hat ~delta ()) else None
  in
  let r = make_runner ?resilience ~seed ~n ~view_size ~lower_threshold ~loss () in
  if timed then begin
    Runner.start_timed r (Runner.Poisson 1.0);
    Runner.run_until r (float_of_int rounds)
  end
  else Runner.run_rounds r rounds;
  let base = Runner.world_counters r in
  if timed then Runner.run_until r (float_of_int (2 * rounds))
  else Runner.run_rounds r rounds;
  print_system_state r;
  let rates = Runner.rates_since r base in
  Fmt.pr "rates/send:  duplication %.4f, deletion %.4f, loss %.4f@."
    rates.Runner.duplication rates.Runner.deletion rates.Runner.loss;
  Fmt.pr "Lemma 6.6:   dup - (loss + del) = %+.4f@."
    (rates.Runner.duplication -. rates.Runner.loss -. rates.Runner.deletion);
  print_resilience_statistics r

let simulate_cmd =
  let timed =
    Arg.(value & flag & info [ "timed" ] ~doc:"Run the timed (event-driven) model.")
  in
  let doc = "Run an S&F system and report degree, independence and rate statistics." in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const simulate $ seed_arg $ n_arg 1000 $ view_size_arg 40 $ lower_threshold_arg 18
      $ loss_arg $ rounds_arg 400 $ timed $ resilience_arg $ d_hat_arg $ delta_arg)

(* --- degree-mc --- *)

let degree_mc view_size lower_threshold loss full =
  let params =
    Sf_analysis.Degree_mc.make_params ~view_size ~lower_threshold ~loss ()
  in
  let r = Sf_analysis.Degree_mc.solve params in
  Fmt.pr "converged:     %b (%d outer iterations)@." r.Sf_analysis.Degree_mc.converged
    r.Sf_analysis.Degree_mc.outer_iterations;
  Fmt.pr "outdegree:     %.3f ± %.3f (mode %d)@."
    (Pmf.mean r.Sf_analysis.Degree_mc.outdegree)
    (Pmf.std r.Sf_analysis.Degree_mc.outdegree)
    (Pmf.mode r.Sf_analysis.Degree_mc.outdegree);
  Fmt.pr "indegree:      %.3f ± %.3f (mode %d)@."
    (Pmf.mean r.Sf_analysis.Degree_mc.indegree)
    (Pmf.std r.Sf_analysis.Degree_mc.indegree)
    (Pmf.mode r.Sf_analysis.Degree_mc.indegree);
  Fmt.pr "duplication:   %.4f per send@." r.Sf_analysis.Degree_mc.duplication_probability;
  Fmt.pr "deletion:      %.4f per send@." r.Sf_analysis.Degree_mc.deletion_probability;
  Fmt.pr "loss+deletion: %.4f  (Lemma 6.6 balance)@."
    (loss +. r.Sf_analysis.Degree_mc.deletion_probability);
  if full then begin
    Fmt.pr "@.outdegree distribution:@.";
    Sf_stats.Ascii_plot.pmf Fmt.stdout r.Sf_analysis.Degree_mc.outdegree;
    Fmt.pr "@.indegree distribution:@.";
    Sf_stats.Ascii_plot.pmf Fmt.stdout r.Sf_analysis.Degree_mc.indegree
  end

let degree_mc_cmd =
  let full = Arg.(value & flag & info [ "full" ] ~doc:"Print the full distributions.") in
  let doc = "Solve the section 6.2 degree Markov chain to its fixed point." in
  Cmd.v (Cmd.info "degree-mc" ~doc)
    Term.(const degree_mc $ view_size_arg 40 $ lower_threshold_arg 18 $ loss_arg $ full)

(* --- thresholds --- *)

let thresholds d_hat delta literal =
  let t =
    if literal then Sf_analysis.Thresholds.select_literal ~d_hat ~delta
    else Sf_analysis.Thresholds.select ~d_hat ~delta
  in
  Fmt.pr "%a@." Sf_analysis.Thresholds.pp t

let thresholds_cmd =
  let d_hat =
    Arg.(value & opt int 30 & info [ "d-hat" ] ~docv:"D" ~doc:"Target expected outdegree.")
  in
  let literal =
    Arg.(
      value & flag
      & info [ "literal" ] ~doc:"Use the literal Pr(d>=s) reading of condition (3).")
  in
  let doc = "Select dL and s from a target degree and budget (section 6.3)." in
  Cmd.v (Cmd.info "thresholds" ~doc) Term.(const thresholds $ d_hat $ delta_arg $ literal)

(* --- decay --- *)

let decay loss delta lower_threshold view_size rounds =
  let p =
    Sf_analysis.Decay.make_params ~loss ~delta ~lower_threshold ~view_size
  in
  Fmt.pr "per-round survival factor: %.5f@." (Sf_analysis.Decay.per_round_survival p);
  Fmt.pr "rounds to 50%%:             %d@."
    (Sf_analysis.Decay.rounds_to_fraction p ~fraction:0.5);
  Fmt.pr "rounds to 1%%:              %d@."
    (Sf_analysis.Decay.rounds_to_fraction p ~fraction:0.01);
  Fmt.pr "@.survival bound:@.";
  let curve = Sf_analysis.Decay.survival_curve p ~rounds in
  let step = max 1 (rounds / 20) in
  let i = ref 0 in
  while !i <= rounds do
    Fmt.pr "  %4d  %.4f@." !i curve.(!i);
    i := !i + step
  done

let decay_cmd =
  let doc = "Print the Lemma 6.10 decay bound for a departed node's id." in
  Cmd.v (Cmd.info "decay" ~doc)
    Term.(
      const decay $ loss_arg $ delta_arg $ lower_threshold_arg 18 $ view_size_arg 40
      $ rounds_arg 500)

(* --- alpha --- *)

let alpha loss delta =
  Fmt.pr "alpha lower bound (Lemma 7.9):  %.4f@."
    (Sf_analysis.Dependence.alpha_lower_bound ~loss ~delta);
  Fmt.pr "dependence MC stationary:       %.4f dependent@."
    (Sf_analysis.Dependence.stationary_dependent_fraction ~loss ~delta);
  Fmt.pr "I->D transition bound:          %.4f@."
    (Sf_analysis.Dependence.to_dependent_probability ~loss ~delta);
  Fmt.pr "D->I transition bound:          %.4f@."
    (Sf_analysis.Dependence.to_independent_probability ~loss ~delta)

let alpha_cmd =
  let doc = "Spatial-independence bounds (section 7.4)." in
  Cmd.v (Cmd.info "alpha" ~doc) Term.(const alpha $ loss_arg $ delta_arg)

(* --- temporal --- *)

let temporal n view_size expected_outdegree alpha epsilon =
  let p =
    Sf_analysis.Temporal.make_params ~n ~view_size ~expected_outdegree ~alpha
  in
  Fmt.pr "expected conductance bound (Lemma 7.14): %.5f@."
    (Sf_analysis.Temporal.expected_conductance_bound p);
  Fmt.pr "tau_eps (Lemma 7.15):                    %.4e transformations@."
    (Sf_analysis.Temporal.tau_epsilon p ~epsilon);
  Fmt.pr "actions per node:                        %.1f@."
    (Sf_analysis.Temporal.actions_per_node p ~epsilon);
  Fmt.pr "s ln n:                                  %.1f@."
    (Sf_analysis.Temporal.headline_scaling p)

let temporal_cmd =
  let de =
    Arg.(
      value & opt float 27. & info [ "de" ] ~docv:"DE" ~doc:"Expected outdegree dE.")
  in
  let alpha_v =
    Arg.(value & opt float 0.96 & info [ "alpha" ] ~docv:"A" ~doc:"Independence fraction.")
  in
  let eps =
    Arg.(value & opt float 0.01 & info [ "epsilon" ] ~docv:"E" ~doc:"Target distance.")
  in
  let doc = "Temporal-independence bound tau_eps (section 7.5)." in
  Cmd.v (Cmd.info "temporal" ~doc)
    Term.(const temporal $ n_arg 1000 $ view_size_arg 40 $ de $ alpha_v $ eps)

(* --- connectivity --- *)

let connectivity loss delta epsilon =
  let alpha = Sf_analysis.Dependence.alpha_lower_bound ~loss ~delta in
  match Sf_analysis.Connectivity.minimal_lower_threshold ~alpha ~epsilon () with
  | Some d ->
    Fmt.pr "alpha = %.4f -> minimal dL = %d (failure probability %.3e)@." alpha d
      (Sf_analysis.Connectivity.failure_probability ~lower_threshold:d ~alpha)
  | None -> Fmt.pr "no threshold below the search cap@."

let connectivity_cmd =
  let eps =
    Arg.(
      value & opt float 1e-30
      & info [ "epsilon" ] ~docv:"E" ~doc:"Tolerated disconnection probability.")
  in
  let doc = "Minimal dL for connectivity (section 7.4 rule)." in
  Cmd.v (Cmd.info "connectivity" ~doc)
    Term.(const connectivity $ loss_arg $ delta_arg $ eps)

(* --- churn --- *)

let churn seed n view_size lower_threshold loss rounds =
  let r = make_runner ~seed ~n ~view_size ~lower_threshold ~loss () in
  Runner.run_rounds r 200;
  Fmt.pr "-- leave decay (one victim)@.";
  let victim, trace = Sf_core.Churn.leave_decay r ~rounds () in
  Fmt.pr "victim %d had %d instances at departure@." victim trace.(0);
  let step = max 1 (rounds / 10) in
  Array.iteri
    (fun i c -> if i mod step = 0 then Fmt.pr "  round %4d: %d instances@." i c)
    trace;
  Fmt.pr "-- join integration@.";
  let jt = Sf_core.Churn.join_integration r ~rounds in
  Fmt.pr "joiner %d@." jt.Sf_core.Churn.joiner;
  Array.iteri
    (fun i c ->
      if i mod step = 0 then
        Fmt.pr "  round %4d: %d instances, outdegree %d@." i c
          jt.Sf_core.Churn.out_degrees.(i))
    jt.Sf_core.Churn.instances

let churn_cmd =
  let doc = "Leave-decay and join-integration experiments (section 6.5)." in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(
      const churn $ seed_arg $ n_arg 1000 $ view_size_arg 40 $ lower_threshold_arg 18
      $ loss_arg $ rounds_arg 200)

(* --- baselines --- *)

let baselines seed n view_size loss rounds =
  let topology = Topology.regular (Sf_prng.Rng.create (seed + 1)) ~n ~out_degree:(view_size / 2) in
  let report name total census connected =
    Fmt.pr "%-28s edges %6d  alpha %.3f  connected %b@." name total
      census.Census.alpha connected
  in
  let run name kind =
    let b =
      Sf_core.Baselines.create ~seed ~n ~view_size ~loss_rate:loss ~kind ~topology
    in
    Sf_core.Baselines.run_rounds b rounds;
    report name
      (Sf_core.Baselines.total_instances b)
      (Sf_core.Baselines.independence_census b)
      (Sf_core.Baselines.is_weakly_connected b)
  in
  let config = Protocol.make_config ~view_size ~lower_threshold:(max 0 (view_size - 22)) in
  let r = Runner.create ~seed ~n ~loss_rate:loss ~config ~topology () in
  Runner.run_rounds r rounds;
  report "send-and-forget"
    (Sf_graph.Digraph.edge_count (Runner.membership_graph r))
    (Properties.independence_census r)
    (Properties.is_weakly_connected r);
  run "shuffle" (Sf_core.Baselines.Shuffle { exchange_size = 4 });
  run "push-pull-keep" (Sf_core.Baselines.Push_pull { gossip_size = 3 });
  run "push-only" Sf_core.Baselines.Push_only

let baselines_cmd =
  let doc = "Compare S&F against the section 3.1 baseline protocols." in
  Cmd.v (Cmd.info "baselines" ~doc)
    Term.(
      const baselines $ seed_arg $ n_arg 1000 $ view_size_arg 40 $ loss_arg
      $ rounds_arg 300)

(* --- global-mc --- *)

let global_mc view_size lower_threshold loss =
  let p = { Sf_analysis.Global_mc.n = 3; view_size; lower_threshold; loss } in
  let r = Sf_analysis.Global_mc.explore p ~initial:[ [ 1; 2 ]; [ 0; 2 ]; [ 0; 1 ] ] in
  Fmt.pr "states:                  %d@." (Array.length r.Sf_analysis.Global_mc.states);
  Fmt.pr "ergodic:                 %b@." r.Sf_analysis.Global_mc.is_ergodic;
  Fmt.pr "labeled uniformity:      %.6f (max/min; 1 = Lemma 7.5 exact)@."
    (Sf_analysis.Global_mc.labeled_uniformity_ratio r);
  Fmt.pr "edge-probability spread: %.6f (1 = Lemma 7.6 exact)@."
    (Sf_analysis.Global_mc.edge_probability_spread r);
  Fmt.pr "mean entries:            %.3f@." r.Sf_analysis.Global_mc.mean_entries;
  Fmt.pr "self-edge fraction:      %.4f@." r.Sf_analysis.Global_mc.self_edge_fraction

let global_mc_cmd =
  let s = Arg.(value & opt int 6 & info [ "s" ] ~docv:"S" ~doc:"View size (keep tiny).") in
  let dl = Arg.(value & opt int 0 & info [ "dl" ] ~docv:"DL" ~doc:"Lower threshold.") in
  let doc = "Exact global Markov chain for a 3-node system (section 7.1)." in
  Cmd.v (Cmd.info "global-mc" ~doc) Term.(const global_mc $ s $ dl $ loss_arg)

(* --- walk --- *)

let walk seed n view_size lower_threshold loss length attempts =
  let r = make_runner ~seed ~n ~view_size ~lower_threshold ~loss () in
  Runner.run_rounds r 200;
  let rng = Sf_prng.Rng.create (seed + 99) in
  let stats =
    Sf_core.Random_walk.sample_statistics r rng ~attempts ~length ~loss_rate:loss
  in
  Fmt.pr "attempts:  %d@." stats.Sf_core.Random_walk.attempts;
  Fmt.pr "completed: %d (%.3f; theory %.3f)@." stats.Sf_core.Random_walk.completed
    stats.Sf_core.Random_walk.success_rate
    (Sf_core.Random_walk.success_probability ~length ~loss_rate:loss);
  Fmt.pr "lost:      %d@." stats.Sf_core.Random_walk.lost;
  Fmt.pr "dead ends: %d@." stats.Sf_core.Random_walk.dead_ends

let walk_cmd =
  let length =
    Arg.(value & opt int 10 & info [ "length" ] ~docv:"L" ~doc:"Walk length in hops.")
  in
  let attempts =
    Arg.(value & opt int 5000 & info [ "attempts" ] ~docv:"K" ~doc:"Number of walks.")
  in
  let doc = "Random-walk sampling under loss (section 3.1 comparison)." in
  Cmd.v (Cmd.info "walk" ~doc)
    Term.(
      const walk $ seed_arg $ n_arg 1000 $ view_size_arg 40 $ lower_threshold_arg 18
      $ loss_arg $ length $ attempts)

(* --- quality --- *)

let quality seed n view_size lower_threshold loss rounds =
  let r = make_runner ~seed ~n ~view_size ~lower_threshold ~loss () in
  Runner.run_rounds r rounds;
  let g = Runner.membership_graph r in
  let rng = Sf_prng.Rng.create (seed + 50) in
  let paths = Sf_graph.Quality.path_statistics ~sources:24 rng g in
  Fmt.pr "estimated diameter:   %d@." paths.Sf_graph.Quality.estimated_diameter;
  Fmt.pr "average path length:  %.2f@." paths.Sf_graph.Quality.average_path_length;
  Fmt.pr "unreachable pairs:    %d@." paths.Sf_graph.Quality.unreachable_pairs;
  Fmt.pr "clustering coeff.:    %.4f@." (Sf_graph.Quality.clustering_coefficient g);
  Fmt.pr "robustness (giant component after random removals):@.";
  List.iter
    (fun (fraction, giant) -> Fmt.pr "  remove %3.0f%% -> giant %.3f@." (100. *. fraction) giant)
    (Sf_graph.Quality.robustness_profile rng g
       ~removal_fractions:[ 0.1; 0.3; 0.5; 0.7 ])

let quality_cmd =
  let doc = "Expander quality of the steady-state membership graph (section 2)." in
  Cmd.v (Cmd.info "quality" ~doc)
    Term.(
      const quality $ seed_arg $ n_arg 1000 $ view_size_arg 40 $ lower_threshold_arg 18
      $ loss_arg $ rounds_arg 300)

(* --- mixing --- *)

let mixing view_size lower_threshold loss =
  let params = Sf_analysis.Degree_mc.make_params ~view_size ~lower_threshold ~loss () in
  let r = Sf_analysis.Degree_mc.solve params in
  let chain = Sf_analysis.Degree_mc.to_chain r in
  let rng = Sf_prng.Rng.create 7 in
  let lambda =
    Sf_markov.Mixing.second_eigenvalue_estimate chain
      ~stationary:r.Sf_analysis.Degree_mc.joint
      ~uniform:(fun () -> Sf_prng.Rng.float rng)
  in
  Fmt.pr "|lambda2| estimate:  %.5f@." lambda;
  Fmt.pr "relaxation time:     %s steps@."
    (if lambda >= 1. then "inf" else Fmt.str "%.1f" (1. /. (1. -. lambda)));
  let size = Sf_markov.Chain.size chain in
  let idx = ref 0 in
  Array.iteri
    (fun i st -> if st = (lower_threshold, 0) then idx := i)
    r.Sf_analysis.Degree_mc.states;
  let profile =
    Sf_markov.Mixing.distance_profile chain
      ~initial:(Sf_markov.Chain.point_distribution ~size !idx)
      ~stationary:r.Sf_analysis.Degree_mc.joint
      ~checkpoints:[ 0; 100; 200; 400; 800; 1600; 3200 ]
  in
  Fmt.pr "TVD to stationarity from the (dL, 0) corner state:@.";
  Array.iteri
    (fun i step ->
      Fmt.pr "  %5d steps: %.4f@." step profile.Sf_markov.Mixing.tv_distances.(i))
    profile.Sf_markov.Mixing.steps

let mixing_cmd =
  let doc = "Mixing diagnostics of the degree Markov chain." in
  Cmd.v (Cmd.info "mixing" ~doc)
    Term.(const mixing $ view_size_arg 40 $ lower_threshold_arg 18 $ loss_arg)

(* --- udp --- *)

(* The start overlay of the UDP commands: a regular digraph of the start
   outdegree. *)
let udp_topology ~seed ~n config =
  Topology.regular (Sf_prng.Rng.create (seed + 1)) ~n
    ~out_degree:(Protocol.start_degree config ~n)

let udp seed n view_size lower_threshold loss duration base_port =
  let config = Protocol.make_config ~view_size ~lower_threshold in
  let topology = udp_topology ~seed ~n config in
  let c =
    Sf_net.Driver.create ~base_port ~n ~config ~loss_rate:loss ~seed ~topology ()
  in
  Fun.protect
    ~finally:(fun () -> Sf_net.Driver.shutdown c)
    (fun () ->
      Fmt.pr "running %d nodes on UDP 127.0.0.1:%d-%d for %.1fs...@." n base_port
        (base_port + n - 1) duration;
      Sf_net.Driver.run c ~duration;
      let stats = Sf_net.Driver.statistics c in
      let outs = Sf_net.Driver.outdegree_summary c in
      let census = Sf_net.Driver.independence_census c in
      Fmt.pr "actions:     %d@." stats.Sf_net.Driver.actions;
      Fmt.pr "messages:    %d sent, %d dropped (injected), %d received@."
        stats.Sf_net.Driver.datagrams_sent stats.Sf_net.Driver.datagrams_dropped
        stats.Sf_net.Driver.messages_received;
      Fmt.pr "codec errors: %d, send errors: %d@." stats.Sf_net.Driver.decode_errors
        stats.Sf_net.Driver.send_errors;
      Fmt.pr "outdegree:   %.2f ± %.2f@." (Summary.mean outs) (Summary.std outs);
      Fmt.pr "alpha:       %.4f@." census.Census.alpha;
      Fmt.pr "connected:   %b@." (Sf_net.Driver.is_weakly_connected c))

let udp_cmd =
  let duration =
    Arg.(value & opt float 3. & info [ "duration" ] ~docv:"SEC" ~doc:"Wall-clock seconds.")
  in
  let n_small =
    Arg.(value & opt int 64 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Nodes (<= ~500).")
  in
  let doc = "Run S&F over real UDP sockets on the loopback interface." in
  Cmd.v (Cmd.info "udp" ~doc)
    Term.(
      const udp $ seed_arg $ n_small $ view_size_arg 40 $ lower_threshold_arg 18
      $ loss_arg $ duration $ port_arg 47000)

(* --- check --- *)

let check seed n view_size lower_threshold loss rounds warn scan_every scenario =
  let v = Verdict.create () in
  let r = make_runner ?scenario ~seed ~n ~view_size ~lower_threshold ~loss () in
  (match scenario with
  | Some sc -> Fmt.pr "scenario:          %s@." (Sf_faults.Scenario.to_string sc)
  | None -> ());
  let mode = if warn then Sf_check.Invariant.Warn else Sf_check.Invariant.Strict in
  (match Sf_check.Invariant.audited_run ~mode ~scan_every r ~rounds with
  | exception Sf_check.Invariant.Violation viol ->
    Verdict.fail v "invariant violation after %d actions: %a" (Runner.action_count r)
      Sf_check.Invariant.pp_violation viol
  | stats ->
    Fmt.pr "actions audited:   %d@." stats.Sf_check.Invariant.actions_checked;
    Fmt.pr "full scans:        %d@." stats.Sf_check.Invariant.full_scans;
    Fmt.pr "baseline resyncs:  %d@." stats.Sf_check.Invariant.resyncs;
    Fmt.pr "violations:        %d@." stats.Sf_check.Invariant.violation_count;
    List.iter
      (fun viol -> Fmt.pr "  %a@." Sf_check.Invariant.pp_violation viol)
      (List.rev stats.Sf_check.Invariant.violations);
    if stats.Sf_check.Invariant.violation_count > 0 then
      Verdict.fail v "%d invariant violations under the audit"
        stats.Sf_check.Invariant.violation_count);
  Option.iter print_fault_statistics (Runner.fault_statistics r);
  print_system_state r;
  Verdict.finish v "check"

let check_cmd =
  let warn =
    Arg.(
      value & flag
      & info [ "warn" ] ~doc:"Log violations and keep running instead of failing fast.")
  in
  let scan_every =
    Arg.(
      value & opt int 1000
      & info [ "scan-every" ] ~docv:"K"
          ~doc:"Full structural scan (serial uniqueness, view soundness) every K actions.")
  in
  let doc =
    "Run a fully audited simulation: every S\\&F action is checked against the \
     paper's invariants (M1 degree bounds, edge conservation, the dL duplication \
     rule, view soundness).  An optional --scenario adds fault injection (bursty \
     loss, partitions, crashes, delays, corruption) under the same audit.  Exits \
     nonzero on any violation."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const check $ seed_arg $ n_arg 1000 $ view_size_arg 40 $ lower_threshold_arg 18
      $ loss_arg $ rounds_arg 100 $ warn $ scan_every $ scenario_arg)

(* --- The UDP loopback leg of storm and soak --- *)

let udp_nodes_arg =
  Arg.(
    value & opt int 48
    & info [ "udp-nodes" ] ~docv:"N" ~doc:"Cluster size for the UDP leg.")

let no_udp_arg = Arg.(value & flag & info [ "no-udp" ] ~doc:"Skip the UDP cluster leg.")

(* The simulator's scenario replayed on a real socket cluster of
   [udp_nodes], one round per 5 ms; every final view is checked.  Returns
   the driver's statistics for the caller's own verdicts. *)
let udp_leg v ?resilience ~seed ~view_size ~lower_threshold ~loss ~scenario
    ~udp_nodes ~base_port ~rounds () =
  let period = 0.005 in
  let config = Protocol.make_config ~view_size ~lower_threshold in
  let c =
    Sf_net.Driver.create ~period ~scenario ?resilience ~base_port ~n:udp_nodes ~config
      ~loss_rate:loss ~seed ~topology:(udp_topology ~seed ~n:udp_nodes config) ()
  in
  Fun.protect
    ~finally:(fun () -> Sf_net.Driver.shutdown c)
    (fun () ->
      Sf_net.Driver.run c ~duration:(float_of_int rounds *. period);
      let stats = Sf_net.Driver.statistics c in
      Fmt.pr
        "messages:    %d sent, %d dropped, %d received, %d corrupted, %d delayed \
         batches, %d crash-dropped datagrams, %d CRC-rejected frames, %d decode \
         errors; %d rejoins, %d retunes@."
        stats.Sf_net.Driver.datagrams_sent stats.Sf_net.Driver.datagrams_dropped
        stats.Sf_net.Driver.messages_received stats.Sf_net.Driver.datagrams_corrupted
        stats.Sf_net.Driver.datagrams_delayed
        stats.Sf_net.Driver.datagrams_crash_dropped
        stats.Sf_net.Driver.frames_crc_rejected stats.Sf_net.Driver.decode_errors
        stats.Sf_net.Driver.rejoins stats.Sf_net.Driver.retunes;
      Option.iter print_fault_statistics (Sf_net.Driver.fault_statistics c);
      Seq.iter
        (fun (id, view) -> check_cluster_view v ~view_size id view)
        (Sf_net.Driver.views c);
      stats)

(* --- storm --- *)

(* Exercises every fault class at once: bursty loss throughout, then a
   two-way partition, a crash/restart of a node range, a delay spike, and a
   corruption window — all under the strict invariant audit.  The default
   world judges about 128 surviving sends in the five corruption rounds,
   so rate 0.2 expects about 26 corruptions: a window that draws none
   (and makes the gate exit 2) has probability below e^-25, about 1e-11. *)
let default_storm_scenario =
  "ge:0.08:8;partition@10-25:2;crash@30-40:0-7;delay@45-50:3;corrupt@55-60:0.2"

let storm seed n view_size lower_threshold loss rounds scenario udp_nodes base_port
    no_udp =
  let v = Verdict.create () in
  let scenario =
    match scenario with
    | Some sc -> sc
    | None -> default_scenario default_storm_scenario
  in
  Fmt.pr "scenario:    %s@." (Sf_faults.Scenario.to_string scenario);
  Fmt.pr "-- simulator (sequential actions, strict audit)@.";
  let r = make_runner ~scenario ~seed ~n ~view_size ~lower_threshold ~loss () in
  (match Sf_check.Invariant.audited_run ~mode:Sf_check.Invariant.Strict r ~rounds with
  | exception Sf_check.Invariant.Violation viol ->
    Verdict.fail v "invariant violation after %d actions: %a" (Runner.action_count r)
      Sf_check.Invariant.pp_violation viol
  | stats ->
    Fmt.pr "audited:     %d actions, %d full scans, %d baseline resyncs@."
      stats.Sf_check.Invariant.actions_checked stats.Sf_check.Invariant.full_scans
      stats.Sf_check.Invariant.resyncs);
  let fs = Runner.fault_statistics r in
  Option.iter print_fault_statistics fs;
  injector_verdict v scenario fs;
  heal_split v r;
  if not no_udp then begin
    Fmt.pr "-- UDP cluster (loopback, same scenario)@.";
    ignore
      (udp_leg v ~seed ~view_size ~lower_threshold ~loss ~scenario ~udp_nodes
         ~base_port ~rounds ())
  end;
  Verdict.finish v "storm"

let storm_cmd =
  let doc =
    "Fault storm: drive a fault scenario (bursty loss, partitions, crash/restart, \
     delay spikes, datagram corruption) through both the discrete-event simulator \
     — under the strict invariant audit — and the real UDP cluster, then verify \
     connectivity (healing a split overlay via the rendezvous recovery rule) and \
     view invariants.  Exit status: 0 when everything holds; 1 on an invariant \
     violation or an unhealable split; 2 when nothing failed but a declared \
     fault class left no injector evidence (the plan never engaged)."
  in
  Cmd.v (Cmd.info "storm" ~doc)
    Term.(
      const storm $ seed_arg $ n_arg 96 $ view_size_arg 40 $ lower_threshold_arg 18
      $ loss_arg $ rounds_arg 70 $ scenario_arg $ udp_nodes_arg $ port_arg 48100
      $ no_udp_arg)

(* --- Multi-process clusters (cluster, soak --multiproc) --- *)

let sum_stat key (o : Sf_net.Spawner.outcome) =
  List.fold_left
    (fun acc h ->
      acc
      +. (match List.assoc_opt key h.Sf_net.Spawner.stats with
         | Some v -> v
         | None -> 0.))
    0. o.Sf_net.Spawner.hosts

let max_stat key (o : Sf_net.Spawner.outcome) =
  List.fold_left
    (fun acc h ->
      Float.max acc
        (match List.assoc_opt key h.Sf_net.Spawner.stats with
        | Some v -> v
        | None -> 0.))
    0. o.Sf_net.Spawner.hosts

(* Every host completed the shutdown protocol, every node reported a
   sound view with M1-bounded even outdegree, and the merged overlay is
   weakly connected.  A declared crash or partition that left no
   process-level evidence (no kill, no respawn, no filtered datagram) is
   a dead fault class. *)
let spawner_verdict v ~scenario ~hosts ~n ~view_size (o : Sf_net.Spawner.outcome) =
  let byes =
    List.length (List.filter (fun h -> h.Sf_net.Spawner.bye) o.Sf_net.Spawner.hosts)
  in
  if byes <> hosts then
    Verdict.fail v "only %d/%d hosts completed the stop protocol" byes hosts;
  let merged = o.Sf_net.Spawner.merged_views in
  let reported = List.length merged in
  if reported <> n then Verdict.fail v "%d/%d nodes reported a final view" reported n;
  let graph = Sf_graph.Digraph.create () in
  List.iter
    (fun (id, entries) ->
      Sf_graph.Digraph.ensure_vertex graph id;
      let view = Sf_core.View.create view_size in
      List.iteri
        (fun slot e ->
          if slot < view_size then begin
            Sf_core.View.set view slot e;
            Sf_graph.Digraph.add_edge graph id e.Sf_core.View.id
          end)
        entries;
      check_cluster_view v ~view_size id view)
    merged;
  if reported = n && not (Sf_graph.Digraph.is_weakly_connected graph) then
    Verdict.fail v "merged post-heal overlay is not weakly connected";
  if declares "crash" scenario then begin
    if o.Sf_net.Spawner.kills = 0 then
      Verdict.dead v "crash windows declared but no host was killed";
    if o.Sf_net.Spawner.respawns = 0 then
      Verdict.dead v "crash windows declared but no host was respawned"
  end;
  if declares "partition" scenario && sum_stat "filtered" o = 0. then
    Verdict.dead v "partition windows declared but no datagram was filtered"

(* --- soak --- *)

(* Sustained bursty loss well above anything the base thresholds were
   solved for, plus a partition and a crash wave: the regime the
   resilience layer exists for.  Rounds are longer than storm's so the
   estimator folds several full windows before the verdict. *)
let default_soak_scenario = "ge:0.15:6;partition@60-80:2;crash@110-130:0-5"

let soak seed n view_size lower_threshold d_hat delta loss rounds scenario tolerance
    udp_nodes base_port no_udp multiproc =
  let v = Verdict.create () in
  let scenario =
    match scenario with
    | Some sc -> sc
    | None -> default_scenario default_soak_scenario
  in
  let policy = resilience_policy ~d_hat ~delta () in
  Fmt.pr "scenario:    %s@." (Sf_faults.Scenario.to_string scenario);
  Fmt.pr "-- simulator (resilience on: adaptive retuning + supervised recovery)@.";
  let r =
    make_runner ~scenario ~resilience:policy ~seed ~n ~view_size ~lower_threshold
      ~loss ()
  in
  let stats =
    Sf_check.Invariant.audited_run ~mode:Sf_check.Invariant.Warn r ~rounds
  in
  Fmt.pr "audited:     %d actions, %d full scans, %d violations@."
    stats.Sf_check.Invariant.actions_checked stats.Sf_check.Invariant.full_scans
    stats.Sf_check.Invariant.violation_count;
  List.iter
    (fun viol -> Fmt.epr "  %a@." Sf_check.Invariant.pp_violation viol)
    (List.rev stats.Sf_check.Invariant.violations);
  Option.iter print_fault_statistics (Runner.fault_statistics r);
  print_resilience_statistics r;
  print_system_state r;
  if stats.Sf_check.Invariant.violation_count > 0 then
    Verdict.fail v "%d invariant violations under the audit"
      stats.Sf_check.Invariant.violation_count;
  (* The supervisor had its chance during the run; the manual rendezvous
     rule is the fallback. *)
  heal_split v r;
  (match (Runner.resilience_statistics r, Runner.fault_statistics r) with
  | Some rs, Some fs ->
    if not rs.Runner.estimator_confident then
      Verdict.fail v "loss estimator never folded a full window (%d rounds too short)"
        rounds
    else begin
      (* Ground truth: the injector's own drop fraction over every cause
         the estimator can see through the Lemma 6.6 balance.
         burst_drops is the bursty subset of chance_drops — don't double
         count it. *)
      let dropped =
        fs.Sf_faults.Injector.chance_drops + fs.Sf_faults.Injector.partition_drops
        + fs.Sf_faults.Injector.crash_drops + fs.Sf_faults.Injector.corruptions
      in
      let truth =
        if fs.Sf_faults.Injector.judged = 0 then 0.
        else float_of_int dropped /. float_of_int fs.Sf_faults.Injector.judged
      in
      let err = Float.abs (rs.Runner.loss_estimate -. truth) in
      Fmt.pr "estimate:    %.4f vs injector ground truth %.4f (err %.4f)@."
        rs.Runner.loss_estimate truth err;
      if err > tolerance then
        Verdict.fail v "loss estimate %.4f off injector truth %.4f by %.4f > %.2f"
          rs.Runner.loss_estimate truth err tolerance
    end
  | _ -> Verdict.fail v "resilience statistics missing");
  if not no_udp then begin
    Fmt.pr "-- UDP cluster (loopback, crash-restart under resilience)@.";
    let cs =
      udp_leg v ~resilience:policy ~seed ~view_size ~lower_threshold ~loss ~scenario
        ~udp_nodes ~base_port ~rounds ()
    in
    if declares "crash" scenario && cs.Sf_net.Driver.rejoins = 0 then
      Verdict.fail v "crash windows declared but no cluster rejoins"
  end;
  if multiproc then begin
    Fmt.pr "-- multi-process cluster (forked node-hosts, kill -9 crash windows)@.";
    let hosts = 4 and per_host = 16 in
    let cfg =
      Sf_net.Spawner.make_config ~view_size ~lower_threshold ~loss_rate:loss
        ~period:0.01 ~log:(fun m -> Fmt.pr "  %s@." m) ~hosts
        ~nodes_per_host:per_host ~base_port:(base_port + 256) ~scenario ~seed
        ~duration:(float_of_int rounds *. 0.01) ()
    in
    let o = Sf_net.Spawner.run cfg in
    Fmt.pr "processes:   %d kills, %d respawns, %d heartbeats, %.1fs wall@."
      o.Sf_net.Spawner.kills o.Sf_net.Spawner.respawns o.Sf_net.Spawner.heartbeats
      o.Sf_net.Spawner.wall_seconds;
    spawner_verdict v ~scenario ~hosts ~n:(hosts * per_host) ~view_size o
  end;
  Verdict.finish v "soak"

let soak_cmd =
  let multiproc_arg =
    Arg.(
      value & flag
      & info [ "multiproc" ]
          ~doc:
            "Add a multi-process leg: fork node-host processes via the cluster \
             spawner and run the same scenario across process boundaries, with \
             crash windows realized as real kill -9 plus respawn.")
  in
  let tolerance =
    Arg.(
      value & opt float 0.08
      & info [ "tolerance" ] ~docv:"E"
          ~doc:"Largest allowed |loss estimate - injector ground truth|.")
  in
  let doc =
    "Resilience soak: run the self-healing layer (online loss estimation, \
     adaptive (dL, s) retuning, supervised recovery) under a sustained chaos \
     scenario, through the audited simulator and the real UDP cluster with true \
     crash-restarts.  The verdict requires zero invariant violations, a \
     connected (or healed) overlay, a loss estimate within --tolerance of the \
     injector's ground-truth drop rate, and — when crash windows are declared — \
     at least one cluster rejoin.  Exit status: 0 when the verdict holds, 1 \
     when it fails, 2 when nothing failed but a declared fault class left no \
     process-level evidence in the --multiproc leg."
  in
  Cmd.v (Cmd.info "soak" ~doc)
    Term.(
      const soak $ seed_arg $ n_arg 96 $ view_size_arg 40 $ lower_threshold_arg 18
      $ d_hat_arg $ delta_arg $ loss_arg $ rounds_arg 200 $ scenario_arg $ tolerance
      $ udp_nodes_arg $ port_arg 48400 $ no_udp_arg $ multiproc_arg)

(* --- cluster: the multi-process UDP deployment --- *)

let cluster seed hosts per_host view_size lower_threshold loss scenario base_port
    rounds no_resilience quiet =
  let v = Verdict.create () in
  let n = hosts * per_host in
  let period = 0.01 in
  let scenario =
    match scenario with
    | Some sc -> sc
    | None ->
      (* Bursty loss throughout, plus a real kill -9 of host 1's slice for
         a fifth of the run. *)
      default_scenario
        (Fmt.str "ge:0.15:6;crash@%d-%d:%d-%d" (rounds * 2 / 10) (rounds * 4 / 10)
           per_host
           (min (n - 1) ((2 * per_host) - 1)))
  in
  Fmt.pr "cluster:     %d node-hosts x %d nodes = %d real sockets@."
    hosts per_host n;
  Fmt.pr "scenario:    %s@." (Sf_faults.Scenario.to_string scenario);
  let cfg =
    Sf_net.Spawner.make_config ~view_size ~lower_threshold ~loss_rate:loss
      ~period ~resilience:(not no_resilience)
      ~log:(if quiet then fun _ -> () else fun m -> Fmt.pr "  %s@." m)
      ~hosts ~nodes_per_host:per_host ~base_port ~scenario ~seed
      ~duration:(float_of_int rounds *. period) ()
  in
  let o = Sf_net.Spawner.run cfg in
  let emitted = sum_stat "emitted" o in
  let batches = sum_stat "batches" o in
  let frames = sum_stat "frames" o in
  let fill =
    if batches > 0. then frames /. (batches *. float_of_int Sf_net.Codec.max_batch)
    else 0.
  in
  Fmt.pr
    "processes:   %d kills, %d respawns (%d heartbeat timeouts, %d unexpected \
     deaths), %d heartbeats@."
    o.Sf_net.Spawner.kills o.Sf_net.Spawner.respawns o.Sf_net.Spawner.hb_timeouts
    o.Sf_net.Spawner.unexpected_deaths o.Sf_net.Spawner.heartbeats;
  Fmt.pr
    "wire:        %.0f datagrams (%.0f/s), %.0f batches carrying %.0f frames \
     (fill %.2f)@."
    emitted
    (emitted /. Float.max o.Sf_net.Spawner.wall_seconds 1e-9)
    batches frames fill;
  Fmt.pr "latency:     per-action p50 %.1fus, p99 %.1fus (worst host)@."
    (max_stat "p50_us" o) (max_stat "p99_us" o);
  spawner_verdict v ~scenario ~hosts ~n ~view_size o;
  Verdict.finish v "cluster"

let cluster_cmd =
  let hosts =
    Arg.(
      value & opt int 8
      & info [ "hosts" ] ~docv:"H" ~doc:"Node-host processes to fork.")
  in
  let per_host =
    Arg.(
      value & opt int 32
      & info [ "per-host" ] ~docv:"K" ~doc:"Nodes (UDP sockets) per host.")
  in
  let base_port =
    Arg.(
      value & opt int 47_200
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "First node port; node i binds PORT+i, control sockets sit just \
             below PORT.")
  in
  let no_resilience =
    Arg.(
      value & flag
      & info [ "no-resilience" ] ~doc:"Disable retuning and supervised repair.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress controller progress lines.")
  in
  let doc =
    "Multi-process UDP cluster: fork node-host processes (one select loop and \
     one socket per node each), drive a fault scenario across process \
     boundaries — crash windows are real kill -9 plus controller respawn, \
     partitions are per-process drop filters — and gate on the merged result: \
     every host completes the stop protocol, every node reports a sound view \
     with even M1-bounded outdegree, and the merged overlay is weakly \
     connected.  Exit status: 1 when the verdict fails, 2 when nothing failed \
     but a declared fault class left no process-level evidence."
  in
  Cmd.v (Cmd.info "cluster" ~doc)
    Term.(
      const cluster $ seed_arg $ hosts $ per_host $ view_size_arg 12
      $ lower_threshold_arg 4 $ loss_arg $ scenario_arg $ base_port $ rounds_arg 200
      $ no_resilience $ quiet)

(* --- sessions --- *)

let sessions seed n view_size lower_threshold loss rounds mean_lifetime pareto =
  let r = make_runner ~seed ~n ~view_size ~lower_threshold ~loss () in
  Runner.run_rounds r 100;
  let lifetime =
    if pareto then
      (* shape 1.5 with matching mean: minimum = mean / 3. *)
      Sf_core.Sessions.Pareto { shape = 1.5; minimum = mean_lifetime /. 3. }
    else Sf_core.Sessions.Exponential mean_lifetime
  in
  let arrival_rate = float_of_int n /. mean_lifetime in
  let driver =
    Sf_core.Sessions.create ~runner:r ~seed:(seed + 5) ~lifetime ~arrival_rate ()
  in
  Fmt.pr "session churn: %s lifetimes, mean %.0f rounds, %.2f arrivals/round@."
    (if pareto then "Pareto(1.5)" else "exponential")
    mean_lifetime arrival_rate;
  Sf_core.Sessions.run driver ~rounds;
  let stats = Sf_core.Sessions.statistics driver in
  Fmt.pr "rounds: %d, population: %d, joins: %d, leaves: %d, reconnections: %d@."
    stats.Sf_core.Sessions.rounds stats.Sf_core.Sessions.population
    stats.Sf_core.Sessions.joins stats.Sf_core.Sessions.leaves
    stats.Sf_core.Sessions.reconnections;
  print_system_state r

let sessions_cmd =
  let mean =
    Arg.(value & opt float 200. & info [ "mean-lifetime" ] ~docv:"R"
           ~doc:"Mean session length in rounds.")
  in
  let pareto =
    Arg.(value & flag & info [ "pareto" ] ~doc:"Heavy-tailed Pareto(1.5) lifetimes.")
  in
  let doc = "Run S&F under session-based churn (Poisson arrivals)." in
  Cmd.v (Cmd.info "sessions" ~doc)
    Term.(
      const sessions $ seed_arg $ n_arg 1000 $ view_size_arg 40 $ lower_threshold_arg 18
      $ loss_arg $ rounds_arg 400 $ mean $ pareto)

(* --- spread --- *)

let strategy_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Sf_spread.Strategy.of_string s) in
  Arg.conv ~docv:"STRATEGY" (parse, Sf_spread.Strategy.pp)

let print_spread_report n (r : Sf_spread.Report.t) =
  (match r.Sf_spread.Report.rounds_to_half with
  | Some rounds -> Fmt.pr "rounds to 50%%: %d@." rounds
  | None -> Fmt.pr "rounds to 50%%: not reached@.");
  (match r.Sf_spread.Report.rounds_to_target with
  | Some rounds ->
    Fmt.pr "rounds to target: %d  (log2 n = %.1f)@." rounds
      (log (float_of_int n) /. log 2.)
  | None -> Fmt.pr "rounds to target: not reached@.");
  Fmt.pr "messages: %d (pushes %d, requests %d), duplicates %d, lost %d, to \
          dead slots %d@."
    r.Sf_spread.Report.messages r.Sf_spread.Report.pushes
    r.Sf_spread.Report.requests r.Sf_spread.Report.duplicates
    r.Sf_spread.Report.lost r.Sf_spread.Report.to_dead;
  Sf_stats.Ascii_plot.series Fmt.stdout
    ("live coverage per round", r.Sf_spread.Report.coverage)

let spread seed n view_size lower_threshold loss scenario churn_rate headroom
    shards domains verify_domains warmup strategy fanout target max_rounds =
  let v = Verdict.create () in
  let config = Protocol.make_config ~view_size ~lower_threshold in
  let churn = sharded_churn ~n ~churn_rate ~headroom in
  let domains = resolve_domains ~shards domains in
  Fmt.pr "spread: %a fanout=%d n=%d target=%.2f loss=%g seed=%d shards=%d \
          domains=%d@."
    Sf_spread.Strategy.pp strategy fanout n target loss seed shards domains;
  (match scenario with
  | Some sc -> Fmt.pr "scenario: %a@." Sf_faults.Scenario.pp sc
  | None -> ());
  (* The scattered start mixes in O(log n) rounds; the ring start would
     keep the rumor crawling a 1-D cycle for thousands of rounds. *)
  let run k =
    let w =
      Verdict.world v "spread" (fun () ->
          Runner.Sharded.create ~shards ~loss_rate:loss
            ~init:Runner.Sharded.Scatter ?scenario ?churn ~seed ~n ~config ())
    in
    Runner.Sharded.run_rounds w ~domains:k warmup;
    let sp =
      Sf_spread.Flat.create ~coverage_target:target ~fanout ~strategy ~source:0
        ~seed:(seed + 6) w
    in
    (sp, Sf_spread.Flat.run ~max_rounds ~domains:k sp)
  in
  (* The layered engines replay the whole run, membership and spread. *)
  if verify_domains then
    domain_oracle v ~what:"spread"
      ~equal:(fun (sp1, r1) (sp2, r2) ->
        Sf_spread.Flat.equal sp1 sp2 && Sf_spread.Report.equal r1 r2)
      run;
  let sp, report = run domains in
  Option.iter
    (fun sc ->
      injector_verdict v sc
        (Runner.Sharded.fault_statistics (Sf_spread.Flat.world sp)))
    scenario;
  print_spread_report n report;
  if not (Sf_spread.Report.reached report) then
    Verdict.fail v "coverage target %.2f not reached in %d rounds" target max_rounds;
  Verdict.finish v "spread"

let spread_cmd =
  let strategy =
    Arg.(
      value
      & opt strategy_conv Sf_spread.Strategy.Push
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Spreading discipline: $(b,push) (informed nodes push to view \
             samples), $(b,push-pull) (uninformed nodes also pull — O(log n) \
             completion even under constant loss), or $(b,direct) (messages \
             carry learned addresses; informed nodes contact them directly, \
             outside the current view, and never re-contact recent peers).")
  in
  let fanout =
    Arg.(
      value & opt int 2
      & info [ "fanout" ] ~docv:"K"
          ~doc:"Spread messages per node per round.")
  in
  let warmup =
    Arg.(
      value & opt int 20
      & info [ "warmup" ] ~docv:"R"
          ~doc:"Membership rounds to run before the rumor starts.")
  in
  let target =
    Arg.(
      value & opt float 0.99
      & info [ "target" ] ~docv:"F" ~doc:"Live-coverage target in (0, 1].")
  in
  let max_rounds =
    Arg.(
      value & opt int 200
      & info [ "max-rounds" ] ~docv:"R"
          ~doc:"Spreading-round budget.")
  in
  let doc =
    "Spread a rumor over the live, evolving S&F views — push, push-pull or \
     direct-addressed — on the sharded million-node engine, under the \
     shared fault pipeline (bursty loss, partitions, crashes) and churn.  \
     Exit status: 1 when the engine refuses the world (say, a delay or \
     corrupt window), the coverage target is not reached or a determinism \
     cross-check fails, 2 when nothing failed but a declared fault class \
     left no evidence in the injector counters."
  in
  Cmd.v (Cmd.info "spread" ~doc)
    Term.(
      const spread $ seed_arg $ n_arg 10_000 $ view_size_arg 16
      $ lower_threshold_arg 4 $ loss_arg $ scenario_arg $ churn_arg 0.
      $ headroom_arg $ shards_arg 16 $ domains_arg $ verify_domains_arg
      $ warmup $ strategy $ fanout $ target $ max_rounds)

(* --- top --- *)

let format_conv =
  Arg.enum [ ("prom", `Prom); ("csv", `Csv); ("json", `Json) ]

let print_metrics format metrics =
  match format with
  | `Prom -> print_string (Sf_obs.Metrics.to_prometheus metrics)
  | `Csv -> print_string (Sf_obs.Metrics.to_csv metrics)
  | `Json ->
    print_string (Sf_obs.Json.to_string (Sf_obs.Metrics.to_json metrics));
    print_newline ()

let top seed n view_size lower_threshold loss rounds every format once scenario =
  let metrics = Sf_obs.Metrics.create () in
  let obs = Sf_obs.Obs.create ~metrics () in
  let r = make_runner ?scenario ~obs ~seed ~n ~view_size ~lower_threshold ~loss () in
  if once then begin
    Runner.run_rounds r rounds;
    print_metrics format metrics
  end
  else begin
    (* Refresh is keyed to simulation rounds, not wall time, so the output
       for a given seed is reproducible. *)
    let completed = ref 0 in
    while !completed < rounds do
      let chunk = min every (rounds - !completed) in
      Runner.run_rounds r chunk;
      completed := !completed + chunk;
      Fmt.pr "-- after %d/%d rounds@." !completed rounds;
      print_metrics format metrics
    done
  end

let top_cmd =
  let every =
    Arg.(
      value & opt int 100
      & info [ "every" ] ~docv:"K" ~doc:"Rounds between snapshots.")
  in
  let format =
    Arg.(
      value & opt format_conv `Prom
      & info [ "format" ] ~docv:"FMT" ~doc:"Snapshot format: prom, csv or json.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"Print a single snapshot after the full run and exit.")
  in
  let doc =
    "Run an instrumented S\\&F system and print registry snapshots (counters, \
     gauges, span histograms) in Prometheus text, CSV or JSON format.  Snapshots \
     are taken every K simulated rounds, so equal seeds print equal bytes."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(
      const top $ seed_arg $ n_arg 1000 $ view_size_arg 40 $ lower_threshold_arg 18
      $ loss_arg $ rounds_arg 400 $ every $ format $ once $ scenario_arg)

(* --- trace --- *)

let trace seed n view_size lower_threshold loss rounds capacity out scenario =
  let tracer = Sf_obs.Trace.create ~capacity in
  let obs = Sf_obs.Obs.create ~tracer () in
  let r = make_runner ?scenario ~obs ~seed ~n ~view_size ~lower_threshold ~loss () in
  Runner.run_rounds r rounds;
  let dump = Sf_obs.Trace.to_jsonl tracer in
  (* The JSONL goes to the file or stdout unadorned — equal seeds must dump
     byte-identical traces; accounting goes to stderr. *)
  (match out with
  | Some path -> Out_channel.with_open_text path (fun oc -> output_string oc dump)
  | None -> print_string dump);
  Fmt.epr "trace: %d recorded, %d held, %d dropped to wraparound%a@."
    (Sf_obs.Trace.recorded tracer)
    (Sf_obs.Trace.length tracer)
    (Sf_obs.Trace.dropped tracer)
    Fmt.(option (fun ppf p -> Fmt.pf ppf ", wrote %s" p))
    out

let trace_cmd =
  let capacity =
    Arg.(
      value & opt int 65536
      & info [ "capacity" ] ~docv:"C" ~doc:"Ring-buffer capacity in records.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the JSONL dump here instead of stdout.")
  in
  let doc =
    "Run a traced S\\&F system and dump the event ring (send, deliver, drop, \
     duplicate, delete, timer, fault transitions) as JSONL.  Records are stamped \
     with the injected simulation clock: equal seeds dump byte-identical traces."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const trace $ seed_arg $ n_arg 1000 $ view_size_arg 40 $ lower_threshold_arg 18
      $ loss_arg $ rounds_arg 50 $ capacity $ out $ scenario_arg)

(* --- scale --- *)

(* The sharded flat-state engine from the CLI: time a bulk-synchronous run
   at the requested n — optionally under a fault scenario, join/leave
   churn and the adaptive resilience stack — with the strict round-granular
   audit and/or a domain-count determinism cross-check on demand. *)
let scale seed n view_size lower_threshold loss rounds domains shards audit
    verify_domains scenario churn_rate headroom resilience d_hat delta =
  let v = Verdict.create () in
  let config = Protocol.make_config ~view_size ~lower_threshold in
  let churn = sharded_churn ~n ~churn_rate ~headroom in
  let make () =
    Verdict.world v "scale" (fun () ->
        Runner.Sharded.create ~shards ~loss_rate:loss ?scenario ?churn
          ?resilience:
            (if resilience then Some (resilience_policy ~d_hat ~delta ())
             else None)
          ~seed ~n ~config ())
  in
  let domains = resolve_domains ~shards domains in
  Fmt.pr "sharded run: n=%d s=%d dL=%d shards=%d domains=%d loss=%g seed=%d@." n
    view_size lower_threshold shards domains loss seed;
  (match scenario with
  | Some sc -> Fmt.pr "scenario:    %a@." Sf_faults.Scenario.pp sc
  | None -> ());
  (match churn with
  | Some c ->
    Fmt.pr "churn:       %.3f per round, headroom %d@." c.Runner.Sharded.churn_rate
      c.Runner.Sharded.headroom
  | None -> ());
  if audit then begin
    let stats =
      Sf_check.Invariant.audited_sharded_run ~mode:Sf_check.Invariant.Warn
        ~scan_every:10 ~domains (make ()) ~rounds
    in
    Fmt.pr "audit: %d rounds checked, %d full scans, %d violations@."
      stats.Sf_check.Invariant.actions_checked stats.Sf_check.Invariant.full_scans
      stats.Sf_check.Invariant.violation_count;
    List.iter
      (fun viol -> Fmt.pr "  %a@." Sf_check.Invariant.pp_violation viol)
      (List.rev stats.Sf_check.Invariant.violations);
    if stats.Sf_check.Invariant.violation_count > 0 then
      Verdict.fail v "%d invariant violations under the round-granular audit"
        stats.Sf_check.Invariant.violation_count
  end;
  if verify_domains then begin
    let run make k =
      let w = make () in
      Runner.Sharded.run_rounds w ~domains:k rounds;
      w
    in
    domain_oracle v ~what:"active config" ~equal:Runner.Sharded.equal (run make);
    (* The cross-check must also hold where it is hardest: stateful
       per-shard loss chains, a crash wave and churn all at once.  Run a
       canned chaos world even when the active config is fault-free. *)
    let canned =
      default_scenario (Fmt.str "ge:0.2:8;crash@2-6:0-%d" (max 1 (n / 10) - 1))
    in
    domain_oracle v ~what:"canned chaos" ~equal:Runner.Sharded.equal
      (run (fun () ->
           Runner.Sharded.create ~shards ~seed ~n ~config ~scenario:canned
             ~churn:{ Runner.Sharded.churn_rate = 0.01; headroom = shards * 8 }
             ()))
  end;
  let w = make () in
  let elapsed = Sf_obs.Clock.stopwatch ~clock:Sf_obs.Clock.wall in
  Runner.Sharded.run_rounds w ~domains rounds;
  let seconds = elapsed () in
  let c = Runner.Sharded.world_counters w in
  let rate =
    if seconds > 0. then float_of_int c.Runner.actions /. seconds else 0.
  in
  Fmt.pr "%d rounds in %.3fs: %.0f actions/s@." rounds seconds rate;
  Fmt.pr "actions:      %d@." c.Runner.actions;
  Fmt.pr "self-loops:   %d@." c.Runner.self_loops;
  Fmt.pr "sends:        %d@." c.Runner.sends;
  Fmt.pr "duplications: %d@." c.Runner.duplications;
  Fmt.pr "receipts:     %d@." c.Runner.receipts;
  Fmt.pr "deletions:    %d@." c.Runner.deletions;
  Fmt.pr "lost:         %d@." c.Runner.messages_lost;
  Fmt.pr "mean degree:  %.2f@."
    (float_of_int (Runner.Sharded.total_edges w) /. float_of_int n);
  let census = Census.of_flat (Runner.Sharded.store w) in
  Fmt.pr "census:       %a@." Census.pp census;
  let fs = Runner.Sharded.fault_statistics w in
  Option.iter print_fault_statistics fs;
  Option.iter (fun sc -> injector_verdict v sc fs) scenario;
  if churn <> None then begin
    let cs = Runner.Sharded.churn_statistics w in
    Fmt.pr
      "churn:       %d joins, %d leaves, %d donor-starved skips, %d waiting \
       for a slot, %d deliveries to dead slots; %d live@."
      cs.Runner.Sharded.joins cs.Runner.Sharded.leaves
      cs.Runner.Sharded.join_skips cs.Runner.Sharded.joins_waiting
      cs.Runner.Sharded.deliveries_to_dead (Runner.Sharded.live_count w);
    if cs.Runner.Sharded.joins = 0 then
      Verdict.dead v "churn declared but no node turned over"
  end;
  (match Runner.Sharded.resilience_statistics w with
  | Some rs ->
    print_resilience_stats rs;
    let dl, s = Runner.Sharded.live_thresholds w in
    Fmt.pr "thresholds:  dL=%d s=%d@." dl s;
    if not rs.Runner.estimator_confident then
      Verdict.fail v "loss estimator never folded a full window (%d rounds too short)"
        rounds
  | None -> ());
  (match Sf_obs.Clock.peak_rss_kb () with
  | Some kb -> Fmt.pr "peak RSS:     %d kB@." kb
  | None -> ());
  Verdict.finish v "scale"

let scale_cmd =
  let audit =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:
            "First replay the run under the round-granular invariant audit \
             (edge-conservation ledger every round, full structural scans); \
             exit 1 on any violation.")
  in
  let doc =
    "Run the sharded flat-state engine (packed views, OCaml 5 domains, \
     bulk-synchronous rounds) at large n and report throughput, counters, \
     dependence census and peak RSS.  Options add fault scenarios, churn and \
     the adaptive resilience stack, and cross-check the strict invariant \
     audit and the domain-count determinism contract (--verify-domains also \
     replays a canned chaos world: bursty loss, a crash wave, churn).  Exit \
     status: 1 on an audit or determinism failure, or when --resilience ends \
     with an unconfident loss estimator; 2 when nothing failed but a declared \
     fault class left no evidence in the injector counters or churn turned \
     no node over."
  in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(
      const scale $ seed_arg $ n_arg 100_000 $ view_size_arg 16
      $ lower_threshold_arg 4 $ loss_arg $ rounds_arg 10 $ domains_arg
      $ shards_arg 16 $ audit $ verify_domains_arg $ scenario_arg $ churn_arg 0.
      $ headroom_arg $ resilience_arg $ d_hat_arg $ delta_arg)

(* --- main --- *)

let () =
  let doc = "Send & Forget gossip membership: protocol, analysis, experiments." in
  let info = Cmd.info "sfg" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        simulate_cmd;
        degree_mc_cmd;
        thresholds_cmd;
        decay_cmd;
        alpha_cmd;
        temporal_cmd;
        connectivity_cmd;
        churn_cmd;
        baselines_cmd;
        global_mc_cmd;
        walk_cmd;
        quality_cmd;
        mixing_cmd;
        check_cmd;
        storm_cmd;
        soak_cmd;
        cluster_cmd;
        udp_cmd;
        sessions_cmd;
        spread_cmd;
        top_cmd;
        trace_cmd;
        scale_cmd;
      ]
  in
  exit (Cmd.eval group)
