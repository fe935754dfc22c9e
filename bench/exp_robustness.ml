(* Robustness experiments extending the paper's model where it explicitly
   stops:

   - N1: non-uniform message loss (section 4.1: "nonuniform loss occurs in
     practice, it is more difficult to model and analyze") — a population
     split into well-connected and lossy nodes with the same mean loss as a
     uniform baseline.
   - CH1: session-based churn (Poisson arrivals, exponential vs heavy-tailed
     Pareto lifetimes at equal mean) with the section 5 recovery rule.
   - R1: rumor dissemination over the evolving views (the Property M1
     motivation) on the flat spread engine, S&F vs a ring start of the
     same degree.
   - U1: the real-UDP deployment cross-checked against the simulator. *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Properties = Sf_core.Properties
module Census = Sf_core.Census
module Summary = Sf_stats.Summary

let config = Protocol.make_config ~view_size:40 ~lower_threshold:18

(* --- N1: non-uniform loss --- *)

let nonuniform_loss () =
  Output.section "N1" "Non-uniform message loss (beyond section 4.1's model)";
  Fmt.pr
    "n=1000, mean loss 5%% in both systems.  Uniform: every message drops@\n\
     with p=0.05.  Split: messages to the 500 \"lossy\" nodes drop with@\n\
     p=0.098, to the 500 \"clean\" nodes with p=0.002.  600 rounds.@.";
  let n = 1000 in
  let topology seed = Topology.regular (Sf_prng.Rng.create seed) ~n ~out_degree:30 in
  let uniform = Runner.create ~seed:201 ~n ~loss_rate:0.05 ~config ~topology:(topology 1) () in
  let lossy_node id = id < n && id mod 2 = 0 in
  let split =
    let scenario =
      Sf_faults.Scenario.make
        ~loss:
          (Sf_faults.Loss.Per_link
             (fun _ dst -> if lossy_node dst then 0.098 else 0.002))
        ()
    in
    Runner.create ~scenario ~seed:202 ~n ~loss_rate:0.05 ~config ~topology:(topology 2)
      ()
  in
  Runner.run_rounds uniform 300;
  Runner.run_rounds split 300;
  let base_u = Runner.world_counters uniform in
  let base_s = Runner.world_counters split in
  Runner.run_rounds uniform 300;
  Runner.run_rounds split 300;
  let rates_u = Runner.rates_since uniform base_u in
  let rates_s = Runner.rates_since split base_s in
  (* Per-class degree statistics in the split system. *)
  let split_store = Runner.store split and split_live = Runner.is_live split in
  let class_summary pred =
    let outs = Summary.create () and ins = Summary.create () in
    let indegree = Properties.indegree_samples split_store ~live:split_live in
    let outdegree = Properties.outdegree_samples split_store ~live:split_live in
    Array.iteri
      (fun i u ->
        if pred u then begin
          Summary.add_int outs outdegree.(i);
          Summary.add_int ins indegree.(i)
        end)
      (Runner.live_ids split);
    (outs, ins)
  in
  let lossy_out, lossy_in = class_summary lossy_node in
  let clean_out, clean_in = class_summary (fun id -> not (lossy_node id)) in
  let uniform_store = Runner.store uniform and uniform_live = Runner.is_live uniform in
  let all_u_out = Properties.outdegree_summary uniform_store ~live:uniform_live in
  Output.table
    [ "population"; "outdegree"; "indegree"; "dup rate"; "loss+del" ]
    [
      [
        "uniform 5% (all)";
        Fmt.str "%.1f±%.1f" (Summary.mean all_u_out) (Summary.std all_u_out);
        "-";
        Output.f4 rates_u.Runner.duplication;
        Output.f4 (rates_u.Runner.loss +. rates_u.Runner.deletion);
      ];
      [
        "split: lossy half (9.8%)";
        Fmt.str "%.1f±%.1f" (Summary.mean lossy_out) (Summary.std lossy_out);
        Fmt.str "%.1f±%.1f" (Summary.mean lossy_in) (Summary.std lossy_in);
        "-";
        "-";
      ];
      [
        "split: clean half (0.2%)";
        Fmt.str "%.1f±%.1f" (Summary.mean clean_out) (Summary.std clean_out);
        Fmt.str "%.1f±%.1f" (Summary.mean clean_in) (Summary.std clean_in);
        "-";
        "-";
      ];
      [
        "split (whole system)";
        "-";
        "-";
        Output.f4 rates_s.Runner.duplication;
        Output.f4 (rates_s.Runner.loss +. rates_s.Runner.deletion);
      ];
    ];
  let census_u = Census.of_flat uniform_store in
  let census_s = Census.of_flat split_store in
  Fmt.pr "  alpha: uniform %.3f, split %.3f;  connected: uniform %b, split %b@."
    census_u.Census.alpha census_s.Census.alpha
    (Properties.is_weakly_connected uniform_store ~live:uniform_live)
    (Properties.is_weakly_connected split_store ~live:split_live);
  Output.check "Lemma 6.6 balance holds globally under non-uniform loss"
    (Float.abs (rates_s.Runner.duplication -. rates_s.Runner.loss -. rates_s.Runner.deletion)
    < 0.01);
  Output.check "lossy nodes receive fewer messages, hence lower outdegree"
    (Summary.mean lossy_out < Summary.mean clean_out -. 1.);
  Output.check "the system stays connected despite the lossy half"
    (Properties.is_weakly_connected split_store ~live:split_live)

(* --- CH1: session churn --- *)

let session_churn () =
  Output.section "CH1" "Session-based churn: exponential vs Pareto lifetimes";
  Fmt.pr
    "Starting population 600; Poisson arrivals at 3 joins/round; mean@\n\
     session 200 rounds for both distributions (Pareto shape 1.5 has a@\n\
     heavy tail: many brief sessions, a few very long ones).  400 rounds@\n\
     with the section 5 recovery rule on.@.";
  let run lifetime seed =
    let n = 600 in
    let topology = Topology.regular (Sf_prng.Rng.create (seed + 1)) ~n ~out_degree:30 in
    let r = Runner.create ~seed ~n ~loss_rate:0.01 ~config ~topology () in
    Runner.run_rounds r 100;
    let sessions =
      Sf_core.Sessions.create ~runner:r ~seed:(seed + 2) ~lifetime ~arrival_rate:3. ()
    in
    Sf_core.Sessions.run sessions ~rounds:400;
    let stats = Sf_core.Sessions.statistics sessions in
    let store = Runner.store r and live = Runner.is_live r in
    let outs = Properties.outdegree_summary store ~live in
    let census = Census.of_flat store in
    ( stats,
      outs,
      census,
      Properties.is_weakly_connected store ~live,
      List.length (Runner.isolated_nodes r) )
  in
  let exp_stats, exp_out, exp_census, exp_conn, exp_iso =
    run (Sf_core.Sessions.Exponential 200.) 301
  in
  let par_stats, par_out, par_census, par_conn, par_iso =
    run (Sf_core.Sessions.Pareto { shape = 1.5; minimum = 200. /. 3. }) 302
  in
  let row name (stats : Sf_core.Sessions.statistics) outs census connected isolated =
    [
      name;
      Output.i stats.Sf_core.Sessions.population;
      Output.i stats.Sf_core.Sessions.joins;
      Output.i stats.Sf_core.Sessions.leaves;
      Output.i stats.Sf_core.Sessions.reconnections;
      Fmt.str "%.1f±%.1f" (Summary.mean outs) (Summary.std outs);
      Output.f3 census.Census.alpha;
      string_of_bool connected;
      Output.i isolated;
    ]
  in
  Output.table
    [ "lifetimes"; "population"; "joins"; "leaves"; "reconn"; "outdegree"; "alpha"; "connected"; "isolated" ]
    [
      row "exponential (mean 200r)" exp_stats exp_out exp_census exp_conn exp_iso;
      row "Pareto 1.5 (mean 200r)" par_stats par_out par_census par_conn par_iso;
    ];
  Output.check "healthy degrees under both churn models"
    (Summary.mean exp_out > 18. && Summary.mean par_out > 18.);
  Output.check "no isolated nodes with recovery on" (exp_iso = 0 && par_iso = 0);
  Output.check "both populations hover near arrivals x mean lifetime"
    (abs (exp_stats.Sf_core.Sessions.population - 600) < 200
    && abs (par_stats.Sf_core.Sessions.population - 600) < 250)

(* --- R1: dissemination --- *)

let dissemination () =
  Output.section "R1" "Rumor dissemination over evolving views (Property M1 motivation)";
  Fmt.pr
    "Push epidemic (Sf_spread.Flat), fanout 2, loss 5%%: rounds for one@\n\
     rumor to reach 99%% of 1000 nodes, S&F steady-state views vs a ring@\n\
     of the same degree (log-n vs linear spreading).@.";
  let n = 1000 in
  (* Both worlds start as the same degree-30 ring; the S&F one runs 200
     protocol rounds first.  The ring's rumor starts at once, so it
     spreads while the protocol heals the ring into an expander: the
     crawl shows in its early coverage, the healed spread after. *)
  let push ~seed ~warmup =
    let w =
      Runner.Sharded.create ~shards:16 ~init:Runner.Sharded.Ring ~init_degree:30
        ~loss_rate:0.05 ~seed ~n ~config ()
    in
    Runner.Sharded.run_rounds w warmup;
    Sf_spread.Flat.run ~domains:1
      (Sf_spread.Flat.create ~strategy:Sf_spread.Strategy.Push ~fanout:2
         ~source:0 ~seed:(seed + 1) w)
  in
  let sf_trace = push ~seed:402 ~warmup:200 in
  let ring_trace = push ~seed:404 ~warmup:0 in
  let show name (t : Sf_spread.Report.t) =
    [
      name;
      (match t.Sf_spread.Report.rounds_to_half with Some r -> Output.i r | None -> ">200");
      (match t.Sf_spread.Report.rounds_to_target with Some r -> Output.i r | None -> ">200");
      Output.i t.Sf_spread.Report.pushes;
    ]
  in
  Output.table
    [ "views"; "rounds to 50%"; "rounds to 99%"; "pushes" ]
    [ show "S&F steady state" sf_trace; show "ring start (healing)" ring_trace ];
  Output.subsection "coverage curve (S&F views)";
  Sf_stats.Ascii_plot.series Fmt.stdout
    ("infected fraction", sf_trace.Sf_spread.Report.coverage);
  (match sf_trace.Sf_spread.Report.rounds_to_target with
  | Some rounds ->
    Output.check
      (Fmt.str "rumor reaches 99%% in %d rounds ~ O(log n) (log2 1000 = 10)" rounds)
      (rounds <= 30)
  | None -> Output.check "rumor reaches 99%" false);
  let sf_half =
    Option.value ~default:max_int sf_trace.Sf_spread.Report.rounds_to_half
  in
  let ring_half =
    Option.value ~default:max_int ring_trace.Sf_spread.Report.rounds_to_half
  in
  Output.check "S&F views spread at least as fast as the healing ring"
    (sf_half <= ring_half)

(* --- U1: UDP deployment cross-check --- *)

let udp_crosscheck () =
  Output.section "U1" "Real-UDP deployment vs simulator";
  Fmt.pr
    "96 nodes on loopback UDP datagrams (s=18, dL=4, 5%% injected loss,@\n\
     4 wall-clock seconds) against the sequential simulator at matched@\n\
     parameters and action count.@.";
  let t = Sf_analysis.Thresholds.select ~d_hat:12 ~delta:0.01 in
  let small_config = Sf_analysis.Thresholds.to_config t in
  let n = 96 in
  let topology = Topology.regular (Sf_prng.Rng.create 501) ~n ~out_degree:t.d_hat in
  let cluster =
    Sf_net.Driver.create ~period:0.004 ~base_port:46000 ~n ~config:small_config
      ~loss_rate:0.05 ~seed:502 ~topology ()
  in
  Fun.protect
    ~finally:(fun () -> Sf_net.Driver.shutdown cluster)
    (fun () ->
      Sf_net.Driver.run cluster ~duration:4.0;
      let stats = Sf_net.Driver.statistics cluster in
      let rounds = stats.Sf_net.Driver.actions / n in
      let sim = Runner.create ~seed:503 ~n ~loss_rate:0.05 ~config:small_config ~topology () in
      Runner.run_rounds sim rounds;
      (* The cluster owns the whole id space: row u of its store is node
         u, and every row is live. *)
      assert (Sf_net.Driver.first cluster = 0);
      let udp_store = Sf_net.Driver.store cluster and udp_live _ = true in
      let sim_store = Runner.store sim and sim_live = Runner.is_live sim in
      let udp_out = Properties.outdegree_summary udp_store ~live:udp_live in
      let sim_out = Properties.outdegree_summary sim_store ~live:sim_live in
      let udp_census = Census.of_flat udp_store in
      let sim_census = Census.of_flat sim_store in
      Output.table
        [ "runtime"; "actions"; "outdegree"; "alpha"; "connected" ]
        [
          [
            "UDP datagrams";
            Output.i stats.Sf_net.Driver.actions;
            Fmt.str "%.2f±%.2f" (Summary.mean udp_out) (Summary.std udp_out);
            Output.f3 udp_census.Census.alpha;
            string_of_bool (Properties.is_weakly_connected udp_store ~live:udp_live);
          ];
          [
            "simulator";
            Output.i (Runner.action_count sim);
            Fmt.str "%.2f±%.2f" (Summary.mean sim_out) (Summary.std sim_out);
            Output.f3 sim_census.Census.alpha;
            string_of_bool (Properties.is_weakly_connected sim_store ~live:sim_live);
          ];
        ];
      Fmt.pr "  UDP: %d messages sent, %d dropped (injected), %d received, %d codec errors@."
        stats.Sf_net.Driver.datagrams_sent stats.Sf_net.Driver.datagrams_dropped
        stats.Sf_net.Driver.messages_received stats.Sf_net.Driver.decode_errors;
      Output.check "no codec or socket errors over the real transport"
        (stats.Sf_net.Driver.decode_errors = 0 && stats.Sf_net.Driver.send_errors = 0);
      Output.check
        (Fmt.str "degree behaviour matches the simulator (%.1f vs %.1f)"
           (Summary.mean udp_out) (Summary.mean sim_out))
        (Float.abs (Summary.mean udp_out -. Summary.mean sim_out) < 2.))
