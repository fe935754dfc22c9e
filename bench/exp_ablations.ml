(* Ablations of the design decisions called out in DESIGN.md: the
   sequential-action scheduler vs timed execution, the size-biased sender
   weighting inside the degree MC, the duplication mechanism itself, and
   the section 5 optimization variants. *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Properties = Sf_core.Properties
module Variants = Sf_core.Variants
module Census = Sf_core.Census
module Degree_mc = Sf_analysis.Degree_mc
module Summary = Sf_stats.Summary
module Pmf = Sf_stats.Pmf

let config = Protocol.make_config ~view_size:40 ~lower_threshold:18

let make_system ~seed ~n ~loss =
  let rng = Sf_prng.Rng.create (seed + 1) in
  let topology = Topology.regular rng ~n ~out_degree:30 in
  Runner.create ~seed ~n ~loss_rate:loss ~config ~topology ()

(* The analysis assumes a central sequential scheduler; real deployments run
   concurrent timers over a delaying network. Compare the degree statistics
   under both. *)
let ablation_scheduler () =
  Output.section "A1" "Ablation: sequential-action model vs timed execution";
  Fmt.pr
    "n=800, loss=2%%.  Sequential: 500 rounds of the central scheduler.@\n\
     Timed: Poisson(1) initiations per node over the latency-ful network@\n\
     for 500 time units (same expected action count), messages in flight@\n\
     and concurrent actions included.@.";
  let loss = 0.02 in
  let seq = make_system ~seed:31 ~n:800 ~loss in
  Runner.run_rounds seq 500;
  let timed = make_system ~seed:32 ~n:800 ~loss in
  Runner.start_timed timed (Runner.Poisson 1.0);
  Runner.run_until timed 500.;
  let line name r =
    let store = Runner.store r and live = Runner.is_live r in
    let o = Properties.outdegree_summary store ~live in
    let i = Properties.indegree_summary store ~live in
    let census = Census.of_flat store in
    [
      name;
      Fmt.str "%.2f±%.2f" (Summary.mean o) (Summary.std o);
      Fmt.str "%.2f±%.2f" (Summary.mean i) (Summary.std i);
      Output.f3 census.Census.alpha;
      string_of_bool (Properties.is_weakly_connected store ~live);
    ]
  in
  Output.table
    [ "scheduler"; "outdegree"; "indegree"; "alpha"; "connected" ]
    [ line "sequential (analysis model)" seq; line "timed (practical model)" timed ];
  let mean_indegree r =
    Summary.mean (Properties.indegree_summary (Runner.store r) ~live:(Runner.is_live r))
  in
  let seq_mean = mean_indegree seq and timed_mean = mean_indegree timed in
  Output.check
    (Fmt.str "degree behaviour transfers across schedulers (means %.1f vs %.1f)"
       seq_mean timed_mean)
    (Float.abs (seq_mean -. timed_mean) < 2.)

(* The degree MC weights senders by outdegree (a random in-edge lives at a
   high-outdegree node); the naive model does not. Compare both against the
   simulation. *)
let ablation_sender_weighting () =
  Output.section "A2" "Ablation: size-biased vs uniform sender weighting in the degree MC";
  Fmt.pr "dL=18, s=40, loss=5%%, against a 1000-node simulation (600 rounds).@.";
  let loss = 0.05 in
  let weighted =
    Degree_mc.solve (Degree_mc.make_params ~view_size:40 ~lower_threshold:18 ~loss ())
  in
  let uniform =
    Degree_mc.solve
      (Degree_mc.make_params ~weighting:Degree_mc.Uniform ~view_size:40 ~lower_threshold:18
         ~loss ())
  in
  let sim = make_system ~seed:41 ~n:1000 ~loss in
  Runner.run_rounds sim 600;
  let store = Runner.store sim and live = Runner.is_live sim in
  let sim_in = Properties.indegree_summary store ~live in
  let sim_in_pmf = Sf_stats.Pmf.of_samples (Properties.indegree_samples store ~live) in
  let line name (mc : Degree_mc.result) =
    [
      name;
      Fmt.str "%.2f±%.2f" (Pmf.mean mc.Degree_mc.indegree) (Pmf.std mc.Degree_mc.indegree);
      Output.f4 mc.Degree_mc.duplication_probability;
      Output.f4 (Pmf.tv_distance mc.Degree_mc.indegree sim_in_pmf);
    ]
  in
  Output.table
    [ "model"; "indegree"; "dup prob"; "TVD vs simulation" ]
    [
      line "size-biased (paper, ours)" weighted;
      line "uniform (naive)" uniform;
      [
        "simulation";
        Fmt.str "%.2f±%.2f" (Summary.mean sim_in) (Summary.std sim_in);
        "-";
        "0.0000";
      ];
    ];
  let tvd_w = Pmf.tv_distance weighted.Degree_mc.indegree sim_in_pmf in
  let tvd_u = Pmf.tv_distance uniform.Degree_mc.indegree sim_in_pmf in
  Output.check
    (Fmt.str "size-biased weighting fits the simulation at least as well (%.3f vs %.3f)"
       tvd_w tvd_u)
    (tvd_w <= tvd_u +. 0.01)

(* Why duplication exists: disable it (dL = 0) under loss and watch the
   edges drain, exactly the scenario of section 5. *)
let ablation_duplication () =
  Output.section "A3" "Ablation: duplication disabled (dL=0) under loss";
  Fmt.pr
    "n=500, s=40, loss=5%%.  With dL=0 S&F never duplicates, so every lost@\n\
     message permanently destroys two entries (the shuffle failure mode);@\n\
     with dL=18 duplication compensates.@.";
  let n = 500 and loss = 0.05 in
  let topology seed = Topology.regular (Sf_prng.Rng.create seed) ~n ~out_degree:20 in
  let run lower_threshold seed =
    let config = Protocol.make_config ~view_size:40 ~lower_threshold in
    let r = Runner.create ~seed ~n ~loss_rate:loss ~config ~topology:(topology seed) () in
    let edges t = Sf_graph.Digraph.edge_count (Runner.membership_graph t) in
    let initial = edges r in
    (* The drain is slow once degrees shrink (the send rate falls with
       d^2), so the horizon must be long. *)
    let checkpoints =
      List.map
        (fun chunk ->
          Runner.run_rounds r chunk;
          edges r)
        [ 200; 200; 400; 400 ]
    in
    ( initial,
      Array.of_list checkpoints,
      Properties.is_weakly_connected (Runner.store r) ~live:(Runner.is_live r) )
  in
  let i0, with_dup, conn_dup = run 18 51 in
  let j0, without_dup, conn_nodup = run 0 52 in
  Output.table
    [ "rounds"; "edges (dL=18)"; "edges (dL=0)" ]
    ([ [ "0"; Output.i i0; Output.i j0 ] ]
    @ List.mapi
        (fun idx rounds ->
          [
            Output.i rounds;
            Output.i with_dup.(idx);
            Output.i without_dup.(idx);
          ])
        [ 200; 400; 800; 1200 ]);
  Fmt.pr "  connectivity after 1200 rounds: dL=18 %b, dL=0 %b@." conn_dup conn_nodup;
  Output.check "duplication preserves the edge population" (with_dup.(3) > i0 / 2);
  Output.check "without duplication the edges drain away" (without_dup.(3) < j0 / 2)

(* The section 5 joining/reconnection rule under severe churn: without it,
   nodes whose neighborhoods die out isolate permanently; with it (the
   repair pass, [Runner.repair]: a lone node probes previously seen ids,
   every other straggler copies a donor of the largest component) everyone
   stays attached. *)
let ablation_reconnection () =
  Output.section "A5" "Ablation: the section 5 reconnection rule under severe churn";
  Fmt.pr
    "n=300, s=12, dL=4, loss=2%%; 120 rounds of churn replacing ~80%% of the@\n\
     population (2 joins + 2 leaves per round).  Without recovery some@\n\
     nodes end up alone in their component: no live id in their view and@\n\
     their id in no live view.  The section 5 repair pass (a lone node probes@\n\
     previously seen ids, every other straggler copies a view from the@\n\
     largest component) eliminates them.@.";
  let run ~recover seed =
    let config = Protocol.make_config ~view_size:12 ~lower_threshold:4 in
    let topology = Topology.regular (Sf_prng.Rng.create (seed + 3)) ~n:300 ~out_degree:4 in
    let r = Runner.create ~seed ~n:300 ~loss_rate:0.02 ~config ~topology () in
    Runner.run_rounds r 100;
    let repairs =
      Sf_core.Churn.run_with_churn ~recover r ~rounds:120 ~joins:2 ~leaves:2
    in
    Runner.run_rounds r 10;
    (List.length (Runner.isolated_nodes r), repairs,
     Properties.is_weakly_connected (Runner.store r) ~live:(Runner.is_live r))
  in
  (* Whether a node isolates depends on the world, so the section runs
     30 worlds (world k seeded 121 + k) and counts them, as the churn
     test "reconnection heals starvation" does with its own worlds. *)
  let worlds = 30 in
  let arm ~recover =
    List.init worlds (fun k -> run ~recover (121 + k))
  in
  let off = arm ~recover:false and on = arm ~recover:true in
  let count f results = List.length (List.filter f results) in
  let sum f results = List.fold_left (fun acc x -> acc + f x) 0 results in
  let isolating = count (fun (iso, _, _) -> iso > 0) in
  let connected = count (fun (_, _, conn) -> conn) in
  let row name results =
    [
      name;
      Output.i (isolating results);
      Output.i (sum (fun (iso, _, _) -> iso) results);
      Output.i (sum (fun (_, repairs, _) -> repairs) results);
      Output.i (connected results);
    ]
  in
  Output.table
    [ "recovery"; "worlds isolating"; "isolated nodes"; "repairs"; "worlds connected" ]
    [ row "off" off; row "on" on ];
  Output.check
    (Fmt.str
       "severe churn isolates nodes without recovery in %d of %d worlds (the \
        caveat is real; >= 5)"
       (isolating off) worlds)
    (isolating off >= 5);
  Output.check
    (Fmt.str "the repair pass leaves no isolated node in %d of %d worlds (>= 24)"
       (worlds - isolating on) worlds)
    (worlds - isolating on >= 24);
  Output.check
    (Fmt.str "with recovery the graph ends connected in %d of %d worlds (>= 5)"
       (connected on) worlds)
    (connected on >= 5)

(* The section 5 optimization variants. *)
let ablation_variants () =
  Output.section "A4" "Ablation: section 5 optimization variants";
  Fmt.pr
    "n=800, s=40, dL=18, loss=5%%, 400 rounds.  Standard S&F vs the three@\n\
     optimizations the paper sketches and defers.@.";
  let n = 800 and loss = 0.05 in
  let topology seed = Topology.regular (Sf_prng.Rng.create seed) ~n ~out_degree:20 in
  let run name options seed =
    let v =
      Variants.create ~seed ~n ~view_size:40 ~lower_threshold:18 ~loss_rate:loss ~options
        ~topology:(topology seed)
    in
    Variants.run_rounds v 400;
    let store = Variants.store v and live _ = true in
    let o = Properties.outdegree_summary store ~live in
    let census = Census.of_flat store in
    let k = Variants.counters v in
    ( name,
      [
        name;
        Fmt.str "%.2f±%.2f" (Summary.mean o) (Summary.std o);
        Output.f3 census.Census.alpha;
        Output.i k.Variants.duplications;
        Output.i k.Variants.undeletions;
        Output.i k.Variants.deletions;
        string_of_bool (Properties.is_weakly_connected store ~live);
      ],
      census.Census.alpha )
  in
  let results =
    [
      run "standard" Variants.standard 61;
      run "mark-and-undelete" { Variants.standard with mark_and_undelete = true } 62;
      run "replace-when-full" { Variants.standard with replace_when_full = true } 63;
      run "batch=3" { Variants.standard with batch = 3 } 64;
    ]
  in
  Output.table
    [ "variant"; "outdegree"; "alpha"; "dups"; "undeletes"; "deletes"; "connected" ]
    (List.map (fun (_, row, _) -> row) results);
  let alpha name = let _, _, a = List.find (fun (n', _, _) -> n' = name) results in a in
  Output.check "mark-and-undelete improves independence over standard"
    (alpha "mark-and-undelete" > alpha "standard")
