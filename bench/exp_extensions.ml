(* Extension experiments beyond the paper's evaluation, each grounded in a
   claim the paper makes in passing:

   - G1: the membership graph's expander quality (section 2's motivation
     for uniform independent views: low diameter, robustness).
   - M1: mixing diagnostics of the degree MC (the computational face of
     temporal independence).
   - B3: persistent min-wise samples (Brahms, section 3.1) vs evolving S&F
     views — uniformity vs temporal independence.
   - B4: Cyclon's age-based target selection vs plain shuffle under churn
     (dead-id purging), and both vs S&F under loss.
   - P1: partition healing — two separately converged systems joined by a
     handful of edges blend into one uniform membership. *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Properties = Sf_core.Properties
module Baselines = Sf_core.Baselines
module Minwise = Sf_core.Minwise
module View = Sf_core.View
module Quality = Sf_graph.Quality
module Summary = Sf_stats.Summary

let config = Protocol.make_config ~view_size:40 ~lower_threshold:18

let make_system ~seed ~n ~loss =
  let rng = Sf_prng.Rng.create (seed + 1) in
  let topology = Topology.regular rng ~n ~out_degree:30 in
  Runner.create ~seed ~n ~loss_rate:loss ~config ~topology ()

(* --- G1: expander quality --- *)

let graph_quality () =
  Output.section "G1" "Membership-graph quality (the section 2 expander motivation)";
  Fmt.pr
    "n=1000.  The steady-state S&F graph against a ring lattice with the@\n\
     same degree: diameter, average path length, clustering, and the giant@\n\
     component after random node removals.@.";
  let n = 1000 in
  let r = make_system ~seed:71 ~n ~loss:0.01 in
  Runner.run_rounds r 300;
  let sf_graph = Runner.membership_graph r in
  let ring_graph =
    let g = Sf_graph.Digraph.create () in
    let topo = Topology.ring ~n ~out_degree:27 in
    for u = 0 to n - 1 do
      Sf_graph.Digraph.ensure_vertex g u;
      List.iter (fun v -> Sf_graph.Digraph.add_edge g u v) (topo u)
    done;
    g
  in
  let rng = Sf_prng.Rng.create 72 in
  let describe name g =
    let paths = Quality.path_statistics ~sources:24 (Sf_prng.Rng.split rng) g in
    let clustering = Quality.clustering_coefficient g in
    ( name,
      paths,
      clustering,
      Quality.robustness_profile (Sf_prng.Rng.split rng) g
        ~removal_fractions:[ 0.1; 0.3; 0.5; 0.7 ] )
  in
  let rows = [ describe "S&F steady state" sf_graph; describe "ring lattice" ring_graph ] in
  Output.table
    [ "graph"; "diameter"; "avg path"; "clustering"; "giant@10%"; "giant@30%"; "giant@50%"; "giant@70%" ]
    (List.map
       (fun (name, paths, clustering, robustness) ->
         [ name; Output.i paths.Quality.estimated_diameter;
           Output.f2 paths.Quality.average_path_length; Output.f4 clustering ]
         @ List.map (fun (_, giant) -> Output.f3 giant) robustness)
       rows);
  let sf_paths, ring_paths =
    match rows with
    | [ (_, a, _, _); (_, b, _, _) ] -> (a, b)
    | _ -> assert false
  in
  Output.check "S&F diameter is logarithmic-scale (far below the lattice)"
    (sf_paths.Quality.estimated_diameter * 5 < ring_paths.Quality.estimated_diameter);
  let sf_robust =
    match rows with
    | [ (_, _, _, rob); _ ] -> List.assoc 0.5 rob
    | _ -> assert false
  in
  Output.check
    (Fmt.str "S&F survives 50%% random removals as one component (%.3f)" sf_robust)
    (sf_robust > 0.99)

(* --- M1: mixing of the degree MC --- *)

let degree_mc_mixing () =
  Output.section "M1" "Mixing diagnostics of the degree Markov chain";
  Fmt.pr
    "Per-state relaxation of the section 6.2 chain (dL=18, s=40): |lambda2|@\n\
     by the deflated power method, relaxation time, and distance profiles@\n\
     from extreme starting states.  One MC step = one action touching the@\n\
     tagged node (uniformized), so these are per-node timescales.@.";
  let rng = Sf_prng.Rng.create 73 in
  let rows =
    List.map
      (fun loss ->
        let mc =
          Sf_analysis.Degree_mc.solve
            (Sf_analysis.Degree_mc.make_params ~view_size:40 ~lower_threshold:18 ~loss ())
        in
        let chain = Sf_analysis.Degree_mc.to_chain mc in
        let lambda =
          Sf_markov.Mixing.second_eigenvalue_estimate chain
            ~stationary:mc.Sf_analysis.Degree_mc.joint
            ~uniform:(fun () -> Sf_prng.Rng.float rng)
        in
        (loss, mc, chain, lambda))
      [ 0.01; 0.05 ]
  in
  Output.table
    [ "loss"; "|lambda2|"; "relaxation (steps)" ]
    (List.map
       (fun (loss, _, _, lambda) ->
         [
           Output.f2 loss;
           Output.f4 lambda;
           (if lambda >= 1. then "inf" else Output.f2 (1. /. (1. -. lambda)));
         ])
       rows);
  (match rows with
  | (_, mc, chain, _) :: _ ->
    let size = Sf_markov.Chain.size chain in
    (* Start from the corner states: minimal and maximal degrees. *)
    let state_index target =
      let found = ref 0 in
      Array.iteri
        (fun i st -> if st = target then found := i)
        mc.Sf_analysis.Degree_mc.states;
      !found
    in
    let extremes =
      [ ("start (18,0)", state_index (18, 0)); ("start (40,40)", state_index (40, 40)) ]
    in
    let checkpoints = [ 0; 50; 100; 200; 400; 800; 1600 ] in
    Output.subsection "TVD to stationarity from extreme states";
    Output.table
      ([ "steps" ] @ List.map fst extremes)
      (List.map
         (fun step ->
           Output.i step
           :: List.map
                (fun (_, idx) ->
                  let profile =
                    Sf_markov.Mixing.distance_profile chain
                      ~initial:(Sf_markov.Chain.point_distribution ~size idx)
                      ~stationary:mc.Sf_analysis.Degree_mc.joint ~checkpoints:[ step ]
                  in
                  Output.f3 profile.Sf_markov.Mixing.tv_distances.(0))
                extremes)
         checkpoints);
    let lambda = (match rows with (_, _, _, l) :: _ -> l | [] -> 1.) in
    Output.check "chain contracts (|lambda2| < 1)" (lambda < 1.)
  | [] -> ())

(* --- B3: min-wise samples vs evolving views --- *)

let minwise_vs_views () =
  Output.section "B3" "Persistent min-wise samples (Brahms) vs evolving views";
  Fmt.pr
    "n=600, loss=1%%.  Each node feeds its view stream through 8 min-wise@\n\
     samplers.  Uniformity: both mechanisms pass; temporal independence:@\n\
     converged samples freeze while views keep evolving — the section 3.1@\n\
     trade-off.@.";
  let n = 600 in
  let r = make_system ~seed:81 ~n ~loss:0.01 in
  Runner.run_rounds r 100;
  let fleet = Minwise.create_fleet (Sf_prng.Rng.create 82) ~k:8 in
  (* Convergence phase: long enough for each node's stream to have covered
     most of the id space, so the min-hash winners are mostly final. *)
  for _ = 1 to 400 do
    Runner.run_rounds r 1;
    Minwise.feed_from_views fleet r
  done;
  let reference = Minwise.raw_snapshot fleet in
  let view_reference = Hashtbl.create n in
  let sorted_ids u = List.sort compare (View.ids (View.copy_row (Runner.store r) u)) in
  Array.iter
    (fun u -> Hashtbl.replace view_reference u (sorted_ids u))
    (Runner.live_ids r);
  (* Another 100 rounds of evolution. *)
  for _ = 1 to 100 do
    Runner.run_rounds r 1;
    Minwise.feed_from_views fleet r
  done;
  let frozen = Minwise.unchanged_fraction fleet ~reference in
  let views_frozen =
    let unchanged = ref 0 and total = ref 0 in
    Array.iter
      (fun u ->
        match Hashtbl.find_opt view_reference u with
        | None -> ()
        | Some old ->
          incr total;
          if sorted_ids u = old then incr unchanged)
      (Runner.live_ids r);
    float_of_int !unchanged /. float_of_int (max 1 !total)
  in
  (* Uniformity of the sampler outputs. *)
  let counts = Array.make n 0. in
  Hashtbl.iter
    (fun _ samples ->
      List.iter (fun id -> if id < n then counts.(id) <- counts.(id) +. 1.) samples)
    (Minwise.snapshot fleet);
  let chi = Sf_stats.Hypothesis.chi_square_uniform counts in
  Output.table
    [ "metric"; "min-wise samples"; "S&F views" ]
    [
      [ "unchanged after 100 rounds"; Output.f3 frozen; Output.f3 views_frozen ];
      [ "uniformity p-value"; Output.f4 chi.Sf_stats.Hypothesis.p_value; "(see L7.6)" ];
    ];
  Output.check "samples are near-uniform (p > 0.001)"
    (chi.Sf_stats.Hypothesis.p_value > 0.001);
  Output.check
    (Fmt.str "samples persist (%.2f frozen) while views evolve (%.2f frozen)" frozen
       views_frozen)
    (frozen > 0.7 && views_frozen < 0.05)

(* --- B4: Cyclon's age rule under churn --- *)

let cyclon_age_rule () =
  Output.section "B4" "Cyclon's age-based target selection under churn";
  Fmt.pr
    "n=400, s=40, no loss; rolling churn (one kill per round, 40-node dead@\n\
     window, revived nodes re-bootstrap with 20 ids), 150 rounds, averaged@\n\
     over 3 seeds.  Age-based (oldest-first) targeting purges entries@\n\
     pointing at dead nodes faster than random targeting — and both@\n\
     delete-on-send protocols bleed edges from exchanges aimed at dead@\n\
     nodes, the fragility section 3.1 attributes to them.@.";
  let n = 400 in
  let topology seed = Topology.regular (Sf_prng.Rng.create seed) ~n ~out_degree:20 in
  let run kind seed =
    let b =
      Baselines.create ~seed ~n ~view_size:40 ~loss_rate:0. ~kind ~topology:(topology seed)
    in
    let churn_rng = Sf_prng.Rng.create (seed + 7) in
    Baselines.run_rounds b 50;
    let dead_queue = Queue.create () in
    for _round = 1 to 150 do
      let rec pick_live () =
        let candidate = Sf_prng.Rng.int churn_rng n in
        if Baselines.is_dead b candidate then pick_live () else candidate
      in
      let victim = pick_live () in
      Baselines.kill b victim;
      Queue.push victim dead_queue;
      if Queue.length dead_queue > 40 then
        Baselines.revive b (Queue.pop dead_queue) ~bootstrap:20;
      Baselines.run_rounds b 1
    done;
    (Baselines.dead_entry_fraction b, Baselines.total_instances b)
  in
  let average kind seeds =
    let results = List.map (run kind) seeds in
    let stale =
      List.fold_left (fun acc (st, _) -> acc +. st) 0. results
      /. float_of_int (List.length results)
    in
    let edges =
      List.fold_left (fun acc (_, e) -> acc + e) 0 results / List.length results
    in
    (stale, edges)
  in
  let seeds = [ 91; 191; 391 ] in
  let shuffle_stale, shuffle_edges = average (Baselines.Shuffle { exchange_size = 4 }) seeds in
  let cyclon_stale, cyclon_edges =
    average (Baselines.Cyclon { exchange_size = 4 }) (List.map (fun s -> s + 1000) seeds)
  in
  Output.table
    [ "protocol"; "stale-entry fraction"; "edges (of 8000 initial)" ]
    [
      [ "shuffle (random target)"; Output.f4 shuffle_stale; Output.i shuffle_edges ];
      [ "cyclon (oldest target)"; Output.f4 cyclon_stale; Output.i cyclon_edges ];
    ];
  Output.check
    (Fmt.str "age rule purges stale entries faster (%.4f < %.4f)" cyclon_stale shuffle_stale)
    (cyclon_stale < shuffle_stale);
  Output.check
    "delete-on-send bleeds edges under churn even without loss (section 3.1)"
    (shuffle_edges < 8000 / 2 && cyclon_edges < 8000 / 2)

(* --- P1: partition healing --- *)

let partition_healing () =
  Output.section "P1" "Partition healing: two converged systems blend into one";
  Fmt.pr
    "Two 300-node S&F systems converge separately inside one 600-node id@\n\
     space, then 10 bridge edges are added.  Views mix across the old@\n\
     boundary until the cross fraction reaches the uniform expectation@\n\
     (~0.5) — Property M3's \"from any sufficiently connected initial@\n\
     topology\".@.";
  let n = 600 and half = 300 in
  (* One runner whose initial topology is two disjoint regular halves. *)
  let rng = Sf_prng.Rng.create 95 in
  let topo_a = Topology.regular (Sf_prng.Rng.split rng) ~n:half ~out_degree:20 in
  let topo_b = Topology.regular (Sf_prng.Rng.split rng) ~n:half ~out_degree:20 in
  let topology u = if u < half then topo_a u else List.map (fun v -> v + half) (topo_b (u - half)) in
  let r = Runner.create ~seed:96 ~n ~loss_rate:0.01 ~config ~topology () in
  (* Let the halves converge in isolation (they cannot see each other). *)
  Runner.run_rounds r 200;
  let cross_fraction () =
    let cross = ref 0 and total = ref 0 in
    Array.iter
      (fun u ->
        List.iter
          (fun id ->
            incr total;
            if (id < half) <> (u < half) then incr cross)
          (View.ids (View.copy_row (Runner.store r) u)))
      (Runner.live_ids r);
    float_of_int !cross /. float_of_int (max 1 !total)
  in
  let before = cross_fraction () in
  (* Bridge: 10 nodes of the first half each receive one message carrying
     two ids of the other half — an ordinary S&F receive, so the outdegree
     stays even and a full view deletes it. *)
  let bridge_rng = Sf_prng.Rng.create 97 in
  let msg = Protocol.row_message () in
  for _ = 1 to 10 do
    let a = Sf_prng.Rng.int bridge_rng half in
    msg.r_id <- half + Sf_prng.Rng.int bridge_rng half;
    msg.m_id <- half + Sf_prng.Rng.int bridge_rng half;
    if Runner.is_live r a then
      ignore
        (Protocol.receive_row bridge_rng (Runner.store r) a msg)
  done;
  let points = ref [ (0, cross_fraction ()) ] in
  List.iter
    (fun chunk ->
      Runner.run_rounds r chunk;
      points := (Runner.action_count r / n, cross_fraction ()) :: !points)
    [ 25; 25; 50; 100; 200; 400 ];
  let points = List.rev !points in
  Output.table
    [ "round (cumulative)"; "cross-partition view fraction" ]
    (List.map (fun (round, f) -> [ Output.i round; Output.f3 f ]) points);
  Fmt.pr "  before bridging: %.4f@." before;
  let final = match List.rev points with (_, f) :: _ -> f | [] -> 0. in
  Output.check
    (Fmt.str "views blend toward the uniform 0.5 cross fraction (%.3f)" final)
    (final > 0.4 && final < 0.6);
  Output.check "system is one weakly connected component"
    (Properties.is_weakly_connected (Runner.store r) ~live:(Runner.is_live r))
