(* Baseline contrast (paper, section 3.1) and the random-walk objection. *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Properties = Sf_core.Properties
module Baselines = Sf_core.Baselines
module Census = Sf_core.Census
module Random_walk = Sf_core.Random_walk

let table_baselines () =
  Output.section "B1" "Protocol comparison under loss (section 3.1 taxonomy)";
  Fmt.pr
    "n=500, s=40, 400 rounds, loss=5%%.  Shuffle deletes sent ids (no@\n\
     dependence but bleeds edges under loss); push-pull keeps them (loss@\n\
     immune but dependence accumulates); S&F deletes-and-compensates.@.";
  let n = 500 and view_size = 40 and loss = 0.05 and rounds = 400 in
  let topology seed = Topology.regular (Sf_prng.Rng.create seed) ~n ~out_degree:20 in
  let initial_edges = n * 20 in
  (* S&F *)
  let config = Protocol.make_config ~view_size ~lower_threshold:18 in
  let sf = Runner.create ~seed:11 ~n ~loss_rate:loss ~config ~topology:(topology 1) () in
  Runner.run_rounds sf rounds;
  let sf_edges = Sf_graph.Digraph.edge_count (Runner.membership_graph sf) in
  let sf_census = Census.of_flat (Runner.store sf) in
  let sf_connected =
    Properties.is_weakly_connected (Runner.store sf) ~live:(Runner.is_live sf)
  in
  (* Baselines *)
  let run kind seed =
    let b = Baselines.create ~seed ~n ~view_size ~loss_rate:loss ~kind ~topology:(topology seed) in
    Baselines.run_rounds b rounds;
    let store = Baselines.store b in
    ( Baselines.total_instances b,
      Census.of_flat store,
      Properties.is_weakly_connected store ~live:(fun u -> not (Baselines.is_dead b u)) )
  in
  let sh_edges, sh_census, sh_conn = run (Baselines.Shuffle { exchange_size = 4 }) 2 in
  let pp_edges, pp_census, pp_conn = run (Baselines.Push_pull { gossip_size = 3 }) 3 in
  let po_edges, po_census, po_conn = run Baselines.Push_only 4 in
  let row name edges census connected =
    [
      name;
      Output.i initial_edges;
      Output.i edges;
      Output.f3 census.Census.alpha;
      string_of_bool connected;
    ]
  in
  Output.table
    [ "protocol"; "edges t=0"; "edges t=400r"; "alpha"; "connected" ]
    [
      row "send & forget" sf_edges sf_census sf_connected;
      row "shuffle (delete-on-send)" sh_edges sh_census sh_conn;
      row "push-pull (keep-on-send)" pp_edges pp_census pp_conn;
      row "push-only (reinforce)" po_edges po_census po_conn;
    ];
  Output.check "S&F retains its edges and stays connected"
    (sf_edges > initial_edges / 2 && sf_connected);
  Output.check "shuffle bleeds most of its edges under loss (section 3.1)"
    (sh_edges < initial_edges / 2);
  Output.check "push-pull keeps edges but collapses independence"
    (pp_edges >= initial_edges && pp_census.Census.alpha < 0.5);
  Output.check "S&F keeps high independence where push-pull does not"
    (sf_census.Census.alpha > pp_census.Census.alpha +. 0.3)

let table_random_walk () =
  Output.section "B2" "Random-walk sampling under loss (section 3.1 objection)";
  Fmt.pr
    "Walks over a converged S&F membership graph with per-hop loss.  The@\n\
     success probability decays exponentially with walk length, while each@\n\
     S&F action needs a single message.@.";
  let config = Protocol.make_config ~view_size:40 ~lower_threshold:18 in
  let topology = Topology.regular (Sf_prng.Rng.create 21) ~n:500 ~out_degree:20 in
  let r = Runner.create ~seed:22 ~n:500 ~loss_rate:0.05 ~config ~topology () in
  Runner.run_rounds r 200;
  let rng = Sf_prng.Rng.create 23 in
  let rows =
    List.map
      (fun length ->
        let stats =
          Random_walk.sample_statistics r rng ~attempts:5000 ~length ~loss_rate:0.05
        in
        let theory = Random_walk.success_probability ~length ~loss_rate:0.05 in
        (length, stats.Random_walk.success_rate, theory))
      [ 1; 2; 5; 10; 20; 40 ]
  in
  Output.table
    [ "walk length"; "measured success"; "(1-loss)^len" ]
    (List.map
       (fun (l, m, t) -> [ Output.i l; Output.f3 m; Output.f3 t ])
       rows);
  Output.check "success probability decays exponentially with length"
    (List.for_all (fun (_, m, t) -> Float.abs (m -. t) < 0.03) rows)
