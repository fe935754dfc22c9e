(* Loss-rate sweep: how each protocol family degrades as the network gets
   worse, summarizing the repository's headline result in one table — S&F
   pays a small, bounded dependence cost for loss tolerance, where
   delete-on-send protocols collapse and keep-on-send protocols never had
   independence to begin with.

   Run with: dune exec examples/loss_sweep.exe *)

module Runner = Sf_core.Runner
module Properties = Sf_core.Properties
module Protocol = Sf_core.Protocol
module Baselines = Sf_core.Baselines
module Census = Sf_core.Census

let n = 500
let view_size = 40
let rounds = 300

let topology seed =
  Sf_core.Topology.regular (Sf_prng.Rng.create seed) ~n ~out_degree:20

let sandf loss =
  let config = Protocol.make_config ~view_size ~lower_threshold:18 in
  let r = Runner.create ~seed:3 ~n ~loss_rate:loss ~config ~topology:(topology 1) () in
  Runner.run_rounds r rounds;
  let census = Census.of_flat (Runner.store r) in
  let edges = Sf_graph.Digraph.edge_count (Runner.membership_graph r) in
  (edges, census.Census.alpha,
   Properties.is_weakly_connected (Runner.store r) ~live:(Runner.is_live r))

let baseline kind loss =
  let b =
    Baselines.create ~seed:4 ~n ~view_size ~loss_rate:loss ~kind ~topology:(topology 2)
  in
  Baselines.run_rounds b rounds;
  let store = Baselines.store b in
  ( Baselines.total_instances b,
    (Census.of_flat store).Census.alpha,
    Properties.is_weakly_connected store ~live:(fun u -> not (Baselines.is_dead b u)) )

let () =
  Fmt.pr "loss sweep: n=%d, s=%d, %d rounds; cells are edges/alpha/connected@." n
    view_size rounds;
  Fmt.pr "%-8s %-26s %-26s %-26s@." "loss" "send-and-forget" "shuffle" "push-pull";
  List.iter
    (fun loss ->
      let cell (edges, alpha, connected) =
        Fmt.str "%6d / %.3f / %b" edges alpha connected
      in
      let sf = sandf loss in
      let sh = baseline (Baselines.Shuffle { exchange_size = 4 }) loss in
      let pp = baseline (Baselines.Push_pull { gossip_size = 3 }) loss in
      Fmt.pr "%-8.2f %-26s %-26s %-26s@." loss (cell sf) (cell sh) (cell pp))
    [ 0.0; 0.01; 0.02; 0.05; 0.1; 0.2 ];
  Fmt.pr
    "@.reading: shuffle keeps alpha=1 but its edge count (and with it@\n\
     connectivity) collapses as loss grows; push-pull survives any loss but@\n\
     its views are almost entirely dependent; S&F loses a couple of edges of@\n\
     expected degree and a few percent of independence — the paper's thesis.@."
