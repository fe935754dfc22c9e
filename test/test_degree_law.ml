(* The section 6.2 degree law as an oracle on the engines: after a
   burn-in, the measured in- and outdegree distributions sit within a
   total variation distance of the degree Markov chain's fixed point,
   the per-send duplication and deletion rates match the chain's
   (Lemma 6.6), and the independent fraction clears Lemma 7.9's
   1 - 2(loss + delta).

   One snapshot of 10^3 nodes has a sampling TVD of 0.02-0.045, so each
   world pools [snapshots] snapshots taken [gap] rounds apart.  The
   tolerances come from a seed spread: seeds 1-10 of these worlds
   (sequential n = 10^3, and Sharded n = 10^4, 500 burn-in rounds, 10
   snapshots 20 rounds apart, s = 16, dL = 4) read at most

     out-TVD 0.0175, in-TVD 0.052, |dup - MC| 0.0040 and |del - MC|
     0.0009 per send (sequential); out-TVD 0.016 and |mean outdegree -
     MC| 0.023 (Sharded, loss 0.05 and 0.2),

   and each bound below is about 1.5-2 times that.  Running the kernel's
   duplication test as [degree < dL] (dL off by one: degrees are even,
   so [degree <= dL + 1] would change nothing) fails all five legs; the
   sequential out-TVD at loss 0 reads 0.20.

   The Sharded leg checks loss 0.05 and 0.2 only: at loss 0 its
   round-robin schedule deletes at half the chain's rate and its mean
   outdegree sits 0.5 above the chain's, which a looser bound would
   hide. *)

module Runner = Sf_core.Runner
module Sharded = Sf_core.Runner.Sharded
module Pmf = Sf_stats.Pmf
module Degree_mc = Sf_analysis.Degree_mc

let s = 16
let dl = 4
let config = Sf_core.Protocol.make_config ~view_size:s ~lower_threshold:dl
let burn_in = 500
let snapshots = 10
let gap = 20

let eps_out_tvd = 0.03
let eps_in_tvd = 0.08
let eps_duplication = 0.006
let eps_deletion = 0.0015
let eps_mean = 0.05

let fixed_point =
  let solved = Hashtbl.create 3 in
  fun loss ->
    match Hashtbl.find_opt solved loss with
    | Some r -> r
    | None ->
      let r =
        Degree_mc.solve (Degree_mc.make_params ~view_size:s ~lower_threshold:dl ~loss ())
      in
      Hashtbl.add solved loss r;
      r

(* Pool [snapshots] snapshots [gap] rounds apart; returns the pooled
   out- and indegree distributions of the live nodes, read by the
   monitors every engine shares. *)
let snapshot_pools ~run ~store ~live =
  let outs = ref [] and ins = ref [] in
  for _ = 1 to snapshots do
    run gap;
    let store = store () in
    outs := Sf_core.Properties.outdegree_samples store ~live :: !outs;
    ins := Sf_core.Properties.indegree_samples store ~live :: !ins
  done;
  (Pmf.of_samples (Array.concat !outs), Pmf.of_samples (Array.concat !ins))

let at_most what bound x =
  Alcotest.(check bool) (Printf.sprintf "%s %.5f <= %.5f" what x bound) true (x <= bound)

let test_sequential loss () =
  let n = 1000 and seed = 1 in
  let topology = Sf_core.Topology.uniform_random (Sf_prng.Rng.create (seed + 1)) ~n ~out_degree:8 in
  let r = Runner.create ~seed ~n ~loss_rate:loss ~config ~topology () in
  Runner.run_rounds r burn_in;
  let base = Runner.world_counters r in
  let outs, ins =
    snapshot_pools ~run:(Runner.run_rounds r) ~store:(fun () -> Runner.store r)
      ~live:(Runner.is_live r)
  in
  let rates = Runner.rates_since r base and mc = fixed_point loss in
  at_most "out-TVD" eps_out_tvd (Pmf.tv_distance outs (Degree_mc.even_outdegree mc));
  at_most "in-TVD" eps_in_tvd (Pmf.tv_distance ins mc.Degree_mc.indegree);
  at_most "|duplication - MC|" eps_duplication
    (Float.abs (rates.Runner.duplication -. mc.Degree_mc.duplication_probability));
  at_most "|deletion - MC|" eps_deletion
    (Float.abs (rates.Runner.deletion -. mc.Degree_mc.deletion_probability));
  let alpha = (Sf_core.Census.of_flat (Runner.store r)).Sf_core.Census.alpha in
  let bound =
    Sf_analysis.Dependence.alpha_lower_bound ~loss:rates.Runner.loss
      ~delta:rates.Runner.deletion
  in
  Alcotest.(check bool) (Printf.sprintf "alpha %.4f >= %.4f" alpha bound) true (alpha >= bound)

let test_sharded loss () =
  let w =
    Sharded.create ~seed:1 ~n:10_000 ~config ~loss_rate:loss ~init:Sharded.Scatter
      ~init_degree:8 ()
  in
  Sharded.run_rounds w ~domains:1 burn_in;
  let outs, _ =
    snapshot_pools
      ~run:(fun rounds -> Sharded.run_rounds w ~domains:1 rounds)
      ~store:(fun () -> Sharded.store w)
      ~live:(Sharded.is_live w)
  in
  let mc = fixed_point loss in
  at_most "out-TVD" eps_out_tvd (Pmf.tv_distance outs (Degree_mc.even_outdegree mc));
  at_most "|mean outdegree - MC|" eps_mean
    (Float.abs (Pmf.mean outs -. Pmf.mean mc.Degree_mc.outdegree))

let suite =
  List.map
    (fun loss ->
      Alcotest.test_case (Printf.sprintf "sequential n=1000 loss %g" loss) `Quick
        (test_sequential loss))
    [ 0.; 0.05; 0.2 ]
  @ List.map
      (fun loss ->
        Alcotest.test_case (Printf.sprintf "sharded n=10000 loss %g" loss) `Quick
          (test_sharded loss))
      [ 0.05; 0.2 ]
