(* SCALE: the million-node ladder over the sharded flat-state runner
   (the million-node scale work).

   The baseline ladder — n = 10^4, 10^5, 10^6 — runs bulk-synchronous
   rounds on Runner.Sharded and reports actions/second plus the process's
   peak RSS.  The 10k leg additionally:

   - replays itself under the strict invariant audit (edge ledger every
     round, full structural scan periodically) on a fresh world, and
   - re-runs on 2 domains and asserts bit-for-bit equality with the
     1-domain world (Runner.Sharded.equal) — the determinism contract of
     the sharded engine, checked in anger.

   The ladder then adds chaos legs at 10^5 and 10^6: bursty
   Gilbert-Elliott loss (stationary mean 0.2, mean burst 8) with 1%
   join/leave churn per round, once with the adaptive resilience stack on
   and once off — the cost of surviving the regime vs merely running it.

   The CI gates at n = 10^4 are `sfg scale` runs (`make scale`, `make
   storm-scale`). *)

module Sharded = Sf_core.Runner.Sharded
module Protocol = Sf_core.Protocol
module Census = Sf_core.Census
module Invariant = Sf_check.Invariant

let seed = 42
let loss = 0.05
let shards = 16

(* Small view: at n = 10^6, each of ids/serials/anchors/born is
   n * s ints — s = 16 keeps the store at ~512 MB of unboxed arrays. *)
let config = Protocol.make_config ~view_size:16 ~lower_threshold:4

(* The production solver wiring: section 6.3 re-solved for the estimated
   loss, clamped below select_lossy's 0.5 domain bound. *)
let chaos_policy () =
  let solve ~loss =
    let t =
      Sf_analysis.Thresholds.select_lossy ~d_hat:8 ~delta:0.01
        ~loss:(Float.min loss 0.45)
    in
    (t.Sf_analysis.Thresholds.lower_threshold, t.Sf_analysis.Thresholds.view_size)
  in
  Sf_resil.Policy.make ~solve ()

(* Bursty loss at stationary mean 0.2 for the chaos legs; scaled to n so
   every leg's churn headroom stays proportional. *)
let chaos_scenario () =
  match Sf_faults.Scenario.of_string "ge:0.2:8" with
  | Ok sc -> sc
  | Error e -> invalid_arg ("SCALE: scenario: " ^ e)

let chaos_churn n = { Sharded.churn_rate = 0.01; headroom = max 1024 (n / 50) }

(* One timed leg: fresh world, [rounds] rounds, no audit in the timed
   region (the audit's per-round scans would dominate at 10^6). *)
let timed_leg ?(label = "baseline") ?scenario ?churn ?(resilience = false) ~n
    ~rounds ~domains ~audit () =
  let make () =
    Sharded.create ~shards ~loss_rate:loss ?scenario ?churn
      ?resilience:(if resilience then Some (chaos_policy ()) else None)
      ~seed ~n ~config ()
  in
  let checks =
    if not audit then []
    else begin
      (* Strict audit on its own world: any violation raises. *)
      let stats = Invariant.audited_sharded_run ~scan_every:10 (make ()) ~rounds in
      (* Domain-count invariance: 1 domain vs 2 domains, same seed. *)
      let a = make () and b = make () in
      Sharded.run_rounds a ~domains:1 rounds;
      Sharded.run_rounds b ~domains:2 rounds;
      [
        ( Fmt.str "strict audit clean over %d rounds" rounds,
          stats.Invariant.violation_count = 0 );
        ("2-domain run bit-identical to 1-domain run", Sharded.equal a b);
      ]
    end
  in
  let w = make () in
  let elapsed = Sf_obs.Clock.stopwatch ~clock:Sf_obs.Clock.wall in
  Sharded.run_rounds w ~domains rounds;
  let seconds = elapsed () in
  let actions = (Sharded.world_counters w).Sf_core.Runner.actions in
  let census = Census.of_flat (Sharded.store w) in
  Output.row
    "  %-14s n=%7d  rounds=%2d  %6.2fs  %10.0f actions/s  d=%5.2f  alpha=%.3f%s@."
    label n rounds seconds
    (if seconds > 0. then float_of_int actions /. seconds else 0.)
    (float_of_int (Sharded.total_edges w) /. float_of_int (Sharded.live_count w))
    census.Census.alpha
    (match Sf_obs.Clock.peak_rss_kb () with
    | Some kb -> Fmt.str "  rss=%dMB" (kb / 1024)
    | None -> "");
  List.iter (fun (what, ok) -> Output.check what ok) checks;
  if not (List.for_all snd checks) then
    failwith "SCALE: audit or determinism check failed"

let run () =
  Output.section "SCALE" "Million-node ladder on the sharded flat-state runner";
  Output.row "  s=%d dL=%d shards=%d loss=%.2f seed=%d@."
    config.Protocol.view_size config.Protocol.lower_threshold shards loss seed;
  let domains = max 1 (min shards (Domain.recommended_domain_count ())) in
  (* Ascending n, sequenced explicitly: peak RSS is the process's monotone
     high-water mark, so each leg's reading must not inherit a larger
     earlier world. *)
  timed_leg ~n:10_000 ~rounds:30 ~domains ~audit:true ();
  timed_leg ~n:100_000 ~rounds:10 ~domains ~audit:false ();
  (* Chaos legs at each n before its bigger baseline: GE 0.2 loss, 1%
     churn per round, resilience off then on. *)
  let chaos ~n ~rounds ~resilience =
    timed_leg
      ~label:(if resilience then "chaos+resil" else "chaos")
      ~scenario:(chaos_scenario ()) ~churn:(chaos_churn n) ~resilience ~n
      ~rounds ~domains ~audit:false ()
  in
  chaos ~n:100_000 ~rounds:10 ~resilience:false;
  chaos ~n:100_000 ~rounds:10 ~resilience:true;
  timed_leg ~n:1_000_000 ~rounds:5 ~domains ~audit:false ();
  chaos ~n:1_000_000 ~rounds:5 ~resilience:false;
  chaos ~n:1_000_000 ~rounds:5 ~resilience:true
