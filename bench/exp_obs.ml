(* Observability experiments (OBS): the cost and the payoff of the sf_obs
   layer on one strict-audited 1000-node system.

   - overhead: wall time of a strict-audit run with the default private
     metrics bundle vs the same run with a shared registry, an attached
     tracer and a view-scan span — the acceptance budget is < 5%;
   - Lemma 6.6 balance read twice, from the world counters and straight
     from the registry, checking the registry migration is a pure rename;
   - degree-marginal TVD of the instrumented run against the degree MC.

   The numbers are also written to BENCH_obs.json, the artifact CI
   uploads. *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Invariant = Sf_check.Invariant
module Pmf = Sf_stats.Pmf
module Degree_mc = Sf_analysis.Degree_mc
module Metrics = Sf_obs.Metrics
module Json = Sf_obs.Json

let view_size = 40
let lower_threshold = 18
let loss = 0.05
let population = 1000
let rounds = 120
let artifact_path = "BENCH_obs.json"

let write_artifact json =
  Out_channel.with_open_text artifact_path (fun oc ->
      output_string oc (Json.to_string json);
      output_string oc "\n");
  Fmt.pr "  (wrote %s)@." artifact_path

let make_system ?obs ~seed () =
  let config = Protocol.make_config ~view_size ~lower_threshold in
  let rng = Sf_prng.Rng.create (seed + 1) in
  let topology = Topology.regular rng ~n:population ~out_degree:30 in
  Runner.create ?obs ~seed ~n:population ~loss_rate:loss ~config ~topology ()

(* One strict-audited run; [obs] decides the instrumentation level. *)
let audited_run ?obs ~seed () =
  let r = make_system ?obs ~seed () in
  let stats = Invariant.audited_run r ~rounds in
  (r, stats)

(* Wall and per-process CPU seconds of one audited run.  The CPU clock is
   the one overhead ratios are gated on: on a busy or single-core machine
   any other process that preempts the run inflates wall time, while CPU
   time charges each configuration exactly for the work it did. *)
let time_run ?obs ~seed () =
  let wall = Sf_obs.Clock.stopwatch ~clock:Sf_obs.Clock.wall in
  let cpu = Sf_obs.Clock.stopwatch ~clock:Sf_obs.Clock.cpu in
  let _r, _ = audited_run ?obs ~seed () in
  (wall (), cpu ())

let full_bundle () =
  let metrics = Metrics.create () in
  let tracer = Sf_obs.Trace.create ~capacity:65536 in
  Sf_obs.Obs.create ~tracer ~metrics ()

(* Minimum of [reps] timings, alternating configurations so ambient load
   hits both equally. *)
let measure_overhead ~reps =
  let plain_w = ref infinity and full_w = ref infinity in
  let plain_c = ref infinity and full_c = ref infinity in
  for rep = 0 to reps - 1 do
    let seed = 1000 + rep in
    let w, c = time_run ~seed () in
    plain_w := Float.min !plain_w w;
    plain_c := Float.min !plain_c c;
    let w, c = time_run ~obs:(full_bundle ()) ~seed () in
    full_w := Float.min !full_w w;
    full_c := Float.min !full_c c
  done;
  ((!plain_w, !plain_c), (!full_w, !full_c))

let empirical_outdegree span r =
  Sf_obs.Span.time span (fun () ->
      Pmf.of_samples (Sf_core.Properties.outdegree_samples r))

let run () =
  Output.section "OBS" "Observability layer: overhead, balance, degree TVD";
  Fmt.pr
    "One strict-audited system (n=%d, s=%d, dL=%d, loss=%g, %d rounds),@\n\
     run plain (private metrics, no tracer) and fully instrumented@\n\
     (shared registry + %d-record tracer + spans).@."
    population view_size lower_threshold loss rounds 65536;

  (* --- Overhead --- *)
  let (plain_w, plain_c), (full_w, full_c) = measure_overhead ~reps:5 in
  let ratio = full_c /. plain_c in
  Output.subsection "overhead (min of 5 alternated runs)";
  Output.table
    [ "configuration"; "wall s"; "cpu s" ]
    [
      [ "plain (no-op: no tracer)"; Fmt.str "%.3f" plain_w; Fmt.str "%.3f" plain_c ];
      [
        "full (registry + tracer + span)";
        Fmt.str "%.3f" full_w;
        Fmt.str "%.3f" full_c;
      ];
      [ "ratio"; Fmt.str "%.3f" (full_w /. plain_w); Fmt.str "%.3f" ratio ];
    ];
  Output.check "full instrumentation costs < 5% CPU time" (ratio < 1.05);

  (* --- Lemma 6.6 balance, counters vs registry --- *)
  let obs = full_bundle () in
  let r = make_system ~obs ~seed:4242 () in
  Runner.run_rounds r 300;
  let base = Runner.world_counters r in
  Runner.run_rounds r 300;
  let rates = Runner.rates_since r base in
  let m = Sf_obs.Obs.metrics obs in
  let registry_count name =
    match Metrics.find_counter m name with
    | Some c -> Metrics.count c
    | None -> -1
  in
  let now = Runner.world_counters r in
  Output.subsection "Lemma 6.6 balance (per send, rounds 300-600)";
  Output.table
    [ "rate"; "value" ]
    [
      [ "duplication"; Output.f4 rates.Runner.duplication ];
      [ "loss"; Output.f4 rates.Runner.loss ];
      [ "deletion"; Output.f4 rates.Runner.deletion ];
      [
        "residual dup - (loss+del)";
        Output.f4 (rates.Runner.duplication -. (rates.Runner.loss +. rates.Runner.deletion));
      ];
    ];
  Output.check "duplication ~ loss + deletion (Lemma 6.6)"
    (Float.abs (rates.Runner.duplication -. (rates.Runner.loss +. rates.Runner.deletion))
    < 0.01);
  Output.check "registry counters = world counters"
    (registry_count "runner_sends" = now.Runner.sends
    && registry_count "runner_duplications" = now.Runner.duplications
    && registry_count "runner_deletions" = now.Runner.deletions
    && registry_count "runner_lost" = now.Runner.messages_lost);

  (* --- Degree-marginal TVD against the degree MC --- *)
  let scan_span = Sf_obs.Span.create ~clock:Sf_obs.Clock.wall m "view_scan_seconds" in
  let empirical = empirical_outdegree scan_span r in
  let mc =
    Degree_mc.solve (Degree_mc.make_params ~view_size ~lower_threshold ~loss ())
  in
  let tvd = Pmf.tv_distance empirical (Degree_mc.even_outdegree mc) in
  Output.subsection "degree marginal vs degree MC";
  Fmt.pr "  TVD(empirical outdegree, degree-MC outdegree) = %.4f@." tvd;
  Output.check "degree marginal matches the MC (TVD < 0.1)" (tvd < 0.1);
  (match Sf_obs.Obs.tracer obs with
  | None -> ()
  | Some tr ->
    Fmt.pr "  tracer: %d recorded, %d held, %d dropped to wraparound@."
      (Sf_obs.Trace.recorded tr) (Sf_obs.Trace.length tr) (Sf_obs.Trace.dropped tr));

  Json.Obj
    [
      ( "overhead",
        Json.Obj
          [
            ("plain_wall_seconds", Json.Float plain_w);
            ("full_wall_seconds", Json.Float full_w);
            ("plain_cpu_seconds", Json.Float plain_c);
            ("full_cpu_seconds", Json.Float full_c);
            ("cpu_ratio", Json.Float ratio);
          ] );
      ( "lemma_6_6",
        Json.Obj
          [
            ("duplication", Json.Float rates.Runner.duplication);
            ("loss", Json.Float rates.Runner.loss);
            ("deletion", Json.Float rates.Runner.deletion);
            ( "residual",
              Json.Float
                (rates.Runner.duplication
                -. (rates.Runner.loss +. rates.Runner.deletion)) );
          ] );
      ("degree_tvd", Json.Float tvd);
      ("metrics", Metrics.to_json m);
    ]
  |> write_artifact
