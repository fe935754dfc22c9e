(* Tests for the self-healing resilience layer (lib/resilience) and its
   threading through the drivers: backoff determinism, controller guard
   behaviour, estimator accuracy against injector ground truth (i.i.d.
   and Gilbert-Elliott), the replay-identity of a disabled/observe-only
   policy, end-to-end adaptive retuning under the invariant audit,
   supervised partition recovery, and the resil_* metrics surface. *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Properties = Sf_core.Properties
module Scenario = Sf_faults.Scenario
module Invariant = Sf_check.Invariant
module Policy = Sf_resil.Policy
module Estimator = Sf_resil.Estimator
module Controller = Sf_resil.Controller
module Backoff = Sf_resil.Backoff
module Supervisor = Sf_resil.Supervisor

(* Weak connectivity of a runner's live overlay. *)
let is_connected r = Properties.is_weakly_connected (Runner.store r) ~live:(Runner.is_live r)

let scenario_of_string s =
  match Scenario.of_string s with
  | Ok sc -> sc
  | Error e -> Alcotest.fail ("scenario parse: " ^ e)

(* The section 6.3 solver the production drivers inject (bin/sfg, bench). *)
let solve_63 ~d_hat ~delta ~loss =
  let t =
    Sf_analysis.Thresholds.select_lossy ~d_hat ~delta ~loss:(Float.min loss 0.45)
  in
  (t.Sf_analysis.Thresholds.lower_threshold, t.Sf_analysis.Thresholds.view_size)

let make_runner ?scenario ?resilience ?obs ?(n = 120) ?(view_size = 16)
    ?(lower_threshold = 6) ?(out_degree = 10) ?(loss = 0.05) ~seed () =
  let config = Protocol.make_config ~view_size ~lower_threshold in
  let topology = Topology.regular (Sf_prng.Rng.create (seed + 1)) ~n ~out_degree in
  Runner.create ?scenario ?resilience ?obs ~seed ~n ~loss_rate:loss ~config
    ~topology ()

(* --- Backoff --- *)

let test_backoff_deterministic () =
  let make seed =
    Backoff.create ~base:1.0 ~factor:2.0 ~cap:8.0 ~jitter:0.5
      ~rng:(Sf_prng.Rng.create seed) ()
  in
  let a = make 11 and b = make 11 in
  let da = List.init 6 (fun _ -> Backoff.next a) in
  let db = List.init 6 (fun _ -> Backoff.next b) in
  Alcotest.(check bool) "equal seeds draw equal delay sequences" true (da = db);
  (* Nominal schedule 1, 2, 4, 8, 8, 8; jitter 0.5 spreads each delay over
     [nominal/2, nominal]. *)
  List.iteri
    (fun i d ->
      let nominal = Float.min (2.0 ** float_of_int i) 8.0 in
      Alcotest.(check bool)
        (Fmt.str "delay %d = %.3f within [%.3f, %.3f]" i d (nominal /. 2.) nominal)
        true
        (d >= nominal /. 2. && d <= nominal))
    da;
  Alcotest.(check int) "attempts counted" 6 (Backoff.attempts a);
  Backoff.reset a;
  Alcotest.(check int) "reset clears attempts" 0 (Backoff.attempts a);
  Alcotest.(check bool) "post-reset delay starts from base again" true
    (Backoff.next a <= 1.0);
  (match Backoff.create ~jitter:1.5 ~rng:(Sf_prng.Rng.create 1) () with
  | exception Invalid_argument _ -> ()
  | (_ : Backoff.t) -> Alcotest.fail "jitter above 1 must be rejected");
  match Backoff.create ~base:4.0 ~cap:2.0 ~rng:(Sf_prng.Rng.create 1) () with
  | exception Invalid_argument _ -> ()
  | (_ : Backoff.t) -> Alcotest.fail "cap below base must be rejected"

(* --- Estimator unit behaviour --- *)

(* The bare Lemma 6.6 inversion: every churn correction term zero. *)
let observe_bare e ~sends ~duplications ~deletions =
  Estimator.observe e ~sends ~duplications ~deletions ~to_dead:0
    ~churn_edges_added:0 ~churn_edges_removed:0 ~edge_delta:0

let test_estimator_windows () =
  let e = Estimator.create ~window:100 ~smoothing:1.0 () in
  Alcotest.(check bool) "not confident before a window" false (Estimator.confident e);
  Alcotest.(check (float 0.)) "estimate 0 before a window" 0. (Estimator.estimate e);
  (* One full window with dup - del = 20 of 100 sends: estimate 0.2. *)
  observe_bare e ~sends:100 ~duplications:25 ~deletions:5;
  Alcotest.(check bool) "confident after one window" true (Estimator.confident e);
  Alcotest.(check (float 1e-9)) "inverted rate" 0.2 (Estimator.estimate e);
  (* Deletions above duplications clamp at 0, never negative. *)
  let e = Estimator.create ~window:10 ~smoothing:1.0 () in
  observe_bare e ~sends:10 ~duplications:0 ~deletions:8;
  Alcotest.(check bool) "clamped below at 0" true (Estimator.estimate e >= 0.);
  match observe_bare e ~sends:(-1) ~duplications:0 ~deletions:0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative deltas must be rejected"

(* --- Controller guards --- *)

let test_controller_guards () =
  (* s = 40 never moves, so dL's window is [0, s - 6]. *)
  let s = 40 in
  let solve ~loss = if loss > 0.25 then 14 else 4 in
  let limits = { Controller.min_lower = 0; max_lower = s - 6 } in
  let c =
    Controller.create ~hysteresis:0.02 ~cooldown:3 ~max_step:4 ~solve ~limits
      ~initial:4 ()
  in
  (* Inside the hysteresis band of the initial anchor (0): hold. *)
  Alcotest.(check bool) "hysteresis holds" true (Controller.decide c ~loss:0.01 = None);
  (* A real shift: one budgeted step toward 14. *)
  (match Controller.decide c ~loss:0.30 with
  | Some 8 -> ()
  | Some dl -> Alcotest.failf "expected one +4 step to 8, got %d" dl
  | None -> Alcotest.fail "expected a retune");
  Alcotest.(check (float 1e-9)) "anchor moved to the solved loss" 0.30
    (Controller.anchor_loss c);
  (* Same estimate again: inside the new anchor's band. *)
  Alcotest.(check bool) "re-anchored hysteresis holds" true
    (Controller.decide c ~loss:0.30 = None);
  (* Shifted estimate but inside the cooldown (retune at tick 2, this is
     tick 4): hold. *)
  Alcotest.(check bool) "cooldown holds" true (Controller.decide c ~loss:0.35 = None);
  (* Cooldown elapsed (tick 5): the next budgeted step fires. *)
  (match Controller.decide c ~loss:0.35 with
  | Some 12 -> ()
  | Some dl -> Alcotest.failf "expected 12, got %d" dl
  | None -> Alcotest.fail "expected a retune after the cooldown");
  Alcotest.(check int) "two retunes recorded" 2 (Controller.retunes c);
  Alcotest.(check int) "current tracks the last step" 12 (Controller.current c);
  (* Every emitted dL satisfies the protocol constraint dL <= s - 6. *)
  let rec drain k =
    if k > 0 then begin
      (match Controller.decide c ~loss:(0.35 +. (0.05 *. float_of_int k)) with
      | Some dl ->
        Alcotest.(check bool)
          (Fmt.str "dL %d is protocol-valid" dl)
          true
          (dl >= 0 && dl <= s - 6 && dl mod 2 = 0)
      | None -> ());
      drain (k - 1)
    end
  in
  drain 20;
  match Controller.create ~solve ~limits ~initial:5 () with
  | exception Invalid_argument _ -> ()
  | (_ : Controller.t) -> Alcotest.fail "odd initial dL must be rejected"

(* --- Supervisor scheduling --- *)

let test_supervisor_schedule () =
  let backoff =
    Backoff.create ~base:2.0 ~factor:2.0 ~cap:16.0 ~jitter:0.0
      ~rng:(Sf_prng.Rng.create 3) ()
  in
  let sup = Supervisor.create ~backoff () in
  Alcotest.(check bool) "healthy: due immediately" true (Supervisor.due sup ~now:0.);
  let d = Supervisor.record_attempt sup ~now:0. in
  Alcotest.(check (float 1e-9)) "first delay is the base (no jitter)" 2.0 d;
  Alcotest.(check bool) "inside the window: not due" false (Supervisor.due sup ~now:1.9);
  Alcotest.(check bool) "window elapsed: due" true (Supervisor.due sup ~now:2.0);
  let d2 = Supervisor.record_attempt sup ~now:2.0 in
  Alcotest.(check (float 1e-9)) "delay doubles while failing" 4.0 d2;
  Alcotest.(check int) "attempts charged" 2 (Supervisor.attempts sup);
  Supervisor.record_success sup;
  Alcotest.(check int) "recovery counted" 1 (Supervisor.recoveries sup);
  Alcotest.(check bool) "healthy again: due" true (Supervisor.due sup ~now:2.1);
  let d3 = Supervisor.record_attempt sup ~now:3.0 in
  Alcotest.(check (float 1e-9)) "success reset the schedule" 2.0 d3;
  Supervisor.record_healthy sup;
  Alcotest.(check bool) "routine healthy probe clears the window" true
    (Supervisor.due sup ~now:3.1)

(* --- Replay identity of disabled / observe-only resilience --- *)

let dump_views r =
  Array.to_list (Runner.live_ids r)
  |> List.map (fun u ->
         (u, Sf_core.View.entries (Sf_core.View.copy_row (Runner.store r) u)))

let test_observe_only_identity () =
  let run resilience =
    let r = make_runner ?resilience ~seed:210 () in
    Runner.run_rounds r 80;
    r
  in
  let plain = run None in
  let observed = run (Some (Policy.observe_only ())) in
  Alcotest.(check bool) "identical views (ids, serials, anchors, births)" true
    (dump_views plain = dump_views observed);
  Alcotest.(check int) "identical mint bound" (Runner.minted_serials plain)
    (Runner.minted_serials observed);
  let wp = Runner.world_counters plain in
  let wo = Runner.world_counters observed in
  Alcotest.(check int) "identical sends" wp.Runner.sends wo.Runner.sends;
  Alcotest.(check int) "identical losses" wp.Runner.messages_lost
    wo.Runner.messages_lost;
  (* The observer still did its job. *)
  match Runner.resilience_statistics observed with
  | None -> Alcotest.fail "observe-only runner must expose resilience statistics"
  | Some rs ->
    Alcotest.(check bool) "estimator ran" true rs.Runner.estimator_confident;
    Alcotest.(check int) "but never retuned" 0 rs.Runner.retunes;
    Alcotest.(check int) "and never repaired" 0 rs.Runner.repair_attempts

(* --- Estimator accuracy against injector ground truth --- *)

let estimator_error ~scenario ~loss ~seed =
  let scenario = Option.map scenario_of_string scenario in
  let r =
    make_runner ?scenario ?resilience:(Some (Policy.observe_only ())) ~loss ~seed ()
  in
  (* Long enough for the EWMA to forget the warm-up transient (the first
     windows see the initial out_degree=10 overlay decaying toward its
     lossy equilibrium, where duplication under-counts the loss). *)
  Runner.run_rounds r 400;
  let c = Runner.world_counters r in
  let truth =
    float_of_int c.Runner.messages_lost /. float_of_int (max 1 c.Runner.sends)
  in
  match Runner.resilience_statistics r with
  | None -> Alcotest.fail "resilience statistics missing"
  | Some rs ->
    Alcotest.(check bool) "estimator folded windows" true rs.Runner.estimator_confident;
    (rs.Runner.loss_estimate, truth)

let test_estimator_accuracy_iid () =
  let estimate, truth = estimator_error ~scenario:None ~loss:0.2 ~seed:220 in
  Alcotest.(check bool)
    (Fmt.str "i.i.d.: estimate %.4f within 0.03 of measured loss %.4f" estimate truth)
    true
    (Float.abs (estimate -. truth) <= 0.03)

let test_estimator_accuracy_ge () =
  let estimate, truth =
    estimator_error ~scenario:(Some "ge:0.2:8") ~loss:0.01 ~seed:230
  in
  Alcotest.(check bool)
    (Fmt.str "GE: estimate %.4f within 0.03 of measured loss %.4f" estimate truth)
    true
    (Float.abs (estimate -. truth) <= 0.03)

(* Churn correction: at 1% per-round churn the bare inversion reads low —
   sends to departed slots produce neither a duplication nor a deletion,
   and join/leave edge flux enters the overlay out of band.  The sharded
   engine feeds the extended-ledger terms ([to_dead], churn edge flux)
   through [Estimator.observe]; with them folded in the estimate must
   land within 0.03 of the injector's ground truth. *)
let test_estimator_accuracy_churn () =
  (* Unit-level arithmetic first: the corrected inversion is
     (dup - del - to_dead + (added - removed)/2) / sends. *)
  let bare = Estimator.create ~window:100 ~smoothing:1.0 () in
  let corrected = Estimator.create ~window:100 ~smoothing:1.0 () in
  observe_bare bare ~sends:100 ~duplications:20 ~deletions:5;
  Estimator.observe corrected ~to_dead:2 ~churn_edges_added:10
    ~churn_edges_removed:2 ~edge_delta:0 ~sends:100 ~duplications:20
    ~deletions:5;
  Alcotest.(check (float 1e-9)) "bare inversion" 0.15 (Estimator.estimate bare);
  Alcotest.(check (float 1e-9)) "ledger-corrected inversion" 0.17
    (Estimator.estimate corrected);
  (* End to end on the sharded engine under bursty loss and churn. *)
  let config = Protocol.make_config ~view_size:16 ~lower_threshold:4 in
  let w =
    Runner.Sharded.create ~shards:8 ~seed:31 ~n:2_000 ~config
      ~scenario:(scenario_of_string "ge:0.2:8")
      ~churn:{ Runner.Sharded.churn_rate = 0.01; headroom = 256 }
      ~resilience:(Policy.observe_only ()) ()
  in
  Runner.Sharded.run_rounds w ~domains:2 300;
  let wc = Runner.Sharded.world_counters w in
  let truth =
    float_of_int wc.Runner.messages_lost /. float_of_int (max 1 wc.Runner.sends)
  in
  match Runner.Sharded.resilience_statistics w with
  | None -> Alcotest.fail "resilience statistics missing"
  | Some rs ->
    Alcotest.(check bool) "estimator folded windows" true
      rs.Runner.estimator_confident;
    Alcotest.(check bool)
      (Fmt.str "churn: estimate %.4f within 0.03 of measured loss %.4f"
         rs.Runner.loss_estimate truth)
      true
      (Float.abs (rs.Runner.loss_estimate -. truth) <= 0.03)

(* --- End-to-end adaptive retuning under the audit --- *)

let test_retune_e2e_audited () =
  let policy =
    Policy.make ~recover:false ~estimator_window:1000 ~cooldown:5
      ~solve:(solve_63 ~d_hat:8 ~delta:0.01) ()
  in
  let scenario = scenario_of_string "ge:0.25:6" in
  let r =
    make_runner ~scenario ?resilience:(Some policy) ~loss:0.01 ~seed:240 ()
  in
  let stats = Invariant.audited_run ~mode:Invariant.Warn r ~rounds:150 in
  Alcotest.(check int) "no invariant violations while retuning" 0
    stats.Invariant.violation_count;
  (match Runner.resilience_statistics r with
  | None -> Alcotest.fail "resilience statistics missing"
  | Some rs ->
    Alcotest.(check bool) "the controller retuned at least once" true
      (rs.Runner.retunes >= 1));
  (* The live dL moved off the base config's 6 and is protocol-valid; the
     view size did not move. *)
  let c = Runner.config r in
  let dl = c.Protocol.lower_threshold in
  Alcotest.(check bool) (Fmt.str "dL %d moved off 6" dl) true (dl <> 6);
  Alcotest.(check bool)
    (Fmt.str "dL %d valid" dl)
    true
    (dl >= 0 && dl <= 16 - 6 && dl mod 2 = 0);
  Alcotest.(check int) "s stays the allocation" 16 c.Protocol.view_size

(* --- Supervised recovery of a partition --- *)

(* The worlds of the manual-recovery test in test_faults, world [k]
   seeded [530 + k]: there a 100-round partition splits some of them and
   needs [Churn.recover_connectivity]; here the supervisor must do the
   whole job on its own.  Every world must end connected, and a world
   whose supervisor attempted a repair must confirm a recovery.  Repairs
   run in 5 of the 30 worlds. *)
let test_supervised_partition_recovery () =
  let worlds = 30 in
  let config = Protocol.make_config ~view_size:8 ~lower_threshold:2 in
  let n = 200 in
  let scenario = scenario_of_string "partition@5-105:2" in
  let repaired =
    List.init worlds (fun k ->
        let seed = 530 + k in
        let policy =
          Policy.make ~retune:false ~solve:(solve_63 ~d_hat:8 ~delta:0.01) ()
        in
        let topology =
          Topology.regular (Sf_prng.Rng.create (seed + 1)) ~n ~out_degree:6
        in
        let r =
          Runner.create ~scenario ~resilience:policy ~seed ~n ~loss_rate:0.05
            ~config ~topology ()
        in
        Runner.run_rounds r 150;
        Alcotest.(check bool)
          (Fmt.str "seed %d: connected without manual recovery" seed)
          true
          (is_connected r);
        match Runner.resilience_statistics r with
        | None -> Alcotest.fail "resilience statistics missing"
        | Some rs ->
          let attempted = rs.Runner.repair_attempts >= 1 in
          if attempted then
            Alcotest.(check bool)
              (Fmt.str "seed %d: a repair attempt confirmed a recovery" seed)
              true (rs.Runner.recoveries >= 1);
          attempted)
    |> List.filter Fun.id |> List.length
  in
  Alcotest.(check bool)
    (Fmt.str "the supervisor repaired %d of %d worlds (>= 3)" repaired worlds)
    true (repaired >= 3)

(* --- Metrics surface --- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

let test_resil_metrics_exported () =
  let obs = Sf_obs.Obs.create () in
  let policy = Policy.make ~solve:(solve_63 ~d_hat:8 ~delta:0.01) () in
  let r = make_runner ~obs ?resilience:(Some policy) ~loss:0.15 ~seed:260 () in
  Runner.run_rounds r 60;
  let text = Sf_obs.Metrics.to_prometheus (Sf_obs.Obs.metrics obs) in
  List.iter
    (fun name ->
      Alcotest.(check bool) (Fmt.str "prometheus text contains %s" name) true
        (contains text name))
    [
      "resil_loss_estimate";
      "resil_loss_true";
      "resil_retunes_total";
      "resil_repair_attempts_total";
      "resil_recoveries_total";
      "resil_backoff_rounds";
    ]

(* [resil_loss_true] is lost over sent across the last round alone — the
   deltas of [Runner.world_counters] between two ticks — so under bursty
   loss it follows the current regime. *)
let test_resil_true_loss_gauge () =
  let obs = Sf_obs.Obs.create () in
  let scenario =
    match Sf_faults.Scenario.of_string "ge:0.2:8" with
    | Ok sc -> sc
    | Error e -> Alcotest.fail e
  in
  let r =
    make_runner ~obs ~scenario ?resilience:(Some (Policy.observe_only ()))
      ~seed:261 ()
  in
  let gauge = Sf_obs.Metrics.gauge (Sf_obs.Obs.metrics obs) "resil_loss_true" in
  for round = 1 to 30 do
    let before = Runner.world_counters r in
    Runner.run_rounds r 1;
    let after = Runner.world_counters r in
    let sent = after.Runner.sends - before.Runner.sends
    and lost = after.Runner.messages_lost - before.Runner.messages_lost in
    Alcotest.(check (float 0.))
      (Fmt.str "round %d: %d lost of %d sent" round lost sent)
      (float_of_int lost /. float_of_int sent)
      (Sf_obs.Metrics.level gauge)
  done

(* --- The chaos soak: bursty loss, a partition, a crash wave --- *)

(* Under the full policy and the Warn audit, the world comes through the
   chaos with no invariant violation, weakly connected without any manual
   recovery call, and with its loss estimate within 0.08 of the
   injector's ground truth. *)
let test_chaos_soak () =
  let scenario =
    scenario_of_string "ge:0.15:6;partition@60-80:2;crash@110-130:0-5"
  in
  let policy =
    Policy.make ~estimator_window:1000 ~solve:(solve_63 ~d_hat:10 ~delta:0.01) ()
  in
  let config = Protocol.make_config ~view_size:16 ~lower_threshold:6 in
  let n = 96 in
  let topology = Topology.regular (Sf_prng.Rng.create 7301) ~n ~out_degree:10 in
  let r =
    Runner.create ~scenario ~resilience:policy ~seed:7300 ~n ~loss_rate:0.01
      ~config ~topology ()
  in
  let stats = Invariant.audited_run ~mode:Invariant.Warn r ~rounds:200 in
  Alcotest.(check int) "no invariant violations" 0 stats.Invariant.violation_count;
  Alcotest.(check bool) "overlay connected after the chaos" true
    (is_connected r);
  let truth =
    match Runner.fault_statistics r with
    | Some fs when fs.Sf_faults.Injector.judged > 0 ->
      let open Sf_faults.Injector in
      float_of_int
        (fs.chance_drops + fs.partition_drops + fs.crash_drops + fs.corruptions)
      /. float_of_int fs.judged
    | Some _ | None -> Alcotest.fail "the injector judged no send"
  in
  match Runner.resilience_statistics r with
  | None -> Alcotest.fail "resilience statistics missing"
  | Some rs ->
    Alcotest.(check bool)
      (Fmt.str "estimate %.4f within 0.08 of injector truth %.4f"
         rs.Runner.loss_estimate truth)
      true
      (Float.abs (rs.Runner.loss_estimate -. truth) <= 0.08)

(* --- The tuner's tick allocates nothing --- *)

(* [Sf_net.Driver] ticks a tuner on every firing, so a tick that folds no
   window and directs no retune — here confident, inside the hysteresis
   band — must not allocate.  Floats box under bytecode, so this runs on
   the native backend only. *)
let test_tuner_tick_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let policy =
      Policy.make ~estimator_window:1000 ~solve:(solve_63 ~d_hat:8 ~delta:0.01) ()
    in
    let tuner = Sf_resil.Loop.tuner policy ~initial:6 ~view_size:16 ~edges:0 in
    let tick sends =
      Sf_resil.Loop.tick tuner ~sends ~duplications:0 ~deletions:0 ~to_dead:0
        ~edges_added:0 ~edges_removed:0 ~edges:0
    in
    (* One full window at loss 0: confident, and anchored at the estimate. *)
    ignore (tick 1000);
    let retunes = ref 0 in
    let calls = 900 in
    let w0 = Gc.minor_words () in
    for k = 1 to calls do
      match tick (1000 + k) with None -> () | Some _ -> incr retunes
    done;
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check int) "no retune directed" 0 !retunes;
    Alcotest.(check (float 0.)) "minor words over the ticks" 0. words
  end

let suite =
  [
    Alcotest.test_case "backoff is deterministic, capped, jittered" `Quick
      test_backoff_deterministic;
    Alcotest.test_case "estimator window mechanics" `Quick test_estimator_windows;
    Alcotest.test_case "controller hysteresis/cooldown/budget" `Quick
      test_controller_guards;
    Alcotest.test_case "supervisor backoff schedule" `Quick test_supervisor_schedule;
    Alcotest.test_case "observe-only policy replays identically" `Slow
      test_observe_only_identity;
    Alcotest.test_case "estimator accuracy (i.i.d.)" `Slow test_estimator_accuracy_iid;
    Alcotest.test_case "estimator accuracy (Gilbert-Elliott)" `Slow
      test_estimator_accuracy_ge;
    Alcotest.test_case "estimator accuracy (1% churn, ledger-corrected)" `Slow
      test_estimator_accuracy_churn;
    Alcotest.test_case "adaptive retuning passes the audit" `Slow
      test_retune_e2e_audited;
    Alcotest.test_case "supervised partition recovery" `Slow
      test_supervised_partition_recovery;
    Alcotest.test_case "resil_* metrics exported" `Quick test_resil_metrics_exported;
    Alcotest.test_case "resil_loss_true is the last round's loss" `Quick
      test_resil_true_loss_gauge;
    Alcotest.test_case "chaos soak: audited, connected, estimate near truth"
      `Quick test_chaos_soak;
    Alcotest.test_case "tuner tick allocation" `Quick test_tuner_tick_allocation;
  ]
