(* Tests for the fault-injection layer (lib/faults): the Gilbert-Elliott
   stationary mapping and its empirical convergence, the scenario language,
   the injector's verdict pipeline, bit-for-bit identity of the default
   scenario, and end-to-end partition / crash runs under the strict
   invariant audit. *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Properties = Sf_core.Properties
module Churn = Sf_core.Churn
module Loss = Sf_faults.Loss
module Scenario = Sf_faults.Scenario
module Injector = Sf_faults.Injector
module Invariant = Sf_check.Invariant

let scenario_of_string s =
  match Scenario.of_string s with
  | Ok sc -> sc
  | Error e -> Alcotest.fail ("scenario parse: " ^ e)

(* --- Gilbert-Elliott mapping --- *)

(* The documented inversion: given a target stationary mean and mean burst
   length, [gilbert_elliott] must return a chain whose stationary loss and
   burst length are exactly those targets. *)
let test_ge_mapping () =
  let ge = Loss.gilbert_elliott ~mean_loss:0.2 ~mean_burst:8.0 () in
  Alcotest.(check (float 1e-12)) "stationary loss" 0.2 (Loss.stationary_loss ge);
  Alcotest.(check (float 1e-12)) "mean burst length" 8.0 (Loss.mean_burst_length ge);
  let ge =
    Loss.gilbert_elliott ~loss_good:0.01 ~loss_bad:0.9 ~mean_loss:0.3
      ~mean_burst:5.0 ()
  in
  Alcotest.(check (float 1e-12)) "lossy good state still hits the mean" 0.3
    (Loss.stationary_loss ge);
  let rejects f = match f () with
    | (_ : Loss.ge) -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  rejects (fun () -> Loss.gilbert_elliott ~mean_loss:1.5 ~mean_burst:8.0 ());
  rejects (fun () -> Loss.gilbert_elliott ~mean_loss:0.2 ~mean_burst:0.5 ());
  rejects (fun () ->
      (* mean above the bad-state loss rate is unreachable *)
      Loss.gilbert_elliott ~loss_bad:0.4 ~mean_loss:0.5 ~mean_burst:4.0 ())

(* Empirical convergence of the two-state chain to its stationary mean:
   1e6 seeded draws must land within 1% (0.002 absolute at mean 0.2). *)
let test_ge_convergence () =
  let ge = Loss.gilbert_elliott ~mean_loss:0.2 ~mean_burst:8.0 () in
  let process = Loss.create (Loss.Gilbert_elliott ge) in
  let rng = Sf_prng.Rng.create 7 in
  let draws = 1_000_000 in
  let drops = ref 0 in
  for _ = 1 to draws do
    (* [chance] is the legacy i.i.d. rate; a GE process ignores it. *)
    if Loss.drop process rng ~chance:0.9 ~src:0 ~dst:1 then incr drops
  done;
  let observed = float_of_int !drops /. float_of_int draws in
  Alcotest.(check bool)
    (Fmt.str "observed %.4f within 0.002 of 0.2" observed)
    true
    (Float.abs (observed -. 0.2) < 0.002)

(* Known-answer drop sequences: the chain's draws are pinned bit for bit,
   for the default Good/Bad rates and for a lossy Good state, together
   with the stream position after them. *)
let test_ge_drop_sequence () =
  let run ge seed =
    let process = Loss.create (Loss.Gilbert_elliott ge) in
    let rng = Sf_prng.Rng.create seed in
    let drops =
      String.init 64 (fun _ ->
          if Loss.drop process rng ~chance:0. ~src:0 ~dst:1 then '1' else '0')
    in
    (drops, rng)
  in
  let drops, _ = run (Loss.gilbert_elliott ~mean_loss:0.2 ~mean_burst:8. ()) 11 in
  Alcotest.(check string) "ge:0.2:8 from seed 11"
    "0000000000000000100000000000000000011111111111111111111111011111" drops;
  let drops, rng =
    run
      (Loss.gilbert_elliott ~loss_good:0.05 ~loss_bad:0.7 ~mean_loss:0.3
         ~mean_burst:4. ())
      5
  in
  Alcotest.(check string) "lossy Good state from seed 5"
    "0000000000000000000000010100000110010001000000000011100100000000" drops;
  Alcotest.(check int) "stream position after 64 drops" 708633
    (Sf_prng.Rng.int rng 1_000_000)

(* Per-link processes use the supplied rate function, not [chance]. *)
let test_per_link () =
  let process =
    Loss.create (Loss.Per_link (fun src dst -> if src = dst - 1 then 1.0 else 0.0))
  in
  let rng = Sf_prng.Rng.create 5 in
  Alcotest.(check bool) "doomed link drops" true
    (Loss.drop process rng ~chance:0.0 ~src:3 ~dst:4);
  Alcotest.(check bool) "clean link delivers" false
    (Loss.drop process rng ~chance:0.0 ~src:3 ~dst:9)

(* --- Scenario language --- *)

let test_scenario_roundtrip () =
  let text =
    "ge:0.2:8;partition@10-20:2;crash@25-35:0-9;delay@40-45:4;corrupt@50-55:0.01"
  in
  let sc = scenario_of_string text in
  Alcotest.(check int) "window count" 4 (List.length sc.Scenario.windows);
  (match sc.Scenario.loss with
  | Loss.Gilbert_elliott ge ->
    Alcotest.(check (float 1e-9)) "mean parsed" 0.2 (Loss.stationary_loss ge);
    Alcotest.(check (float 1e-9)) "burst parsed" 8.0 (Loss.mean_burst_length ge)
  | Loss.Iid | Loss.Per_link _ -> Alcotest.fail "expected a GE loss model");
  Alcotest.(check string) "prints back to itself" text (Scenario.to_string sc);
  let again = scenario_of_string (Scenario.to_string sc) in
  Alcotest.(check string) "stable under reparse" text (Scenario.to_string again);
  Alcotest.(check string) "default renders as iid" "iid"
    (Scenario.to_string Scenario.default);
  Alcotest.(check bool) "default reparses to no windows" true
    ((scenario_of_string "iid").Scenario.windows = [])

let test_scenario_rejects_malformed () =
  List.iter
    (fun bad ->
      match Scenario.of_string bad with
      | Ok _ -> Alcotest.fail (Fmt.str "accepted malformed scenario %S" bad)
      | Error _ -> ())
    [
      "ge:0.2" (* missing burst *);
      "ge:1.5:8" (* unreachable mean *);
      "partition@20-10:2" (* empty window *);
      "partition@0-10:1" (* one part is no partition *);
      "crash@0-10:5-2" (* inverted node range *);
      "delay@0-10:0" (* non-positive factor *);
      "corrupt@0-10:1.5" (* rate above 1 *);
      "iid;ge:0.1:4" (* two loss models *);
      "bogus" (* unknown item *);
    ]

(* --- Validation unification: parse errors come from validate_window --- *)

(* Parsing is structural only; every semantic range check routes through
   [validate_window], so the parser's error messages are the validator's
   messages verbatim. *)
let test_parse_errors_from_validate_window () =
  let error s =
    match Scenario.of_string s with
    | Ok _ -> Alcotest.fail (Fmt.str "accepted %S" s)
    | Error e -> e
  in
  let validator_message w =
    match Scenario.validate_window w with
    | () -> Alcotest.fail "validator accepted a malformed window"
    | exception Invalid_argument m -> m
  in
  Alcotest.(check string)
    "empty window: parser = validator"
    (validator_message
       { Scenario.start = 20.; stop = 10.; fault = Scenario.Partition { parts = 2 } })
    (error "partition@20-10:2");
  Alcotest.(check string)
    "one-part partition: parser = validator"
    (validator_message
       { Scenario.start = 0.; stop = 10.; fault = Scenario.Partition { parts = 1 } })
    (error "partition@0-10:1");
  Alcotest.(check string)
    "inverted crash range: parser = validator"
    (validator_message
       { Scenario.start = 0.; stop = 10.; fault = Scenario.Crash { first = 5; last = 2 } })
    (error "crash@0-10:5-2");
  Alcotest.(check string)
    "zero-length window: parser = validator"
    (validator_message
       { Scenario.start = 7.; stop = 7.; fault = Scenario.Delay { factor = 2. } })
    (error "delay@7-7:2")

(* --- Crash-window overlap rejection --- *)

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let test_crash_overlap_rejected () =
  (* Time overlap and node-range overlap together: rejected, with both
     windows named in the message. *)
  (match Scenario.of_string "crash@0-10:0-5;crash@5-15:3-8" with
  | Ok _ -> Alcotest.fail "accepted overlapping crash windows"
  | Error e ->
    Alcotest.(check bool)
      (Fmt.str "message mentions the overlap (%s)" e)
      true
      (contains_sub ~sub:"overlap" e));
  (* The same rule through the programmatic constructor. *)
  (match
     Scenario.make
       ~windows:
         [
           { Scenario.start = 0.; stop = 10.; fault = Scenario.Crash { first = 0; last = 5 } };
           { Scenario.start = 5.; stop = 15.; fault = Scenario.Crash { first = 3; last = 8 } };
         ]
       ()
   with
  | _ -> Alcotest.fail "make accepted overlapping crash windows"
  | exception Invalid_argument e ->
    Alcotest.(check bool) "make names the overlap" true
      (contains_sub ~sub:"overlap" e));
  (* Disjoint node ranges: allowed even when the times overlap. *)
  (match Scenario.of_string "crash@0-10:0-5;crash@5-15:6-9" with
  | Ok sc -> Alcotest.(check int) "two windows kept" 2 (List.length sc.Scenario.windows)
  | Error e -> Alcotest.fail ("rejected disjoint-range crashes: " ^ e));
  (* Disjoint times: allowed even on the same node range. *)
  (match Scenario.of_string "crash@0-10:0-5;crash@10-20:0-5" with
  | Ok sc -> Alcotest.(check int) "back-to-back kept" 2 (List.length sc.Scenario.windows)
  | Error e -> Alcotest.fail ("rejected back-to-back crashes: " ^ e));
  (* Same-class windows without a node range still compose freely — the
     overlapping-partition recovery test depends on this. *)
  match Scenario.of_string "partition@5-60:2;partition@40-105:3" with
  | Ok sc -> Alcotest.(check int) "overlapping partitions kept" 2 (List.length sc.Scenario.windows)
  | Error e -> Alcotest.fail ("rejected overlapping partitions: " ^ e)

(* --- Injector verdicts --- *)

let test_injector_verdicts () =
  let scenario = scenario_of_string "partition@0-10:2;corrupt@20-30:1" in
  let inj = Injector.create ~scenario ~n:10 () in
  let clock = ref 5.0 in
  Injector.set_clock inj (fun () -> !clock);
  let rng = Sf_prng.Rng.create 3 in
  let judge ~src ~dst = Injector.judge inj rng ~chance:0.0 ~src ~dst in
  (* Blocks at parts=2, n=10: ids 0-4 vs 5-9. *)
  (match judge ~src:0 ~dst:9 with
  | Injector.Drop Injector.Partitioned -> ()
  | _ -> Alcotest.fail "cross-block send must be partitioned");
  (match judge ~src:0 ~dst:4 with
  | Injector.Deliver -> ()
  | _ -> Alcotest.fail "same-block send must deliver");
  (match judge ~src:(-1) ~dst:9 with
  | Injector.Deliver -> ()
  | _ -> Alcotest.fail "out-of-band sends (src -1) bypass the partition");
  clock := 25.0;
  (match judge ~src:0 ~dst:9 with
  | Injector.Corrupt_payload -> ()
  | _ -> Alcotest.fail "corruption window at rate 1 must corrupt");
  clock := 50.0;
  (match judge ~src:0 ~dst:9 with
  | Injector.Deliver -> ()
  | _ -> Alcotest.fail "no active window: deliver");
  let stats = Injector.statistics inj in
  Alcotest.(check int) "judged" 5 stats.Injector.judged;
  Alcotest.(check int) "partition drops" 1 stats.Injector.partition_drops;
  Alcotest.(check int) "corruptions" 1 stats.Injector.corruptions;
  Alcotest.(check bool) "window transitions recorded" true
    (stats.Injector.fault_transitions > 0)

let test_injector_crash () =
  let scenario = scenario_of_string "crash@0-10:3-5" in
  let inj = Injector.create ~scenario ~n:10 () in
  Injector.set_clock inj (fun () -> 5.0);
  let rng = Sf_prng.Rng.create 4 in
  Alcotest.(check bool) "inside range crashed" true (Injector.is_crashed inj 4);
  Alcotest.(check bool) "outside range alive" false (Injector.is_crashed inj 6);
  (match Injector.judge inj rng ~chance:0.0 ~src:0 ~dst:4 with
  | Injector.Drop Injector.Crashed -> ()
  | _ -> Alcotest.fail "send to a crashed node must drop");
  (match Injector.judge inj rng ~chance:0.0 ~src:0 ~dst:6 with
  | Injector.Deliver -> ()
  | _ -> Alcotest.fail "send between live nodes must deliver");
  Injector.set_clock inj (fun () -> 20.0);
  Alcotest.(check bool) "window over: resumed" false (Injector.is_crashed inj 4)

(* --- Bit-for-bit identity of the default scenario --- *)

(* The fault layer must be invisible when unused: a runner built with
   [Scenario.default] consumes exactly the RNG stream of a runner built
   with no scenario at all, so views, serials, and counters match. *)
let dump_views r =
  Array.to_list (Runner.live_ids r)
  |> List.map (fun u ->
         (u, Sf_core.View.entries (Sf_core.View.copy_row (Runner.store r) u)))

let test_default_scenario_identity () =
  let make scenario =
    let n = 120 in
    let config = Protocol.make_config ~view_size:12 ~lower_threshold:4 in
    let topology = Topology.regular (Sf_prng.Rng.create 91) ~n ~out_degree:8 in
    let r = Runner.create ?scenario ~seed:90 ~n ~loss_rate:0.05 ~config ~topology () in
    Runner.run_rounds r 60;
    r
  in
  let plain = make None in
  let defaulted = make (Some Scenario.default) in
  Alcotest.(check bool) "identical views (ids, serials, anchors, births)" true
    (dump_views plain = dump_views defaulted);
  Alcotest.(check int) "identical mint bound" (Runner.minted_serials plain)
    (Runner.minted_serials defaulted);
  let wp = Runner.world_counters plain in
  let wd = Runner.world_counters defaulted in
  Alcotest.(check bool) "identical world counters" true (wp = wd)

(* --- End-to-end fault runs --- *)

(* The partition worlds below are run over [worlds] fixed worlds, world
   [k] seeded [base + k]: whether a cut splits the overlay depends on the
   world, so each test asserts per world what holds on every world and
   counts the rest against a bound. *)
let worlds = 30

(* World [seed]: 200 nodes, s = 8, dL = 2, 5% loss, a 6-regular start. *)
let partition_world ~scenario ~seed =
  let config = Protocol.make_config ~view_size:8 ~lower_threshold:2 in
  let n = 200 in
  let topology = Topology.regular (Sf_prng.Rng.create (seed + 1)) ~n ~out_degree:6 in
  Runner.create ~scenario:(scenario_of_string scenario) ~seed ~n ~loss_rate:0.05
    ~config ~topology ()

(* Run [scenario] for [rounds] rounds in each world; every world left split
   must be re-knit by the repair pass within [max_rounds] with at least
   one repair.  Returns the number of worlds that split. *)
let split_worlds ?(worlds = worlds) ~scenario ~base ~rounds ~max_rounds () =
  List.init worlds (fun k ->
      let seed = base + k in
      let r = partition_world ~scenario ~seed in
      Runner.run_rounds r rounds;
      let split = not (Properties.is_weakly_connected r) in
      if split then begin
        match Churn.recover_connectivity ~max_rounds r with
        | Some (_, repairs) ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: recovery repaired a straggler" seed)
            true (repairs >= 1);
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: weakly connected after recovery" seed)
            true
            (Properties.is_weakly_connected r)
        | None ->
          Alcotest.fail
            (Printf.sprintf "seed %d: not re-knit within %d rounds" seed max_rounds)
      end;
      split)
  |> List.filter Fun.id |> List.length

(* A partition splits the membership graph once it outlives view decay
   (small views, long window), and the out-of-band rendezvous rule re-knits
   it within a bounded number of rounds.  A 100-round cut splits 24 of
   100 worlds; only some worlds split, so the count runs over 100. *)
let test_partition_split_and_recovery () =
  let worlds = 100 in
  let split =
    split_worlds ~worlds ~scenario:"partition@5-105:2" ~base:530 ~rounds:110
      ~max_rounds:50 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "100-round partition split %d of %d worlds (>= 12)" split worlds)
    true (split >= 12)

(* A short partition with large views heals on its own: surviving
   cross-partition entries reconnect the graph within a few rounds. *)
let test_partition_heals_quickly () =
  let config = Protocol.make_config ~view_size:40 ~lower_threshold:18 in
  let n = 200 in
  let scenario = scenario_of_string "partition@20-50:2" in
  let topology = Topology.regular (Sf_prng.Rng.create 521) ~n ~out_degree:30 in
  let r =
    Runner.create ~scenario ~seed:520 ~n ~loss_rate:0.01 ~config ~topology ()
  in
  Runner.run_rounds r 50;
  (* The window just closed; give the overlay at most 5 rounds. *)
  let rec reconnect k =
    if Properties.is_weakly_connected r then k
    else if k >= 5 then -1
    else begin
      Runner.run_rounds r 1;
      reconnect (k + 1)
    end
  in
  let k = reconnect 0 in
  Alcotest.(check bool) "reconnected within 5 rounds of healing" true (k >= 0)

(* Overlapping partitions with different split arities: a 2-way cut from
   round 5 and a 3-way cut from round 40 are active together for 20
   rounds, then the 3-way cut persists alone.  The rendezvous rule must
   re-knit whatever is left standing — recovery can't assume the overlay
   fractured along a single clean cut.  The cuts split 15 of the 30
   worlds. *)
let test_overlapping_partitions_recovery () =
  let split =
    split_worlds ~scenario:"partition@5-60:2;partition@40-105:3" ~base:540
      ~rounds:110 ~max_rounds:60 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "overlapping partitions split %d of %d worlds (>= 4)" split worlds)
    true (split >= 4)

(* Repeated partitions: the same 2-way cut opens, heals, and opens again.
   Recovery after the second window must work exactly like after the
   first — [recover_connectivity] is reusable, not one-shot. *)
let test_repeated_partitions_recovery () =
  let config = Protocol.make_config ~view_size:8 ~lower_threshold:2 in
  let n = 200 in
  let scenario = scenario_of_string "partition@5-60:2;partition@70-150:2" in
  let topology = Topology.regular (Sf_prng.Rng.create 551) ~n ~out_degree:6 in
  let r =
    Runner.create ~scenario ~seed:550 ~n ~loss_rate:0.05 ~config ~topology ()
  in
  Runner.run_rounds r 65;
  if not (Properties.is_weakly_connected r) then
    (match Churn.recover_connectivity ~max_rounds:60 r with
    | Some _ -> ()
    | None -> Alcotest.fail "recovery failed after the first partition");
  Alcotest.(check bool) "connected between the windows" true
    (Properties.is_weakly_connected r);
  Runner.run_rounds r 90;
  Alcotest.(check bool) "second partition split the overlay again" false
    (Properties.is_weakly_connected r);
  (match Churn.recover_connectivity ~max_rounds:60 r with
  | Some (_, repairs) ->
    Alcotest.(check bool) "second recovery repaired" true (repairs >= 1)
  | None -> Alcotest.fail "recovery failed after the repeated partition");
  Alcotest.(check bool) "weakly connected after the second recovery" true
    (Properties.is_weakly_connected r)

(* A partition overlapping a crash wave: a tenth of the nodes freeze in
   the middle of a long partition and resume after it ends.  Once both
   windows close, recovery must re-knit the overlay including the
   resumed nodes' stale views. *)
let test_partition_overlapping_crash_recovery () =
  let config = Protocol.make_config ~view_size:8 ~lower_threshold:2 in
  let n = 200 in
  let scenario = scenario_of_string "partition@5-105:2;crash@50-115:0-19" in
  let topology = Topology.regular (Sf_prng.Rng.create 561) ~n ~out_degree:6 in
  let r =
    Runner.create ~scenario ~seed:560 ~n ~loss_rate:0.05 ~config ~topology ()
  in
  Runner.run_rounds r 120;
  Alcotest.(check bool) "nobody is crashed after both windows" true
    (not (Runner.is_crashed r 0));
  if not (Properties.is_weakly_connected r) then
    (match Churn.recover_connectivity ~max_rounds:60 r with
    | Some (_, repairs) ->
      Alcotest.(check bool) "recovery repaired" true (repairs >= 1)
    | None -> Alcotest.fail "recovery failed after partition + crash");
  Alcotest.(check bool) "weakly connected with resumed nodes" true
    (Properties.is_weakly_connected r)

(* Crash/restart under the strict audit: no invariant fires while a tenth
   of the system is frozen, boundary crossings resync the conservation
   baseline, and resumed nodes come back with their stale views. *)
let test_crash_restart_strict_audit () =
  let config = Protocol.make_config ~view_size:16 ~lower_threshold:6 in
  let n = 100 in
  let scenario = scenario_of_string "crash@10-20:0-9" in
  let topology = Topology.regular (Sf_prng.Rng.create 71) ~n ~out_degree:10 in
  let r =
    Runner.create ~scenario ~seed:70 ~n ~loss_rate:0.02 ~config ~topology ()
  in
  let stats = Invariant.audited_run ~mode:Invariant.Strict r ~rounds:40 in
  Alcotest.(check int) "no violations" 0 stats.Invariant.violation_count;
  Alcotest.(check bool) "window boundaries resynced the baseline" true
    (stats.Invariant.resyncs >= 2);
  (match Runner.fault_statistics r with
  | None -> Alcotest.fail "scenario installed but no fault statistics"
  | Some fs ->
    Alcotest.(check bool) "arrivals at crashed nodes were dropped" true
      (fs.Injector.crash_drops > 0));
  Alcotest.(check bool) "nobody is crashed after the window" true
    (not (Runner.is_crashed r 0));
  Alcotest.(check bool) "node 0 live" true (Runner.is_live r 0);
  Alcotest.(check bool) "resumed node kept a usable view" true
    (Sf_core.View.Flat.degree (Runner.store r) 0 > 0)

(* Reconnection probes are judged like sends.  While a two-way partition
   holds, a starved node that remembers only ids across the cut reaches
   none of them; once it lifts, the same probes find a donor there.  The
   probes show in the injector's counts but in no world counter. *)
let test_reconnect_probes_respect_partition () =
  let config = Protocol.make_config ~view_size:12 ~lower_threshold:4 in
  let n = 60 in
  let topology = Topology.regular (Sf_prng.Rng.create 81) ~n ~out_degree:6 in
  let r =
    Runner.create ~scenario:(scenario_of_string "partition@2-6:2") ~seed:80 ~n
      ~loss_rate:0. ~config ~topology ()
  in
  let across = List.init 10 (fun k -> 30 + k) in
  let starve () =
    ignore (Sf_core.View.Flat.clear_row (Runner.store r) 0);
    (Runner.seen_ids r).(0) <- across
  in
  let partition_drops () =
    match Runner.fault_statistics r with
    | Some fs -> fs.Injector.partition_drops
    | None -> Alcotest.fail "scenario installed but no fault statistics"
  in
  Runner.run_rounds r 3;
  starve ();
  let counters = Runner.world_counters r and drops = partition_drops () in
  (match Runner.reconnect r ~node_id:0 with
  | Runner.Exhausted { probes } ->
    Alcotest.(check int) "every remembered id probed" 10 probes;
    Alcotest.(check int) "every request dropped by the cut" (drops + 10)
      (partition_drops ())
  | Runner.Reconnected { donor; _ } ->
    Alcotest.fail (Printf.sprintf "a probe crossed the active partition to %d" donor));
  Alcotest.(check bool) "probes move no world counter" true
    (Runner.world_counters r = counters);
  Runner.run_rounds r 4;
  starve ();
  match Runner.reconnect r ~node_id:0 with
  | Runner.Reconnected { donor; probes; _ } ->
    Alcotest.(check int) "first probe answered" 1 probes;
    Alcotest.(check bool) "donor across the former cut" true (List.mem donor across)
  | Runner.Exhausted _ -> Alcotest.fail "no probe answered after the partition"

let suite =
  [
    Alcotest.test_case "GE mapping is exact" `Quick test_ge_mapping;
    Alcotest.test_case "GE converges to the stationary mean (1e6 draws)" `Quick
      test_ge_convergence;
    Alcotest.test_case "per-link loss uses the link rate" `Quick test_per_link;
    Alcotest.test_case "scenario round-trips" `Quick test_scenario_roundtrip;
    Alcotest.test_case "scenario rejects malformed input" `Quick
      test_scenario_rejects_malformed;
    Alcotest.test_case "parse errors come from validate_window" `Quick
      test_parse_errors_from_validate_window;
    Alcotest.test_case "overlapping crash windows are rejected" `Quick
      test_crash_overlap_rejected;
    Alcotest.test_case "injector verdicts (partition, corrupt)" `Quick
      test_injector_verdicts;
    Alcotest.test_case "injector verdicts (crash)" `Quick test_injector_crash;
    Alcotest.test_case "default scenario is bit-for-bit invisible" `Quick
      test_default_scenario_identity;
    Alcotest.test_case "long partition splits; rendezvous recovers" `Slow
      test_partition_split_and_recovery;
    Alcotest.test_case "short partition heals within 5 rounds" `Slow
      test_partition_heals_quickly;
    Alcotest.test_case "overlapping partitions recover" `Slow
      test_overlapping_partitions_recovery;
    Alcotest.test_case "repeated partitions recover twice" `Slow
      test_repeated_partitions_recovery;
    Alcotest.test_case "partition overlapping crash recovers" `Slow
      test_partition_overlapping_crash_recovery;
    Alcotest.test_case "crash/restart passes the strict audit" `Quick
      test_crash_restart_strict_audit;
    Alcotest.test_case "GE drop sequence known answers" `Quick test_ge_drop_sequence;
    Alcotest.test_case "reconnect probes respect a partition" `Quick
      test_reconnect_probes_respect_partition;
  ]
