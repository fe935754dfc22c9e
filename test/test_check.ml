(* Tests for the Sf_check.Invariant runtime audit: clean systems pass a
   fully audited run (the acceptance runs: 1000 nodes, 10k actions, loss 0
   and 0.2), and each invariant catches a deliberately corrupted view or
   action. *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module View = Sf_core.View
module Topology = Sf_core.Topology
module Invariant = Sf_check.Invariant

let make_system ?(n = 100) ?(view_size = 12) ?(lower_threshold = 4) ?(loss = 0.)
    ?(seed = 11) () =
  let config = Protocol.make_config ~view_size ~lower_threshold in
  let out_degree = min (n - 1) ((view_size + lower_threshold) / 2) in
  let out_degree = if out_degree mod 2 = 0 then out_degree else out_degree - 1 in
  let topology = Topology.regular (Sf_prng.Rng.create (seed + 1)) ~n ~out_degree in
  Runner.create ~seed ~n ~loss_rate:loss ~config ~topology ()

let some_node r = Runner.random_live_id r

module Flat = View.Flat

(* The occupied slots of node [u]'s row, in order. *)
let occupied r u = List.init (Flat.degree (Runner.store r) u) Fun.id

(* Removes the first entry of node [u]'s row behind the runner's back;
   [false] when the row is empty. *)
let clear_first r u =
  match occupied r u with
  | k :: _ -> Flat.remove (Runner.store r) u k; true
  | [] -> false

let invariants vs = List.sort_uniq compare (List.map (fun v -> v.Invariant.invariant) vs)

(* --- The acceptance runs: audited at scale --- *)

let audited_at_scale ~loss () =
  let r = make_system ~n:1000 ~view_size:40 ~lower_threshold:18 ~loss ~seed:42 () in
  (* 10 rounds of 1000 actions each = 10_000 audited actions. *)
  let stats = Invariant.audited_run ~mode:Invariant.Strict ~scan_every:1000 r ~rounds:10 in
  Alcotest.(check int) "all actions checked" 10_000 stats.Invariant.actions_checked;
  Alcotest.(check bool) "full scans ran" true (stats.Invariant.full_scans >= 10);
  Alcotest.(check int) "no violations" 0 stats.Invariant.violation_count;
  Alcotest.(check (list string)) "final scan clean" [] (invariants (Invariant.scan r))

let test_audited_run_loss_free () = audited_at_scale ~loss:0. ()
let test_audited_run_lossy () = audited_at_scale ~loss:0.2 ()

(* --- Each invariant catches a seeded corruption --- *)

(* Clearing one slot leaves an odd outdegree: parity violation. *)
let test_scan_catches_odd_degree () =
  let r = make_system () in
  Runner.run_rounds r 5;
  Alcotest.(check (list string)) "clean before" [] (invariants (Invariant.scan r));
  Alcotest.(check bool) "corrupted" true (clear_first r (some_node r));
  Alcotest.(check (list string)) "parity caught" [ "degree-parity" ]
    (invariants (Invariant.scan r))

(* Copying an entry's serial into another slot breaks global uniqueness. *)
let test_scan_catches_duplicate_serial () =
  let r = make_system () in
  Runner.run_rounds r 5;
  let store = Runner.store r in
  let node = some_node r in
  (match occupied r node with
  | [] -> Alcotest.fail "expected a non-empty view"
  | i :: _ ->
    let other = some_node r in
    (match List.filter (fun j -> other <> node || j <> i) (occupied r other) with
    | [] -> Alcotest.fail "expected a second occupied slot"
    | j :: _ ->
      Flat.set store other j ~id:(Flat.id_at store node i)
        ~serial:(Flat.serial_at store node i) ~anchor:(Flat.anchor_at store node i)
        ~born:(Flat.born_at store node i)));
  let found = invariants (Invariant.scan r) in
  Alcotest.(check bool) "serial-uniqueness caught" true
    (List.mem "serial-uniqueness" found)

(* A serial at or above the mint bound cannot have been minted. *)
let test_scan_catches_serial_bound () =
  let r = make_system () in
  Runner.run_rounds r 2;
  Flat.set (Runner.store r) (some_node r) 0 ~id:0
    ~serial:(Runner.minted_serials r + 1_000) ~anchor:(-1) ~born:0;
  let found = invariants (Invariant.scan r) in
  Alcotest.(check bool) "serial-bound caught" true (List.mem "serial-bound" found)

(* An entry born in the future contradicts the action clock. *)
let test_scan_catches_birth_bound () =
  let r = make_system () in
  Runner.run_rounds r 2;
  Flat.set (Runner.store r) (some_node r) 1 ~id:0
    ~serial:(Runner.minted_serials r - 1) ~anchor:(-1)
    ~born:(Runner.action_count r + 999);
  let found = invariants (Invariant.scan r) in
  Alcotest.(check bool) "birth-bound caught" true (List.mem "birth-bound" found)

(* Removing an edge behind the auditor's back breaks conservation (or, if
   the corrupted node happens to act first, its parity check). *)
let test_strict_audit_catches_out_of_band_edit () =
  let r = make_system ~n:50 ~loss:0. () in
  Runner.run_rounds r 2;
  ignore (Invariant.attach ~mode:Invariant.Strict ~scan_every:0 r);
  ignore (clear_first r (some_node r));
  let caught =
    try
      Runner.run_actions r 50;
      None
    with Invariant.Violation v -> Some v.Invariant.invariant
  in
  Invariant.detach r;
  match caught with
  | Some ("edge-conservation" | "degree-parity" | "M1-degree-bound") -> ()
  | Some other -> Alcotest.fail ("unexpected invariant: " ^ other)
  | None -> Alcotest.fail "corruption not caught"

(* Warn mode records instead of raising. *)
let test_warn_mode_records () =
  let r = make_system () in
  Runner.run_rounds r 2;
  ignore (clear_first r (some_node r));
  let stats = Invariant.attach ~mode:Invariant.Warn ~scan_every:1 r in
  Runner.run_actions r 3;
  Invariant.detach r;
  Alcotest.(check bool) "violations recorded" true (stats.Invariant.violation_count > 0);
  Alcotest.(check bool) "list kept" true (stats.Invariant.violations <> [])

(* After detach, the auditor is gone: corrupted runs no longer raise. *)
let test_detach_disarms () =
  let r = make_system () in
  ignore (Invariant.attach ~mode:Invariant.Strict ~scan_every:1 r);
  Invariant.detach r;
  ignore (clear_first r (some_node r));
  Runner.run_actions r 20 (* must not raise *)

(* Churn resyncs the conservation baseline instead of misfiring. *)
let test_structural_changes_resync () =
  let r = make_system ~n:80 ~loss:0. () in
  Runner.run_rounds r 3;
  let stats = Invariant.attach ~mode:Invariant.Strict ~scan_every:500 r in
  Runner.run_actions r 200;
  let id = Runner.add_node r in
  Runner.run_actions r 200;
  ignore (Runner.remove_node r id);
  Runner.run_actions r 200;
  Invariant.detach r;
  Alcotest.(check int) "no violations across churn" 0 stats.Invariant.violation_count;
  Alcotest.(check bool) "baseline resyncs seen" true (stats.Invariant.resyncs >= 2)

(* Timed mode: per-action conservation disarms on the first in-flight
   message, degree and structural checks keep running via the sim monitor. *)
let test_timed_mode_audit () =
  let r = make_system ~n:60 ~loss:0.05 ~seed:3 () in
  let stats = Invariant.attach ~mode:Invariant.Strict ~scan_every:200 r in
  Runner.start_timed r (Runner.Poisson 1.0);
  Runner.run_until r 40.;
  Invariant.detach r;
  Alcotest.(check bool) "actions audited" true (stats.Invariant.actions_checked > 500);
  Alcotest.(check bool) "receipts audited" true (stats.Invariant.receipts_seen > 0);
  Alcotest.(check int) "no false positives" 0 stats.Invariant.violation_count;
  Alcotest.(check (list string)) "final scan clean" [] (invariants (Invariant.scan r))

(* Reconnection installs donor-anchored copies; the audit must accept the
   whole repair as a structural change. *)
let test_reconnect_resyncs () =
  let r = make_system ~n:40 ~loss:0. () in
  Runner.run_rounds r 3;
  let stats = Invariant.attach ~mode:Invariant.Strict ~scan_every:100 r in
  (match Runner.reconnect r ~node_id:(some_node r) with
  | Runner.Reconnected _ -> ()
  | Runner.Exhausted _ -> ());
  Runner.run_actions r 100;
  Invariant.detach r;
  Alcotest.(check int) "no violations" 0 stats.Invariant.violation_count

(* A departed node's row must stay empty: the runner clears it on leave,
   and the scan reports an entry planted there afterwards. *)
let test_scan_catches_dead_row () =
  let r = make_system () in
  Runner.run_rounds r 2;
  let victim = some_node r in
  Alcotest.(check bool) "removed" true (Runner.remove_node r victim);
  Alcotest.(check (list string)) "clean after the leave" []
    (invariants (Invariant.scan r));
  Flat.set (Runner.store r) victim 0 ~id:1 ~serial:(Runner.minted_serials r - 1)
    ~anchor:(-1) ~born:0;
  Alcotest.(check (list string)) "dead row caught" [ "dead-slot-empty" ]
    (invariants (Invariant.scan r))

(* --- A cluster's reported final views --- *)

let report_config = Protocol.make_config ~view_size:6 ~lower_threshold:0

let reports views =
  List.mapi
    (fun u ids ->
      (u, List.map (fun id -> { View.id; serial = 0; anchor = None; born = 0 }) ids))
    views

(* Four nodes, each naming both ring neighbours: sound, even, connected. *)
let ring = [ [ 1; 3 ]; [ 2; 0 ]; [ 3; 1 ]; [ 0; 2 ] ]

let with_row u ids = List.mapi (fun v row -> if v = u then ids else row) ring

(* [reports] break exactly [invariant], in a violation naming [node]. *)
let check_report_violation ~invariant ~node reports =
  match Invariant.check_reports ~config:report_config ~n:4 reports with
  | [ v ] ->
    Alcotest.(check string) "invariant" invariant v.Invariant.invariant;
    let prefix = Printf.sprintf "node %d" node in
    Alcotest.(check bool)
      (Printf.sprintf "%S names %s" v.Invariant.detail prefix)
      true
      (String.starts_with ~prefix v.Invariant.detail)
  | vs ->
    Alcotest.failf "expected one %s violation, got [%a]" invariant
      Fmt.(list ~sep:semi Invariant.pp_violation)
      vs

let test_reports_clean () =
  Alcotest.(check (list string)) "a clean cluster" []
    (invariants (Invariant.check_reports ~config:report_config ~n:4 (reports ring)))

let test_reports_violations () =
  let entry id = { View.id; serial = 0; anchor = None; born = 0 } in
  check_report_violation ~invariant:"M1-degree-bound" ~node:1
    (reports (with_row 1 [ 2; 0; 2; 0; 2; 0; 2; 0 ]));
  check_report_violation ~invariant:"M1-degree-bound" ~node:1
    (reports (with_row 1 [ 2; 0; 2; 0; 2; 0; 2 ]));
  check_report_violation ~invariant:"degree-parity" ~node:2
    (reports (with_row 2 [ 3; 1; 1 ]));
  check_report_violation ~invariant:"id-bound" ~node:0 (reports (with_row 0 [ 1; 7 ]));
  check_report_violation ~invariant:"report-id" ~node:9
    (reports ring @ [ (9, [ entry 0; entry 1 ]) ]);
  check_report_violation ~invariant:"report-repeated" ~node:3
    (reports ring @ [ (3, [ entry 0; entry 2 ]) ]);
  check_report_violation ~invariant:"view-soundness" ~node:0
    (reports (with_row 0 [ 1; -1 ]));
  check_report_violation ~invariant:"report-missing" ~node:2
    (List.filter (fun (u, _) -> u <> 2) (reports ring));
  check_report_violation ~invariant:"weak-connectivity" ~node:2
    (reports [ [ 1; 1 ]; [ 0; 0 ]; [ 3; 3 ]; [ 2; 2 ] ])

let suite =
  [
    Alcotest.test_case "audited 1k nodes x 10k actions, loss 0" `Slow
      test_audited_run_loss_free;
    Alcotest.test_case "audited 1k nodes x 10k actions, loss 0.2" `Slow
      test_audited_run_lossy;
    Alcotest.test_case "scan catches odd degree" `Quick test_scan_catches_odd_degree;
    Alcotest.test_case "scan catches duplicate serial" `Quick
      test_scan_catches_duplicate_serial;
    Alcotest.test_case "scan catches serial bound" `Quick test_scan_catches_serial_bound;
    Alcotest.test_case "scan catches birth bound" `Quick test_scan_catches_birth_bound;
    Alcotest.test_case "strict audit catches out-of-band edit" `Quick
      test_strict_audit_catches_out_of_band_edit;
    Alcotest.test_case "warn mode records" `Quick test_warn_mode_records;
    Alcotest.test_case "detach disarms" `Quick test_detach_disarms;
    Alcotest.test_case "structural changes resync" `Quick test_structural_changes_resync;
    Alcotest.test_case "timed mode audit" `Quick test_timed_mode_audit;
    Alcotest.test_case "reconnect resyncs" `Quick test_reconnect_resyncs;
    Alcotest.test_case "scan catches an entry in a departed row" `Quick
      test_scan_catches_dead_row;
    Alcotest.test_case "cluster reports: a clean cluster passes" `Quick test_reports_clean;
    Alcotest.test_case "cluster reports: each violation names its node" `Quick
      test_reports_violations;
  ]
