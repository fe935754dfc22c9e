(* Tests for the million-node scale path: the flat view representation,
   the Par fork-join shim, the sharded bulk-synchronous runner and its
   domain-count determinism contract, plus the hot-path fixes that rode
   along (incremental sorted live array, allocation-free sampling). *)

module Runner = Sf_core.Runner
module Sharded = Sf_core.Runner.Sharded
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module View = Sf_core.View
module Census = Sf_core.Census
module Sampling = Sf_core.Sampling
module Invariant = Sf_check.Invariant
module Rng = Sf_prng.Rng

let small_config = Protocol.make_config ~view_size:12 ~lower_threshold:4

let make_system ?(seed = 21) ?(n = 60) ?(loss = 0.) ?(config = small_config)
    ?(out_degree = 4) () =
  let rng = Rng.create (seed + 1000) in
  let topology = Topology.regular rng ~n ~out_degree in
  Runner.create ~seed ~n ~loss_rate:loss ~config ~topology ()

(* --- Flat representation: packed rows under every write --- *)

(* Apply a random op sequence (insert, overwrite or append, remove,
   clear) to a store and to a multiset model of each row, and require
   after every op that each row's degree equals a recount of its
   occupied slots, that those are exactly slots [0, degree), and that
   the row holds the model's ids. *)
let prop_degrees_match_recount =
  let nodes = 5 and s = 8 in
  QCheck.Test.make ~name:"View/Flat cached degrees match recount under ops"
    ~count:200
    QCheck.(small_list (triple small_nat small_nat small_nat))
    (fun ops ->
      let store = View.Flat.create ~nodes ~view_size:s in
      let model = Array.make nodes [] and rng = Rng.create 3 in
      let drop id ids =
        let rec go = function [] -> [] | x :: rest -> if x = id then rest else x :: go rest in
        go ids
      in
      let check_all () =
        for u = 0 to nodes - 1 do
          let d = View.Flat.degree store u in
          let occupied = List.filter (fun k -> View.Flat.id_at store u k >= 0) (List.init s Fun.id) in
          if occupied <> List.init d Fun.id then
            QCheck.Test.fail_reportf "row %d: degree %d but occupied slots %s" u d
              (String.concat "," (List.map string_of_int occupied));
          if List.sort compare (List.init d (View.Flat.id_at store u)) <> List.sort compare model.(u)
          then QCheck.Test.fail_reportf "row %d: ids differ from the model" u
        done;
        true
      in
      List.for_all
        (fun (kind, u, slot) ->
          let u = u mod nodes and d = View.Flat.degree store (u mod nodes) in
          let id = u + slot and serial = kind + (u * 100) + slot in
          (match kind mod 5 with
          | 0 | 1 when d < s ->
            View.Flat.insert store u rng ~id ~serial ~anchor:(-1) ~born:0;
            model.(u) <- id :: model.(u)
          | 2 when slot mod (d + 1) < s ->
            let slot = slot mod (d + 1) in
            if slot < d then model.(u) <- drop (View.Flat.id_at store u slot) model.(u);
            View.Flat.set store u slot ~id ~serial ~anchor:(-1) ~born:0;
            model.(u) <- id :: model.(u)
          | 3 when d > 0 ->
            let slot = slot mod d in
            model.(u) <- drop (View.Flat.id_at store u slot) model.(u);
            View.Flat.remove store u slot
          | 4 ->
            ignore (View.Flat.clear_row store u);
            model.(u) <- []
          | _ -> ());
          check_all ())
        ops)

(* Reference labelling, independent of Census's earlier-slot scan: an
   entry is a parallel copy when its id is already in a table of the ids
   seen earlier in the same view. *)
let census_oracle views =
  let total = ref 0 and self = ref 0 and anchored = ref 0 in
  let parallel = ref 0 and dependent = ref 0 in
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun owner view ->
      Hashtbl.reset seen;
      View.iter
        (fun _ e ->
          incr total;
          let is_self = e.View.id = owner in
          let is_anchored = e.View.anchor <> None in
          let is_parallel = Hashtbl.mem seen e.View.id in
          Hashtbl.replace seen e.View.id ();
          if is_self then incr self;
          if is_anchored then incr anchored;
          if is_parallel then incr parallel;
          if is_self || is_anchored || is_parallel then incr dependent)
        view)
    views;
  {
    Census.total_entries = !total;
    self_edges = !self;
    anchored = !anchored;
    parallel_surplus = !parallel;
    dependent_entries = !dependent;
    alpha =
      (if !total = 0 then 1.
       else 1. -. (float_of_int !dependent /. float_of_int !total));
  }

(* The flat census labels exactly as the boxed one, and both as the
   hash-table oracle: random views (ids drawn from a small range so
   self-edges and parallel copies are common, anchors on about half the
   entries; writes overwrite or append, and removals move the last entry)
   mirrored into [View.t]s and a [View.Flat] give equal records. *)
let prop_census_flat_matches_views =
  let nodes = 6 and s = 8 in
  QCheck.Test.make ~name:"Census.of_flat equals Census.of_views on mirrored views"
    ~count:300
    QCheck.(small_list (quad small_nat small_nat small_nat small_nat))
    (fun ops ->
      let views = Array.init nodes (fun _ -> View.create s) in
      let store = View.Flat.create ~nodes ~view_size:s in
      List.iter
        (fun (u, slot, id, a) ->
          let u = u mod nodes and id = id mod (nodes + 2) in
          let d = View.Flat.degree store u in
          if a mod 5 = 4 then begin
            if d > 0 then begin
              View.Flat.remove views.(u) 0 (slot mod d);
              View.Flat.remove store u (slot mod d)
            end
          end
          else if slot mod (d + 1) < s then begin
            let slot = slot mod (d + 1) in
            let anchor = if a mod 2 = 0 then Some (a mod nodes) else None in
            View.set views.(u) slot { View.id; serial = a; anchor; born = 0 };
            View.Flat.set store u slot ~id ~serial:a
              ~anchor:(Option.value anchor ~default:(-1))
              ~born:0
          end)
        ops;
      let boxed = Census.of_views (Seq.init nodes (fun u -> (u, views.(u)))) in
      let flat = Census.of_flat store in
      let oracle = census_oracle views in
      if boxed <> oracle then
        QCheck.Test.fail_reportf "of_views %a <> oracle %a" Census.pp boxed Census.pp
          oracle;
      if flat <> oracle then
        QCheck.Test.fail_reportf "of_flat %a <> oracle %a" Census.pp flat Census.pp
          oracle;
      true)

(* --- Flat lanes: ids, anchors and born stamps are 32 bits wide --- *)

let test_lane_ranges () =
  let store = View.Flat.create ~nodes:2 ~view_size:4 in
  View.Flat.set store 0 0 ~id:5 ~serial:9 ~anchor:1 ~born:3;
  let snapshot () =
    ( View.Flat.degree store 0,
      List.init 4 (fun slot ->
          ( View.Flat.id_at store 0 slot,
            View.Flat.serial_at store 0 slot,
            View.Flat.anchor_at store 0 slot,
            View.Flat.born_at store 0 slot )) )
  in
  let before = snapshot () in
  let rejects what slot ~id ~anchor ~born =
    (match View.Flat.set store 0 slot ~id ~serial:(1 lsl 40) ~anchor ~born with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ());
    if snapshot () <> before then Alcotest.failf "%s: store changed" what
  in
  (* Over an occupied slot and as an append: neither the lanes, the
     serial nor the degree may move. *)
  List.iter
    (fun slot ->
      rejects "id 2^31" slot ~id:(1 lsl 31) ~anchor:(-1) ~born:0;
      rejects "negative id" slot ~id:(-1) ~anchor:(-1) ~born:0;
      rejects "anchor -2" slot ~id:1 ~anchor:(-2) ~born:0;
      rejects "anchor 2^31" slot ~id:1 ~anchor:(1 lsl 31) ~born:0;
      rejects "born 2^31" slot ~id:1 ~anchor:(-1) ~born:(1 lsl 31);
      rejects "negative born" slot ~id:1 ~anchor:(-1) ~born:(-1))
    [ 0; 1 ];
  let top = (1 lsl 31) - 1 in
  View.Flat.set store 1 0 ~id:top ~serial:(1 lsl 40) ~anchor:top ~born:top;
  View.Flat.set store 1 1 ~id:0 ~serial:(-7) ~anchor:(-1) ~born:0;
  Alcotest.(check (list int)) "2^31 - 1 round-trips"
    [ top; 1 lsl 40; top; top ]
    View.Flat.[ id_at store 1 0; serial_at store 1 0; anchor_at store 1 0; born_at store 1 0 ];
  Alcotest.(check (list int)) "anchor -1 round-trips"
    [ 0; -7; -1; 0 ]
    View.Flat.[ id_at store 1 1; serial_at store 1 1; anchor_at store 1 1; born_at store 1 1 ];
  Alcotest.(check int) "degree counts both" 2 (View.Flat.degree store 1);
  (* 2^31 nodes cannot be named by a lane; the check comes before the
     2^31 * s-slot allocation. *)
  match View.Flat.create ~nodes:(1 lsl 31) ~view_size:16 with
  | (_ : View.Flat.t) -> Alcotest.fail "create accepted 2^31 nodes"
  | exception Invalid_argument _ -> ()

(* --- Par: the fork-join shim --- *)

let test_par_determinism () =
  let fill domains =
    let out = Array.make 37 0 in
    Sf_engine.Par.run ~domains ~tasks:37 (fun i -> out.(i) <- (i * i) + 1);
    out
  in
  Alcotest.(check bool) "3 domains = 1 domain" true (fill 1 = fill 3);
  Alcotest.(check bool) "more domains than tasks" true (fill 1 = fill 64);
  Alcotest.(check bool)
    "task failure propagates after joining" true
    (match Sf_engine.Par.run ~domains:2 ~tasks:6 (fun i ->
         if i = 4 then failwith "boom")
     with
    | () -> false
    | exception Failure _ -> true)

(* --- Sharded runner: domain-count invariance --- *)

let scale_config = Protocol.make_config ~view_size:12 ~lower_threshold:4

let make_world () =
  Sharded.create ~shards:8 ~loss_rate:0.1 ~seed:7 ~n:600 ~config:scale_config ()

let test_domain_count_invariance () =
  let run domains =
    let w = make_world () in
    Sharded.run_rounds w ~domains 15;
    w
  in
  let a = run 1 and b = run 2 and c = run 4 in
  Alcotest.(check bool) "2 domains bit-identical" true (Sharded.equal a b);
  Alcotest.(check bool) "4 domains bit-identical" true (Sharded.equal a c);
  let census w = Census.of_flat (Sharded.store w) in
  Alcotest.(check bool) "census identical" true (census a = census c);
  Alcotest.(check bool) "counters identical" true
    (Sharded.world_counters a = Sharded.world_counters c);
  Alcotest.(check int) "rounds recorded" 15 (Sharded.rounds_completed a)

(* --- Sharded runner: the strict audit holds under loss --- *)

let test_sharded_strict_audit () =
  let w =
    Sharded.create ~shards:4 ~loss_rate:0.15 ~seed:11 ~n:400
      ~config:scale_config ()
  in
  let stats =
    Invariant.audited_sharded_run ~mode:Invariant.Strict ~scan_every:5
      ~domains:2 w ~rounds:40
  in
  Alcotest.(check int) "no violations" 0 stats.Invariant.violation_count;
  Alcotest.(check int) "all rounds audited" 40 stats.Invariant.actions_checked;
  Alcotest.(check bool) "scans ran" true (stats.Invariant.full_scans >= 8)

(* Conservation ledger sanity: the audited run checks the per-round
   deltas; here the end-to-end totals must tie the final edge count back
   to the initial ring. *)
let test_edge_ledger_totals () =
  let w = make_world () in
  let initial = Sharded.total_edges w in
  Sharded.run_rounds w ~domains:2 25;
  let l = Sharded.ledger w in
  Alcotest.(check int) "edges = initial + 2 dup - 2 dropped"
    (initial + (2 * l.Sharded.accepted_duplications) - (2 * l.Sharded.dropped_non_duplicated))
    (Sharded.total_edges w)

(* --- Chaos at scale: scenario + churn + resilience on the sharded engine --- *)

let scenario s =
  match Sf_faults.Scenario.of_string s with
  | Ok sc -> sc
  | Error e -> Alcotest.fail ("scenario parse: " ^ e)

(* The section 6.3 solver the production drivers inject. *)
let chaos_policy () =
  let solve ~loss =
    let t =
      Sf_analysis.Thresholds.select_lossy ~d_hat:8 ~delta:0.01
        ~loss:(Float.min loss 0.45)
    in
    (t.Sf_analysis.Thresholds.lower_threshold, t.Sf_analysis.Thresholds.view_size)
  in
  Sf_resil.Policy.make ~estimator_window:1000 ~cooldown:4 ~solve ()

(* Bursty loss, a two-way partition, and a crash wave over the first
   tenth of the ring — the mixed regime the robustness issue targets. *)
let mixed_scenario () = scenario "ge:0.2:6;partition@4-9:2;crash@11-15:0-59"
let chaos_churn = { Sharded.churn_rate = 0.02; headroom = 64 }

let make_chaos_world ?resilience () =
  Sharded.create ~shards:8 ~seed:13 ~n:600 ~config:scale_config
    ~scenario:(mixed_scenario ()) ~churn:chaos_churn ?resilience ~probe_every:4
    ()

(* The headline determinism contract under chaos: with per-shard loss
   chains, barrier-time windows, shard-local churn and barrier-only
   resilience, the domain count must still be invisible. *)
let test_chaos_domain_invariance () =
  let run domains =
    let w = make_chaos_world ~resilience:(chaos_policy ()) () in
    Sharded.run_rounds w ~domains 20;
    w
  in
  let a = run 1 and b = run 2 and c = run 4 in
  Alcotest.(check bool) "2 domains bit-identical" true (Sharded.equal a b);
  Alcotest.(check bool) "4 domains bit-identical" true (Sharded.equal a c);
  let census w = Census.of_flat (Sharded.store w) in
  Alcotest.(check bool) "census identical" true (census a = census c);
  Alcotest.(check bool) "counters identical" true
    (Sharded.world_counters a = Sharded.world_counters c);
  (* The run actually exercised every fault class. *)
  (match Sharded.fault_statistics a with
  | None -> Alcotest.fail "scenario installed but no fault statistics"
  | Some fs ->
    let open Sf_faults.Injector in
    Alcotest.(check bool) "chance drops" true (fs.chance_drops > 0);
    Alcotest.(check bool) "burst drops" true (fs.burst_drops > 0);
    Alcotest.(check bool) "partition drops" true (fs.partition_drops > 0);
    Alcotest.(check bool) "crash drops" true (fs.crash_drops > 0));
  let cs = Sharded.churn_statistics a in
  Alcotest.(check bool) "churn happened" true (cs.Sharded.joins > 0)

(* The strict audit — extended ledger, dead-slot emptiness, M1 + parity —
   holds through the whole mixed regime. *)
let test_chaos_strict_audit () =
  let w = make_chaos_world ~resilience:(chaos_policy ()) () in
  let stats =
    Invariant.audited_sharded_run ~mode:Invariant.Strict ~scan_every:5
      ~domains:2 w ~rounds:40
  in
  Alcotest.(check int) "no violations" 0 stats.Invariant.violation_count;
  Alcotest.(check int) "all rounds audited" 40 stats.Invariant.actions_checked;
  Alcotest.(check bool) "scans ran" true (stats.Invariant.full_scans >= 8)

(* Per-shard Gilbert-Elliott chains at n = 10k: the empirical loss over
   the whole run converges to the injector's configured stationary mean,
   and a visible share of the drops lands inside bursts. *)
let test_ge_stationary_mean () =
  let w =
    Sharded.create ~shards:16 ~seed:5 ~n:10_000 ~config:scale_config
      ~scenario:(scenario "ge:0.2:8") ()
  in
  Sharded.run_rounds w ~domains:4 30;
  let wc = Sharded.world_counters w in
  let observed =
    float_of_int wc.Runner.messages_lost /. float_of_int wc.Runner.sends
  in
  Alcotest.(check bool)
    (Fmt.str "observed %.4f within 0.02 of 0.2" observed)
    true
    (Float.abs (observed -. 0.2) < 0.02);
  match Sharded.fault_statistics w with
  | None -> Alcotest.fail "scenario installed but no fault statistics"
  | Some fs ->
    let open Sf_faults.Injector in
    Alcotest.(check bool) "bursty drops recorded" true
      (fs.burst_drops > 0 && fs.burst_drops <= fs.chance_drops)

(* Churn end-to-end: the extended ledger ties the final edge count back
   to the initial ring, and one join per leave keeps the population
   stationary, up to donor-starved skips (which never fire at this n) and
   joins still waiting for a slot that was free at a round's start. *)
let test_churn_ledger_totals () =
  let w =
    Sharded.create ~shards:8 ~seed:19 ~n:600 ~config:scale_config
      ~churn:{ Sharded.churn_rate = 0.05; headroom = 80 }
      ()
  in
  let initial = Sharded.total_edges w in
  Sharded.run_rounds w ~domains:2 30;
  let l = Sharded.ledger w in
  Alcotest.(check int)
    "edges = initial + 2 dup - 2 dropped + added - removed"
    (initial
    + (2 * l.Sharded.accepted_duplications)
    - (2 * l.Sharded.dropped_non_duplicated)
    + l.Sharded.churn_edges_added - l.Sharded.churn_edges_removed)
    (Sharded.total_edges w);
  let cs = Sharded.churn_statistics w in
  Alcotest.(check bool) "turnover happened" true (cs.Sharded.leaves > 50);
  Alcotest.(check int) "one join per un-starved, placed leave"
    (cs.Sharded.leaves - cs.Sharded.join_skips - cs.Sharded.joins_waiting)
    cs.Sharded.joins;
  Alcotest.(check int) "population stationary"
    (600 - cs.Sharded.join_skips - cs.Sharded.joins_waiting)
    (Sharded.live_count w)

(* A slot freed in a round is not reused in that round.  With no
   headroom no slot is free when the first round begins, so none of that
   round's leaves is rejoined: the population drops by the leaves, and
   every join waits for the next round. *)
let test_freed_slot_waits_a_round () =
  let w =
    Sharded.create ~shards:4 ~seed:23 ~n:400 ~config:scale_config
      ~churn:{ Sharded.churn_rate = 0.3; headroom = 0 }
      ()
  in
  Sharded.run_round w ~domains:1;
  let cs = Sharded.churn_statistics w in
  Alcotest.(check bool) "nodes left" true (cs.Sharded.leaves > 50);
  Alcotest.(check int) "live = n - leaves" (400 - cs.Sharded.leaves)
    (Sharded.live_count w);
  Alcotest.(check int) "no join placed" 0 cs.Sharded.joins;
  Alcotest.(check int) "every join waits" cs.Sharded.leaves cs.Sharded.joins_waiting;
  (* The next round places the waiting joins first, into last round's
     slots. *)
  Sharded.run_round w ~domains:1;
  let cs2 = Sharded.churn_statistics w in
  Alcotest.(check int) "every freed slot rejoined" cs.Sharded.leaves cs2.Sharded.joins;
  Alcotest.(check int) "live = n - leaves + joins placed"
    (400 - cs2.Sharded.leaves + cs2.Sharded.joins)
    (Sharded.live_count w)

(* Observe-only resilience consumes no randomness and never acts, so the
   chaotic world replays bit-for-bit against a policy-free twin while
   still producing a loss estimate. *)
let test_observe_only_resilience_identity () =
  let run resilience =
    let w = make_chaos_world ?resilience () in
    Sharded.run_rounds w ~domains:2 20;
    w
  in
  let plain = run None
  and obs = run (Some (Sf_resil.Policy.observe_only ())) in
  Alcotest.(check bool) "worlds bit-identical" true (Sharded.equal plain obs);
  Alcotest.(check bool) "thresholds untouched" true
    (Sharded.live_thresholds obs = (4, 12));
  (match Sharded.resilience_statistics plain with
  | None -> ()
  | Some _ -> Alcotest.fail "no policy installed but statistics reported");
  match Sharded.resilience_statistics obs with
  | None -> Alcotest.fail "observer installed but no statistics"
  | Some rs ->
    Alcotest.(check int) "no retunes" 0 rs.Runner.retunes;
    Alcotest.(check int) "no repairs" 0 rs.Runner.repair_attempts;
    Alcotest.(check bool) "estimator saw the loss" true
      (rs.Runner.loss_estimate > 0.)

(* --- live_ids: spliced sorted array vs rebuild-and-sort --- *)

let test_live_ids_spliced () =
  let r = make_system ~n:50 () in
  let module IntSet = Set.Make (Int) in
  let expected = ref IntSet.empty in
  for id = 0 to 49 do
    expected := IntSet.add id !expected
  done;
  let rng = Rng.create 99 in
  let check_snapshot () =
    let got = Array.to_list (Runner.live_ids r) in
    (* The rebuild-and-sort baseline the spliced array must match. *)
    Alcotest.(check (list int)) "sorted live ids" (IntSet.elements !expected) got
  in
  for _ = 1 to 150 do
    if Rng.bernoulli rng 0.45 && IntSet.cardinal !expected > 5 then begin
      let victim = Rng.choose rng (Runner.live_ids r) in
      ignore (Runner.remove_node r victim);
      expected := IntSet.remove victim !expected
    end
    else begin
      let id = Runner.add_node r in
      expected := IntSet.add id !expected
    end;
    check_snapshot ()
  done;
  Runner.run_rounds r 5;
  check_snapshot ()

(* --- Sampling: the allocation-free scan preserves the RNG stream --- *)

(* A sample is one row draw: the id in the slot
   [View.Flat.random_occupied_slot] picks, self excluded unless allowed,
   from the same stream position. *)
let test_sample_is_row_draw () =
  let r = make_system ~seed:3 ~n:60 ~loss:0.05 () in
  Runner.run_rounds r 10;
  let store = Runner.store r in
  let rng = Rng.create 123 and reference = Rng.create 123 in
  for node_id = 0 to 59 do
    List.iter
      (fun allow_self ->
        let slot =
          View.Flat.random_occupied_slot store node_id reference
            ~except:(if allow_self then -1 else node_id)
        in
        Alcotest.(check (option int)) "same draw"
          (if slot < 0 then None else Some (View.Flat.id_at store node_id slot))
          (Sampling.sample ~allow_self r rng ~node_id))
      [ false; true ]
  done;
  Alcotest.(check bool) "streams still aligned" true (Rng.equal rng reference)

let test_sample_many_contract () =
  let r = make_system ~n:40 () in
  Runner.run_rounds r 5;
  let rng = Rng.create 5 in
  let xs = Sampling.sample_many r rng ~node_id:0 ~k:10 in
  Alcotest.(check int) "k results on a populated view" 10 (List.length xs);
  List.iter
    (fun id ->
      Alcotest.(check bool) "valid non-self id" true (id >= 0 && id <> 0))
    xs;
  Alcotest.(check (list int))
    "unknown node: k failed attempts, empty result" []
    (Sampling.sample_many r rng ~node_id:9999 ~k:5);
  let lonely = Runner.add_node r in
  ignore (View.Flat.clear_row (Runner.store r) lonely);
  Alcotest.(check (list int))
    "empty view: every attempt fails, none aborts" []
    (Sampling.sample_many r rng ~node_id:lonely ~k:5);
  Alcotest.(check (list int)) "k = 0" [] (Sampling.sample_many r rng ~node_id:0 ~k:0)

(* --- Allocation: the step kernel and the verdict path --- *)

(* Minor words allocated while [f] runs.  Int64 and float values box
   under bytecode, so the allocation tests run on the native backend
   only. *)
let minor_words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* A warmed sharded round at n = 10^4: slot draws, verdicts and
   receive-side slot draws allocate nothing, so the per-round arena and
   bookkeeping stay under one word per action. *)
let check_sharded_round_allocation ?scenario () =
  let w =
    Sharded.create ~shards:16 ~loss_rate:0.05 ~init:Sharded.Scatter ~init_degree:8
      ?scenario ~seed:42 ~n:10_000
      ~config:(Protocol.make_config ~view_size:16 ~lower_threshold:4)
      ()
  in
  Sharded.run_rounds w ~domains:1 3;
  let before = (Sharded.world_counters w).Runner.actions in
  let words =
    minor_words_during (fun () ->
        for _ = 1 to 5 do
          Sharded.run_round w ~domains:1
        done)
  in
  let actions = (Sharded.world_counters w).Runner.actions - before in
  let per_action = words /. float_of_int actions in
  if per_action > 1. then
    Alcotest.failf "%.3f minor words per action (limit 1)" per_action

(* Uniform loss: the paper's model. *)
let test_sharded_round_allocation () =
  if Sys.backend_type = Sys.Native then check_sharded_round_allocation ()

(* Bursty loss inside a partition window: every send is judged by the
   partition scan, and each one it lets through by the Gilbert-Elliott
   chain. *)
let test_chaos_round_allocation () =
  if Sys.backend_type = Sys.Native then
    check_sharded_round_allocation ~scenario:(scenario "ge:0.2:8;partition@0-100:2") ()

(* A Gilbert-Elliott drop steps the chain and draws the loss without
   boxing either probability. *)
let test_ge_drop_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let loss =
      Sf_faults.Loss.create
        (Sf_faults.Loss.Gilbert_elliott
           (Sf_faults.Loss.gilbert_elliott ~mean_loss:0.2 ~mean_burst:8. ()))
    in
    let rng = Rng.create 3 in
    let drops = ref 0 in
    let calls = 100_000 in
    let words =
      minor_words_during (fun () ->
          for _ = 1 to calls do
            if Sf_faults.Loss.drop loss rng ~chance:0. ~src:1 ~dst:2 then incr drops
          done)
    in
    ignore (Sys.opaque_identity !drops);
    if words > 0. then
      Alcotest.failf "%.3f minor words per drop (limit 0)" (words /. float_of_int calls)
  end

(* Injector.judge inside a partition window with a bursty loss chain, the
   chaos benchmark's verdict mix: the window scans and the chain allocate
   nothing. *)
let test_judge_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let inj =
      Sf_faults.Injector.create ~scenario:(scenario "ge:0.2:8;partition@0-100:2") ~n:1000 ()
    in
    let now = 5. in
    Sf_faults.Injector.set_clock inj (fun () -> now);
    let rng = Rng.create 3 in
    let calls = 100_000 in
    let words =
      minor_words_during (fun () ->
          for k = 1 to calls do
            let src = k mod 1000 in
            ignore
              (Sys.opaque_identity
                 (Sf_faults.Injector.judge inj rng ~chance:0. ~src ~dst:(src * 31 mod 1000)))
          done)
    in
    let per_verdict = words /. float_of_int calls in
    if per_verdict > 0.1 then
      Alcotest.failf "%.3f minor words per verdict (limit 0.1)" per_verdict
  end

(* The install rule on a world store, as the sharded engine runs it: an
   id install from a reused buffer (the start topology) and a donor copy
   with no liveness test (the churn phase's join), each with a mint
   closure built once, allocate nothing. *)
let test_install_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let store = View.Flat.create ~nodes:64 ~view_size:16 in
    let minted = ref 0 in
    let mint () = incr minted; !minted in
    let ids = Array.make 12 0 in
    let per_call words calls = words /. float_of_int calls in
    let calls = 100_000 in
    let starts =
      minor_words_during (fun () ->
          for k = 1 to calls do
            let u = k mod 64 in
            for j = 0 to 11 do
              ids.(j) <- (u + j + k) mod 64
            done;
            Protocol.install_ids store u ids ~born:0 ~mint
          done)
    in
    if per_call starts calls > 0.01 then
      Alcotest.failf "%.3f minor words per id install (limit 0.01)" (per_call starts calls);
    let copies =
      minor_words_during (fun () ->
          for k = 1 to calls do
            let v = k mod 64 in
            let donor = (v + 1 + (k mod 63)) mod 64 in
            ignore
              (Sys.opaque_identity
                 (Protocol.install_copy store v ~owner:v ~donor ~from:store
                    ~from_row:donor ~dl:6 ~live:(fun _ -> true) ~born:1 ~mint))
          done)
    in
    if per_call copies calls > 0.01 then
      Alcotest.failf "%.3f minor words per donor copy (limit 0.01)" (per_call copies calls)
  end

(* --- Section 6.5 on the sharded engine --- *)

(* Nodes joined through the churn phase integrate as Lemma 6.13 and
   Corollary 6.14 bound: after a burn-in, every node that joins in one
   round is followed for the Lemma 6.13 window (while it stays live).
   Its outdegree stays even and within s every round; at the window's
   end a majority of the survivors are held in other views, and their
   mean instance count reaches the (dL/s)^2 * Din bound.  About 30 nodes
   join and about two thirds of them survive the window at 1% churn,
   so the bound is checked on a mean, not on one joiner's luck. *)
let test_sharded_join_integration () =
  let s = scale_config.Protocol.view_size in
  let dl = scale_config.Protocol.lower_threshold in
  let w =
    Sharded.create ~shards:4 ~init:Sharded.Scatter ~init_degree:8
      ~churn:{ Sharded.churn_rate = 0.01; headroom = 1600 }
      ~seed:65 ~n:4000 ~config:scale_config ()
  in
  Sharded.run_rounds w ~domains:1 30;
  let store = Sharded.store w in
  let cap = Sharded.capacity w in
  let live = List.filter (Sharded.is_live w) (List.init cap Fun.id) in
  let din =
    float_of_int (List.fold_left (fun acc u -> acc + View.Flat.degree store u) 0 live)
    /. float_of_int (List.length live)
  in
  Sharded.run_round w ~domains:1;
  let joiners =
    List.filter
      (fun u -> Sharded.is_live w u && not (List.mem u live))
      (List.init cap Fun.id)
  in
  Alcotest.(check bool) "nodes joined" true (List.length joiners >= 10);
  let params =
    Sf_analysis.Decay.make_params ~loss:0. ~delta:0.02 ~lower_threshold:dl
      ~view_size:s
  in
  let window = Sf_analysis.Decay.joiner_integration_rounds params in
  let tracked = ref joiners in
  for _ = 1 to window do
    Sharded.run_round w ~domains:1;
    tracked := List.filter (Sharded.is_live w) !tracked;
    List.iter
      (fun j ->
        let d = View.Flat.degree store j in
        if d land 1 = 1 || d > s then
          Alcotest.failf "joiner %d has outdegree %d (s = %d)" j d s)
      !tracked
  done;
  let instances j =
    List.fold_left
      (fun acc u ->
        if u = j || not (Sharded.is_live w u) then acc
        else begin
          let c = ref acc in
          for k = 0 to s - 1 do
            if View.Flat.id_at store u k = j then incr c
          done;
          !c
        end)
      0 (List.init cap Fun.id)
  in
  let counts = List.map instances !tracked in
  let survivors = List.length counts in
  Alcotest.(check bool) "joiners survived the window" true (survivors >= 5);
  let held = List.length (List.filter (fun c -> c >= 1) counts) in
  Alcotest.(check bool)
    (Fmt.str "%d of %d surviving joiners held in other views" held survivors)
    true (2 * held >= survivors);
  let mean = float_of_int (List.fold_left ( + ) 0 counts) /. float_of_int survivors in
  let bound = Sf_analysis.Decay.joiner_integration_instances params ~expected_indegree:din in
  Alcotest.(check bool)
    (Fmt.str "mean instances %.2f after %d rounds >= %.2f" mean window bound)
    true (mean >= bound)

(* --- Known answers: the chaos world's counters, ledger, fault evidence
   and store, pinned so a refactor of the verdict path cannot move them --- *)

(* A wrapping polynomial hash of every id, serial, anchor and born lane. *)
let lanes_hash store =
  let h = ref 0 in
  let mix v = h := (!h * 1_000_003) + v in
  for u = 0 to View.Flat.node_count store - 1 do
    for k = 0 to View.Flat.view_size store - 1 do
      mix (View.Flat.id_at store u k);
      mix (View.Flat.serial_at store u k);
      mix (View.Flat.anchor_at store u k);
      mix (View.Flat.born_at store u k)
    done
  done;
  !h

let test_chaos_known_answer () =
  let w = make_chaos_world ~resilience:(chaos_policy ()) () in
  Sharded.run_rounds w ~domains:1 30;
  let c = Sharded.world_counters w in
  let l = Sharded.ledger w in
  let f =
    match Sharded.fault_statistics w with
    | Some f -> f
    | None -> Alcotest.fail "chaos world lost its fault statistics"
  in
  Alcotest.(check (list int)) "world counters"
    [ 17778; 13499; 4279; 689; 3100; 10; 860 ]
    [ c.Runner.actions; c.Runner.self_loops; c.Runner.sends;
      c.Runner.duplications; c.Runner.receipts; c.Runner.deletions;
      c.Runner.messages_lost ];
  Alcotest.(check (list int)) "ledger" [ 479; 979; 1488; 2186 ]
    [ l.Sharded.accepted_duplications; l.Sharded.dropped_non_duplicated;
      l.Sharded.churn_edges_added; l.Sharded.churn_edges_removed ];
  Alcotest.(check (list int)) "fault statistics" [ 4279; 860; 860; 25; 8; 0; 4 ]
    [ f.Sf_faults.Injector.judged; f.Sf_faults.Injector.chance_drops;
      f.Sf_faults.Injector.burst_drops; f.Sf_faults.Injector.partition_drops;
      f.Sf_faults.Injector.crash_drops; f.Sf_faults.Injector.corruptions;
      f.Sf_faults.Injector.fault_transitions ];
  Alcotest.(check int) "store lanes hash" 2955527127046880194
    (lanes_hash (Sharded.store w));
  (* The paper's steady regime, no scenario: uniform loss over a Scatter
     start, every phase on the shard streams alone. *)
  let w =
    Sharded.create ~shards:8 ~loss_rate:0.05 ~init:Sharded.Scatter ~init_degree:8
      ~seed:17 ~n:2000 ~config:scale_config ()
  in
  Sharded.run_rounds w ~domains:1 30;
  let c = Sharded.world_counters w in
  let l = Sharded.ledger w in
  Alcotest.(check (list int)) "steady world counters"
    [ 60000; 36559; 23441; 688; 22221; 525; 1220 ]
    [ c.Runner.actions; c.Runner.self_loops; c.Runner.sends;
      c.Runner.duplications; c.Runner.receipts; c.Runner.deletions;
      c.Runner.messages_lost ];
  Alcotest.(check (list int)) "steady ledger" [ 641; 1698 ]
    [ l.Sharded.accepted_duplications; l.Sharded.dropped_non_duplicated ];
  Alcotest.(check int) "steady store lanes hash" 356717432204424227 (lanes_hash (Sharded.store w))

(* Windows that are written but never act are worse than a loud error:
   the sharded engine rejects every window the injector rejects, with the
   same message. *)
let test_sharded_rejects_malformed_windows () =
  List.iter
    (fun window ->
      let scenario = { Sf_faults.Scenario.loss = Sf_faults.Loss.Iid; windows = [ window ] } in
      let message =
        match Sf_faults.Injector.create ~scenario ~n:600 () with
        | _ -> Alcotest.fail "Injector.create accepted a malformed window"
        | exception Invalid_argument m -> m
      in
      Alcotest.check_raises message (Invalid_argument message) (fun () ->
          ignore (Sharded.create ~seed:13 ~n:600 ~config:scale_config ~scenario ())))
    [
      { Sf_faults.Scenario.start = 1.; stop = 5.; fault = Sf_faults.Scenario.Partition { parts = 1 } };
      { Sf_faults.Scenario.start = 5.; stop = 2.;
        fault = Sf_faults.Scenario.Crash { first = 0; last = 9 } };
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_degrees_match_recount;
    QCheck_alcotest.to_alcotest prop_census_flat_matches_views;
    Alcotest.test_case "Flat lane ranges" `Quick test_lane_ranges;
    Alcotest.test_case "Par fork-join determinism" `Quick test_par_determinism;
    Alcotest.test_case "domain-count invariance" `Quick
      test_domain_count_invariance;
    Alcotest.test_case "sharded strict audit" `Quick test_sharded_strict_audit;
    Alcotest.test_case "edge ledger totals" `Quick test_edge_ledger_totals;
    Alcotest.test_case "chaos domain-count invariance" `Quick
      test_chaos_domain_invariance;
    Alcotest.test_case "chaos strict audit" `Quick test_chaos_strict_audit;
    Alcotest.test_case "GE stationary mean at 10k" `Slow test_ge_stationary_mean;
    Alcotest.test_case "churn ledger totals" `Quick test_churn_ledger_totals;
    Alcotest.test_case "observe-only resilience identity" `Quick
      test_observe_only_resilience_identity;
    Alcotest.test_case "incremental live array" `Quick
      test_live_ids_spliced;
    Alcotest.test_case "sample is the row draw" `Quick test_sample_is_row_draw;
    Alcotest.test_case "sample_many contract" `Quick test_sample_many_contract;
    Alcotest.test_case "sharded round allocation" `Quick test_sharded_round_allocation;
    Alcotest.test_case "chaos round allocation" `Quick test_chaos_round_allocation;
    Alcotest.test_case "GE drop allocation" `Quick test_ge_drop_allocation;
    Alcotest.test_case "judge allocation" `Quick test_judge_allocation;
    Alcotest.test_case "chaos world known answer" `Quick test_chaos_known_answer;
    Alcotest.test_case "sharded rejects malformed windows" `Quick
      test_sharded_rejects_malformed_windows;
    Alcotest.test_case "install rule allocation" `Quick test_install_allocation;
    Alcotest.test_case "sharded join integration (section 6.5)" `Quick
      test_sharded_join_integration;
    Alcotest.test_case "a slot freed in a round waits a round" `Quick
      test_freed_slot_waits_a_round;
  ]
