(* Runtime audit of the paper's invariants.

   The static side (sf_lint) keeps hazards out of the source; this layer
   checks, while a system runs, that the implementation actually performs
   the transitions the paper analyzes:

   - M1 / Observation 5.1: every outdegree stays within [0, s] (and even,
     for systems started from an even topology);
   - degree conservation: a loss-free, non-duplicating S&F action moves
     exactly two edges from the sender to the receiver, so the global edge
     count is unchanged; duplication adds two, loss/deletion removes two
     (the balance behind Lemma 6.6);
   - the dL rule (section 6.3): an action duplicates iff the sender's
     outdegree was at or below dL when it initiated;
   - view structural soundness: the cached degree matches the occupied
     slots, serials are globally unique and below the mint bound, and no
     entry claims a birth time in the future.

   Attachment goes through [Runner.set_audit] (per-action events) and
   [Sim.set_monitor] (timed-mode cadence).  Per-action checks are O(live)
   — a sum of cached degrees — and full scans are O(live * s), run every
   [scan_every] actions. *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module View = Sf_core.View

let src = Logs.Src.create "sf.check" ~doc:"Paper-invariant runtime audit"

module Log = (val Logs.src_log src : Logs.LOG)

type mode = Warn | Strict

type violation = { invariant : string; detail : string }

exception Violation of violation

let pp_violation ppf v = Fmt.pf ppf "%s: %s" v.invariant v.detail

let violation invariant fmt = Fmt.kstr (fun detail -> { invariant; detail }) fmt

(* --- Pure checks, usable without attaching an auditor --- *)

(* The View API maintains the cached degree itself, so this can only fail
   if the cache logic regresses — which is exactly what it guards. *)
let check_view view =
  let occupied = View.Flat.recount_degree view 0 in
  if occupied <> View.degree view then
    Some
      (violation "view-soundness" "cached degree %d but %d occupied slots"
         (View.degree view) occupied)
  else None

let check_degree ~config node =
  let d = Protocol.degree node in
  let s = config.Protocol.view_size in
  if d < 0 || d > s then
    Some
      (violation "M1-degree-bound" "node %d has outdegree %d outside [0, %d]"
         node.Protocol.node_id d s)
  else if d mod 2 <> 0 then
    Some
      (violation "degree-parity" "node %d has odd outdegree %d"
         node.Protocol.node_id d)
  else None

let total_edges runner =
  Array.fold_left
    (fun acc node -> acc + Protocol.degree node)
    0 (Runner.live_nodes runner)

(* Full structural scan: per-view soundness, degree bounds, global serial
   uniqueness, serial/birth bounds. *)
let scan runner =
  let ceiling = Runner.minted_serials runner in
  let now = Runner.action_count runner in
  let seen = Hashtbl.create 4096 in
  let violations = ref [] in
  let record = function Some v -> violations := v :: !violations | None -> () in
  Array.iter
    (fun node ->
      record (check_view node.Protocol.view);
      (* Per-node config: the resilience controller may have retuned this
         node's thresholds away from the base config. *)
      record
        (check_degree ~config:(Runner.node_config runner node.Protocol.node_id) node);
      View.iter
        (fun _ (e : View.entry) ->
          (match Hashtbl.find_opt seen e.View.serial with
          | Some owner ->
            record
              (Some
                 (violation "serial-uniqueness"
                    "serial %d held by both node %d and node %d" e.View.serial
                    owner node.Protocol.node_id))
          | None -> Hashtbl.add seen e.View.serial node.Protocol.node_id);
          if e.View.serial < 0 || e.View.serial >= ceiling then
            record
              (Some
                 (violation "serial-bound"
                    "node %d holds serial %d outside [0, %d)"
                    node.Protocol.node_id e.View.serial ceiling));
          if e.View.born > now then
            record
              (Some
                 (violation "birth-bound"
                    "node %d holds an entry born at action %d > clock %d"
                    node.Protocol.node_id e.View.born now)))
        node.Protocol.view)
    (Runner.live_nodes runner);
  List.rev !violations

(* --- The attached auditor --- *)

type stats = {
  mutable actions_checked : int;
  mutable receipts_seen : int;
  mutable full_scans : int;
  mutable resyncs : int;
  mutable violation_count : int;
  mutable violations : violation list;  (* newest first, bounded *)
}

let kept_violations = 100

let fresh_stats () =
  {
    actions_checked = 0;
    receipts_seen = 0;
    full_scans = 0;
    resyncs = 0;
    violation_count = 0;
    violations = [];
  }

(* The one reporting rule of every audit path: Strict raises at the first
   violation; Warn counts every one, keeps the first [kept_violations]
   and logs each. *)
let record_violation mode stats v =
  stats.violation_count <- stats.violation_count + 1;
  match mode with
  | Strict -> raise (Violation v)
  | Warn ->
    if stats.violation_count <= kept_violations then
      stats.violations <- v :: stats.violations;
    Log.warn (fun m -> m "%a" pp_violation v)

(* One full structural scan's findings, counted as a scan. *)
let record_scan mode stats violations =
  stats.full_scans <- stats.full_scans + 1;
  List.iter (record_violation mode stats) violations

type auditor = {
  mode : mode;
  scan_every : int;
  stats : stats;
  mutable edges : int;     (* cached global edge count *)
  mutable synced : bool;   (* false once timed-mode events interleave *)
  mutable events : int;    (* sim events seen by the monitor *)
}

let report a v = record_violation a.mode a.stats v

let full_scan a runner =
  record_scan a.mode a.stats (scan runner)

(* Expected change of the global edge count for a completed action, or
   [None] when the outcome is still in flight (timed mode). *)
let expected_delta = function
  | Runner.Audit_self_loop -> Some 0
  | Runner.Audit_send { duplicated; delivery; _ } -> (
    match (delivery, duplicated) with
    | Runner.In_flight, _ -> None
    | Runner.Accepted, false -> Some 0
    | Runner.Accepted, true -> Some 2
    | (Runner.Deleted | Runner.Lost | Runner.To_dead), false -> Some (-2)
    | (Runner.Deleted | Runner.Lost | Runner.To_dead), true -> Some 0)

let on_action a runner ~initiator ~degree_before ~degree_after ~outcome =
  a.stats.actions_checked <- a.stats.actions_checked + 1;
  (* The initiator's *current* config: adaptive retuning makes s and dL
     per-node quantities, and the dL rule must be judged against the
     thresholds the node actually ran with. *)
  let config = Runner.node_config runner initiator in
  let s = config.Protocol.view_size in
  let dl = config.Protocol.lower_threshold in
  (* A frozen node must not act: the runner's scheduler is required to skip
     ids inside an active crash window (fault scenarios, lib/faults). *)
  if Runner.is_crashed runner initiator then
    report a
      (violation "crashed-initiator"
         "node %d initiated inside an active crash window" initiator);
  (* M1 on the initiator. *)
  if degree_after < 0 || degree_after > s then
    report a
      (violation "M1-degree-bound" "initiator %d left with outdegree %d outside [0, %d]"
         initiator degree_after s);
  if degree_after mod 2 <> 0 then
    report a
      (violation "degree-parity" "initiator %d left with odd outdegree %d" initiator
         degree_after);
  (match outcome with
  | Runner.Audit_self_loop ->
    if degree_after <> degree_before then
      report a
        (violation "self-loop-noop" "self-loop changed initiator %d's outdegree %d -> %d"
           initiator degree_before degree_after)
  | Runner.Audit_send { destination; duplicated; delivery } ->
    (* The dL rule: duplicate iff the outdegree was at or below dL. *)
    if duplicated <> (degree_before <= dl) then
      report a
        (violation "dL-duplication-rule"
           "initiator %d sent with outdegree %d (dL = %d) but duplicated = %b" initiator
           degree_before dl duplicated);
    (* Sender-side degree accounting.  A send to self is special: the
       synchronous receive lands back in the initiator's own view before
       this event fires. *)
    let self = destination = initiator in
    let expected_after =
      match (duplicated, self, delivery) with
      | false, false, _ -> Some (degree_before - 2)
      | false, true, Runner.Accepted -> Some degree_before
      | false, true, (Runner.Lost | Runner.In_flight) -> Some (degree_before - 2)
      | false, true, (Runner.Deleted | Runner.To_dead) ->
        None (* unreachable for a live self-sender; don't misreport *)
      | true, false, _ -> Some degree_before
      | true, true, Runner.Accepted -> Some (degree_before + 2)
      | true, true, _ -> Some degree_before
    in
    (match expected_after with
    | Some d when degree_after <> d ->
      report a
        (violation "send-degree-accounting"
           "send (duplicated %b, to %d) moved initiator %d's outdegree %d -> %d, \
            expected %d"
           duplicated destination initiator degree_before degree_after d)
    | Some _ | None -> ());
    if (not duplicated) && degree_after < dl then
      report a
        (violation "M1-degree-bound"
           "non-duplicating send left initiator %d below dL: %d < %d" initiator
           degree_after dl));
  (* Degree conservation, checkable only while actions are serial. *)
  let measured = total_edges runner in
  (match expected_delta outcome with
  | Some delta when a.synced ->
    if measured - a.edges <> delta then
      report a
        (violation "edge-conservation"
           "action at %d: edge count moved %d -> %d but the outcome implies %+d"
           initiator a.edges measured delta)
  | Some _ -> ()
  | None -> a.synced <- false);
  a.edges <- measured;
  if a.scan_every > 0 && a.stats.actions_checked mod a.scan_every = 0 then
    full_scan a runner

let on_event a runner event =
  match event with
  | Runner.Action { initiator; degree_before; degree_after; outcome } ->
    on_action a runner ~initiator ~degree_before ~degree_after ~outcome
  | Runner.Receipt { receiver; accepted = _ } ->
    a.stats.receipts_seen <- a.stats.receipts_seen + 1;
    a.synced <- false;
    if Runner.is_crashed runner receiver then
      report a
        (violation "crashed-receiver"
           "node %d received a message inside an active crash window" receiver);
    (match Runner.find_node runner receiver with
    | None -> ()
    | Some node -> (
      match
        check_degree ~config:(Runner.node_config runner receiver) node
      with
      | Some v -> report a v
      | None -> ()))
  | Runner.Structural reason ->
    ignore reason;
    a.stats.resyncs <- a.stats.resyncs + 1;
    a.edges <- total_edges runner

let attach ?(mode = Strict) ?(scan_every = 1000) runner =
  let stats = fresh_stats () in
  let a =
    {
      mode;
      scan_every;
      stats;
      edges = total_edges runner;
      synced = true;
      events = 0;
    }
  in
  Runner.set_audit runner (Some (on_event a));
  (* Timed runs execute deliveries as sim events between actions; keep the
     full-scan cadence going there too. *)
  Sf_engine.Sim.set_monitor (Runner.simulator runner)
    (Some
       (fun () ->
         a.events <- a.events + 1;
         if a.scan_every > 0 && a.events mod a.scan_every = 0 then
           full_scan a runner));
  stats

let detach runner =
  Runner.set_audit runner None;
  Sf_engine.Sim.set_monitor (Runner.simulator runner) None

(* --- The sharded flat-state runner --- *)

module Sharded = Runner.Sharded
module Flat = View.Flat

(* Full structural scan of a packed world.  The same invariants as [scan],
   re-derived for the flat encoding: M1 bounds and parity, cached degree
   against a slot recount, global serial uniqueness, the shard-strided
   serial bound (serial c*S + i is valid iff shard i has minted more than
   c times), birth times within the round clock, and id range. *)
let scan_sharded w =
  let store = Sharded.store w in
  let cap = Flat.node_count store in
  let s = Flat.view_size store in
  let shard_count = Sharded.shard_count w in
  let minted = Sharded.minted w in
  let rounds = Sharded.rounds_completed w in
  let seen = Hashtbl.create 4096 in
  let violations = ref [] in
  let record v = violations := v :: !violations in
  for u = 0 to cap - 1 do
    if not (Sharded.is_live w u) then begin
      (* Dead slots (departed nodes, unused headroom) must hold nothing:
         leaves clear the view before recycling the slot. *)
      if Flat.degree store u <> 0 then
        record
          (violation "dead-slot-empty" "dead slot %d still has outdegree %d" u
             (Flat.degree store u))
    end
    else begin
    let d = Flat.degree store u in
    if d < 0 || d > s then
      record
        (violation "M1-degree-bound" "node %d has outdegree %d outside [0, %d]"
           u d s);
    if d mod 2 <> 0 then
      record (violation "degree-parity" "node %d has odd outdegree %d" u d);
    if Flat.recount_degree store u <> d then
      record
        (violation "view-soundness"
           "node %d: cached degree %d but %d occupied slots" u d
           (Flat.recount_degree store u));
    for slot = 0 to s - 1 do
      let id = Flat.id_at store u slot in
      if id >= 0 then begin
        (* Live views may reference dead ids (stale entries decay through
           the protocol), but never ids outside the allocated slot range. *)
        if id >= cap then
          record
            (violation "id-bound" "node %d holds id %d outside [0, %d)" u id
               cap);
        let serial = Flat.serial_at store u slot in
        (match Hashtbl.find_opt seen serial with
        | Some owner ->
          record
            (violation "serial-uniqueness"
               "serial %d held by both node %d and node %d" serial owner u)
        | None -> Hashtbl.add seen serial u);
        if
          serial < 0
          || serial / shard_count >= minted.(serial mod shard_count)
        then
          record
            (violation "serial-bound"
               "node %d holds serial %d beyond shard %d's mint position %d" u
               serial (serial mod shard_count)
               minted.(serial mod shard_count));
        let born = Flat.born_at store u slot in
        if born < 0 || born > rounds then
          record
            (violation "birth-bound"
               "node %d holds an entry born in round %d > clock %d" u born
               rounds)
      end
    done
    end
  done;
  List.rev !violations

(* Audited bulk-synchronous run.  The sharded runner has no per-action
   audit hook (actions are not serialized), so the external checks move to
   round granularity: after every round, the global edge count must have
   moved by exactly 2 * accepted duplications - 2 * dropped non-duplicated
   messages + churn edges added - churn edges removed (Lemma 6.6's balance
   extended for chaos — loss, crash/partition drops and deletion each
   retire a non-duplicated pair, duplication accepted at the receiver adds
   one, joins/leaves/rebootstraps move edges out of band);
   every [scan_every] rounds (and at the end) a full structural scan runs.
   The dL rule itself is enforced by construction inside the round loop
   and re-verified here through its footprint: parity plus the edge
   ledger.  In the returned stats, [actions_checked] counts audited
   rounds. *)
let audited_sharded_run ?(mode = Strict) ?(scan_every = 10) ?(domains = 1) w ~rounds =
  let stats = fresh_stats () in
  let full_scan () = record_scan mode stats (scan_sharded w) in
  let edges = ref (Sharded.total_edges w) in
  let prev = ref (Sharded.ledger w) in
  for r = 1 to rounds do
    Sharded.run_round w ~domains;
    stats.actions_checked <- stats.actions_checked + 1;
    let edges' = Sharded.total_edges w in
    let l = Sharded.ledger w in
    (* The extended Lemma 6.6 balance: duplication/loss/deletion move
       edges in pairs; joins and supervised rebootstraps create edges out
       of band, leaves and rebootstraps destroy them (crashes freeze nodes
       and only drop messages, so they have no term of their own). *)
    let expected =
      (2 * (l.Sharded.accepted_duplications - !prev.Sharded.accepted_duplications))
      - (2 * (l.Sharded.dropped_non_duplicated - !prev.Sharded.dropped_non_duplicated))
      + (l.Sharded.churn_edges_added - !prev.Sharded.churn_edges_added)
      - (l.Sharded.churn_edges_removed - !prev.Sharded.churn_edges_removed)
    in
    if edges' - !edges <> expected then
      record_violation mode stats
        (violation "edge-conservation"
           "round %d: edge count moved %d -> %d but the ledger implies %+d"
           (Sharded.rounds_completed w)
           !edges edges' expected);
    edges := edges';
    prev := l;
    if scan_every > 0 && r mod scan_every = 0 then full_scan ()
  done;
  if scan_every <= 0 || rounds mod scan_every <> 0 || rounds = 0 then
    full_scan ();
  stats

(* One fully audited sequential run: attach, run, final scan, detach. *)
let audited_run ?(mode = Strict) ?scan_every runner ~rounds =
  let stats = attach ~mode ?scan_every runner in
  Fun.protect
    ~finally:(fun () -> detach runner)
    (fun () ->
      Runner.run_rounds runner rounds;
      record_scan mode stats (scan runner));
  stats
