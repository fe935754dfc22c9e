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
   - view structural soundness: a row of degree d fills exactly slots
     [0, d), serials are globally unique and below the mint bound, and no
     entry claims a birth time in the future.

   Attachment goes through [Runner.set_audit] (per-action events) and
   [Sim.set_monitor] (timed-mode cadence).  Per-action checks are
   O(rows) — a sum of the store's cached degrees — and full scans are
   O(rows * s), run every [scan_every] actions. *)

module Runner = Sf_core.Runner
module Protocol = Sf_core.Protocol
module View = Sf_core.View
module Overlay = Sf_core.Overlay

let src = Logs.Src.create "sf.check" ~doc:"Paper-invariant runtime audit"

module Log = (val Logs.src_log src : Logs.LOG)

type mode = Warn | Strict

type violation = { invariant : string; detail : string }

exception Violation of violation

let pp_violation ppf v = Fmt.pf ppf "%s: %s" v.invariant v.detail

let violation invariant fmt = Fmt.kstr (fun detail -> { invariant; detail }) fmt

(* --- Pure checks, usable without attaching an auditor --- *)

(* Row [u] fills exactly slots [0, degree): the lowest slot that breaks
   this, if any, is reported.  The View API keeps rows packed itself, so
   this can only fail if that logic regresses — which is exactly what it
   guards. *)
let soundness store u =
  let d = View.Flat.degree store u and bad = ref (-1) in
  for slot = View.Flat.view_size store - 1 downto 0 do
    if (View.Flat.id_at store u slot >= 0) <> (slot < d) then bad := slot
  done;
  if !bad < 0 then None
  else
    Some
      (violation "view-soundness" "node %d: degree %d but slot %d is %s" u d !bad
         (if !bad < d then "empty" else "occupied"))

(* A single view is row 0 of a one-node store.  Only perfbench's cluster
   workload still checks views one by one; the gates check rows. *)
let check_view view = soundness view 0

let check_degree ~config id d =
  let s = config.Protocol.view_size in
  if d < 0 || d > s then
    Some
      (violation "M1-degree-bound" "node %d has outdegree %d outside [0, %d]" id d s)
  else if d mod 2 <> 0 then
    Some (violation "degree-parity" "node %d has odd outdegree %d" id d)
  else None

(* Every view is a row of its engine's store and departed rows are empty,
   so the global edge count is the store's degree sum. *)
let total_edges runner = View.Flat.total_edges (Runner.store runner)

module Flat = View.Flat

(* The one structural scan, over any store whose row [u] is node [u]'s
   view.  A row that is not [live] must hold nothing: leaves clear the
   view.  A live row is checked for M1 bounds and parity against
   [config], the one config every row runs, for slots [0, degree)
   occupied and the rest empty, and each entry for an id inside the
   store (live views may hold departed ids, which
   decay through the protocol, but never ids of no row), global serial
   uniqueness, [serial_bound u serial] and a born stamp in [[0, clock]]
   ([stamp] names the clock's unit). *)
let walk store ~live ~config ~serial_bound ~clock ~stamp =
  let cap = Flat.node_count store in
  let seen = Hashtbl.create 4096 in
  let violations = ref [] in
  let record v = violations := v :: !violations in
  for u = 0 to cap - 1 do
    let d = Flat.degree store u in
    if not (live u) then begin
      if d <> 0 then
        record (violation "dead-slot-empty" "dead slot %d still has outdegree %d" u d)
    end
    else begin
      Option.iter record (check_degree ~config u d);
      Option.iter record (soundness store u);
      for slot = 0 to d - 1 do
        let id = Flat.id_at store u slot in
        if id >= 0 then begin
          if id >= cap then
            record (violation "id-bound" "node %d holds id %d outside [0, %d)" u id cap);
          let serial = Flat.serial_at store u slot in
          (match Hashtbl.find_opt seen serial with
          | Some owner ->
            record
              (violation "serial-uniqueness" "serial %d held by both node %d and node %d"
                 serial owner u)
          | None -> Hashtbl.add seen serial u);
          Option.iter record (serial_bound u serial);
          let born = Flat.born_at store u slot in
          if born < 0 || born > clock then
            record
              (violation "birth-bound" "node %d holds an entry born %s %d > clock %d" u
                 stamp born clock)
        end
      done
    end
  done;
  List.rev !violations

(* The sequential runner: its live config, serials below the mint
   counter, born at an action. *)
let scan runner =
  let minted = Runner.minted_serials runner in
  walk (Runner.store runner) ~live:(Runner.is_live runner)
    ~config:(Runner.config runner)
    ~serial_bound:(fun u serial ->
      if serial < 0 || serial >= minted then
        Some
          (violation "serial-bound" "node %d holds serial %d outside [0, %d)" u serial
             minted)
      else None)
    ~clock:(Runner.action_count runner) ~stamp:"at action"

(* --- Final views of a UDP cluster: no per-action audit hook --- *)

let check_rows ~config store =
  List.concat_map
    (fun u ->
      Option.to_list (check_degree ~config u (Flat.degree store u))
      @ Option.to_list (soundness store u))
    (List.init (Flat.node_count store) Fun.id)

(* The reports fill one store, row u = node u, in slot order; the
   degree rule reads the reported count, a row keeps at most s. *)
let check_reports ~config ~n reports =
  let s = config.Protocol.view_size in
  let store = View.create_rows ~nodes:n s in
  let seen = Array.make n false and found = ref [] in
  let record v = found := v :: !found in
  List.iter
    (fun (u, entries) ->
      if u < 0 || u >= n then
        record (violation "report-id" "node %d is outside [0, %d)" u n)
      else if seen.(u) then
        record (violation "report-repeated" "node %d reported twice" u)
      else begin
        seen.(u) <- true;
        Option.iter record (check_degree ~config u (List.length entries));
        List.iteri
          (fun slot (e : View.entry) ->
            let anchor = Option.value e.anchor ~default:(-1) in
            if not (e.id >= 0 && Flat.fits store ~id:e.id ~anchor ~born:e.born) then
              record (violation "view-soundness" "node %d: slot %d holds nothing" u slot)
            else if e.id >= n then
              record (violation "id-bound" "node %d holds id %d outside [0, %d)" u e.id n)
            else if Flat.degree store u < s then
              View.set_entry store u (Flat.degree store u) e)
          entries
      end)
    reports;
  (match List.find_opt (fun u -> not seen.(u)) (List.init n Fun.id) with
  | Some u -> record (violation "report-missing" "node %d sent no final view" u)
  | None ->
    let probe = Overlay.probe (Overlay.forest n) store ~live:(fun _ -> true) in
    List.iter
      (fun u ->
        record (violation "weak-connectivity" "node %d's component is split off" u))
      (Overlay.stragglers probe));
  List.rev !found

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
  (* The live config: adaptive retuning moves dL, and the dL rule must be
     judged against the threshold the node actually ran with. *)
  let config = Runner.config runner in
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
    if Runner.is_live runner receiver then
      Option.iter (report a)
        (check_degree ~config:(Runner.config runner) receiver
           (View.Flat.degree (Runner.store runner) receiver))
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

(* A packed world: one config for every row, the shard-strided serial
   bound (serial c*S + i is valid iff shard i has minted more than c
   times), born in a round. *)
let scan_sharded w =
  let shard_count = Sharded.shard_count w in
  let minted = Sharded.minted w in
  walk (Sharded.store w) ~live:(Sharded.is_live w) ~config:(Sharded.config w)
    ~serial_bound:(fun u serial ->
      if serial < 0 || serial / shard_count >= minted.(serial mod shard_count) then
        Some
          (violation "serial-bound"
             "node %d holds serial %d beyond shard %d's mint position %d" u serial
             (serial mod shard_count)
             minted.(serial mod shard_count))
      else None)
    ~clock:(Sharded.rounds_completed w) ~stamp:"in round"

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
