(* CLUSTER: the multi-process UDP gate (ROADMAP item 4), written to
   BENCH_cluster.json.

   One run forks real node-host processes through Sf_net.Spawner —
   thousands of real sockets are available but the CI budget keeps this
   at 8 hosts x 32 nodes = 256 — exchanging batched, CRC-framed
   datagrams under bursty Gilbert-Elliott loss with a crash window
   realized as a genuine kill -9 of one host plus a controller respawn.

   The run gates on the merged post-heal state: every host completed
   the stop protocol, every node reported a structurally sound view with
   even M1-bounded outdegree, and the merged overlay is weakly
   connected.  The JSON carries the wire economics (datagrams/second,
   batch-fill ratio, per-action p50/p99 latency) next to the process
   chaos ledger (kills, respawns, heartbeat timeouts).  Exit 1 on a
   failed verdict, matching `sfg cluster`. *)

module Spawner = Sf_net.Spawner
module Json = Sf_obs.Json

let seed = 42
let hosts = 8
let per_host = 32
let rounds = 200
let period = 0.01
let view_size = 12

let scenario () =
  let n = hosts * per_host in
  let spec =
    Fmt.str "ge:0.15:6;crash@%d-%d:%d-%d" (rounds * 2 / 10) (rounds * 4 / 10)
      per_host
      (min (n - 1) ((2 * per_host) - 1))
  in
  match Sf_faults.Scenario.of_string spec with
  | Ok sc -> sc
  | Error e -> Fmt.failwith "CLUSTER scenario: %s" e

let nodehost_built () =
  let dir = Filename.dirname Sys.executable_name in
  List.exists Sys.file_exists
    [
      Filename.concat dir "sf_nodehost.exe";
      Filename.concat dir "../bin/sf_nodehost.exe";
    ]

let stat key (h : Spawner.host_outcome) =
  match List.assoc_opt key h.Spawner.stats with Some v -> v | None -> 0.

let sum key (o : Spawner.outcome) =
  List.fold_left (fun acc h -> acc +. stat key h) 0. o.Spawner.hosts

let maxs key (o : Spawner.outcome) =
  List.fold_left (fun acc h -> Float.max acc (stat key h)) 0. o.Spawner.hosts

(* The same gate `sfg cluster` applies, reduced to a list of failures. *)
let verdict (o : Spawner.outcome) =
  let n = hosts * per_host in
  let failures = ref [] in
  let fail fmt = Fmt.kstr (fun m -> failures := m :: !failures) fmt in
  let byes = List.length (List.filter (fun h -> h.Spawner.bye) o.Spawner.hosts) in
  if byes <> hosts then fail "%d/%d hosts completed the stop protocol" byes hosts;
  let reported = List.length o.Spawner.merged_views in
  if reported <> n then fail "%d/%d nodes reported a final view" reported n;
  let graph = Sf_graph.Digraph.create () in
  List.iter
    (fun (id, entries) ->
      Sf_graph.Digraph.ensure_vertex graph id;
      let view = Sf_core.View.create view_size in
      List.iteri
        (fun slot e ->
          if slot < view_size then begin
            Sf_core.View.set view slot e;
            Sf_graph.Digraph.add_edge graph id e.Sf_core.View.id
          end)
        entries;
      (match Sf_check.Invariant.check_view view with
      | Some v -> fail "node %d: %a" id Sf_check.Invariant.pp_violation v
      | None -> ());
      let d = Sf_core.View.degree view in
      if d > view_size || d mod 2 <> 0 then
        fail "node %d: outdegree %d violates M1 bounds or parity" id d)
    o.Spawner.merged_views;
  if reported = n && not (Sf_graph.Digraph.is_weakly_connected graph) then
    fail "merged overlay is not weakly connected";
  if o.Spawner.kills = 0 then fail "crash window declared but nothing was killed";
  if o.Spawner.respawns = 0 then fail "crash window declared but nothing respawned";
  List.rev !failures

let leg ~base_port =
  let cfg =
    Spawner.make_config ~view_size ~lower_threshold:4 ~loss_rate:0.01 ~period
      ~hosts ~nodes_per_host:per_host ~base_port
      ~scenario:(scenario ()) ~seed
      ~duration:(float_of_int rounds *. period)
      ()
  in
  let o = Spawner.run cfg in
  let emitted = sum "emitted" o in
  let batches = sum "batches" o in
  let frames = sum "frames" o in
  let fill =
    if batches > 0. then frames /. (batches *. float_of_int Sf_net.Codec.max_batch)
    else 0.
  in
  let failures = verdict o in
  let wall = Float.max o.Spawner.wall_seconds 1e-9 in
  Fmt.pr
    "  %d hosts x %d nodes: %.0f dgrams (%.0f/s), fill %.3f, p99 %.0fus, \
     %d kills / %d respawns -> %s@."
    hosts per_host emitted (emitted /. wall) fill (maxs "p99_us" o)
    o.Spawner.kills o.Spawner.respawns
    (if failures = [] then "OK" else "FAIL");
  List.iter (fun f -> Fmt.epr "  CLUSTER: %s@." f) failures;
  let json =
    Json.Obj
      [
        ("hosts", Json.Int hosts);
        ("nodes", Json.Int (hosts * per_host));
        ("rounds", Json.Int rounds);
        ("wall_seconds", Json.Float o.Spawner.wall_seconds);
        ("kills", Json.Int o.Spawner.kills);
        ("respawns", Json.Int o.Spawner.respawns);
        ("hb_timeouts", Json.Int o.Spawner.hb_timeouts);
        ("unexpected_deaths", Json.Int o.Spawner.unexpected_deaths);
        ("heartbeats", Json.Int o.Spawner.heartbeats);
        ("datagrams", Json.Float emitted);
        ("datagrams_per_sec", Json.Float (emitted /. wall));
        ("batches", Json.Float batches);
        ("frames", Json.Float frames);
        ("batch_fill", Json.Float fill);
        ("crc_rejected", Json.Float (sum "crc_rejected" o));
        ("p50_us", Json.Float (maxs "p50_us" o));
        ("p99_us", Json.Float (maxs "p99_us" o));
        ("ok", Json.Bool (failures = []));
      ]
  in
  (json, failures = [])

let run () =
  if not (nodehost_built ()) then begin
    Fmt.pr "  CLUSTER skipped: sf_nodehost.exe not built next to this binary@.";
    Json.Obj [ ("skipped", Json.Bool true) ]
  end
  else begin
    let json, ok = leg ~base_port:45_800 in
    if not ok then exit 1;
    json
  end
