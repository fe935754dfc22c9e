(* Tests for lib/dissemination: the flat-state spread engine over the
   sharded runner, its determinism contracts, its push epidemic against
   the historical push spread over the sequential runner, and the
   coverage semantics under crash faults. *)

module Runner = Sf_core.Runner
module Sharded = Sf_core.Runner.Sharded
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module Sampling = Sf_core.Sampling
module Strategy = Sf_spread.Strategy
module Report = Sf_spread.Report
module Flat = Sf_spread.Flat
module Rng = Sf_prng.Rng

let config = Protocol.make_config ~view_size:16 ~lower_threshold:4

let scenario s =
  match Sf_faults.Scenario.of_string s with
  | Ok sc -> sc
  | Error e -> Alcotest.fail ("scenario parse: " ^ e)

let make_runner ?(seed = 77) ?(n = 400) ?(loss = 0.) () =
  let rng = Rng.create (seed + 1000) in
  let topology = Topology.regular rng ~n ~out_degree:8 in
  Runner.create ~seed ~n ~loss_rate:loss ~config ~topology ()

(* The flat engine's twin of [make_runner]: the same n, config and
   out-degree, as a scattered start on 8 shards. *)
let flat_world ?scenario ?(seed = 77) ?(n = 400) ?(loss = 0.) () =
  Sharded.create ~shards:8 ~loss_rate:loss ~init:Sharded.Scatter ~init_degree:8
    ?scenario ~seed ~n ~config ()

(* --- Push under i.i.d. loss: against the historical spread --- *)

(* The historical push epidemic (the pre-refactor [spread] of
   [Sf_core.Dissemination]), inlined verbatim (its
   whole body fits on a page): one Hashtbl of infected ids, fanout view
   samples per infected node per round, one unconditional bernoulli per
   push.  It is the independent oracle for the flat engine's push. *)
let reference_spread ?(coverage_target = 0.99) ?(max_rounds = 200) runner rng
    ~fanout ~loss_rate ~source () =
  let infected = Hashtbl.create 1024 in
  Hashtbl.replace infected source ();
  let pushes = ref 0 in
  let coverage = ref [] in
  let fraction () =
    float_of_int (Hashtbl.length infected)
    /. float_of_int (max 1 (Runner.live_count runner))
  in
  let rounds_to_half = ref None and rounds_to_all = ref None in
  let round = ref 0 in
  while !rounds_to_all = None && !round < max_rounds do
    incr round;
    Runner.run_rounds runner 1;
    let currently_infected =
      Hashtbl.fold (fun id () acc -> id :: acc) infected []
    in
    List.iter
      (fun id ->
        if Runner.is_live runner id then begin
          let targets = Sampling.sample_many runner rng ~node_id:id ~k:fanout in
          List.iter
            (fun target ->
              incr pushes;
              if not (Rng.bernoulli rng loss_rate) then
                if Runner.is_live runner target then
                  Hashtbl.replace infected target ())
            targets
        end)
      currently_infected;
    let f = fraction () in
    coverage := f :: !coverage;
    if !rounds_to_half = None && f >= 0.5 then rounds_to_half := Some !round;
    if !rounds_to_all = None && f >= coverage_target then
      rounds_to_all := Some !round
  done;
  ( !rounds_to_half,
    !rounds_to_all,
    Array.of_list (List.rev !coverage),
    !pushes )

(* The flat engine's push over a sharded world against the historical
   push over a sequential runner of the same n, config and loss, both
   after 20 membership rounds, seeds 1-10.  Measured spread (flat minus
   historical): rounds to half -1..+1, rounds to 99% 0..+3.  The
   tolerances add one round of headroom to each; a flat push that sends
   fanout - 1 messages lands +3..+6 and +5..+13 rounds off. *)
let test_push_against_historical () =
  List.iter
    (fun loss_rate ->
      for seed = 1 to 10 do
        let r = make_runner ~seed ~loss:loss_rate () in
        Runner.run_rounds r 20;
        let half, all, _, _ =
          reference_spread r (Rng.create (seed + 4242)) ~fanout:2 ~loss_rate
            ~source:0 ()
        in
        let w = flat_world ~seed ~loss:loss_rate () in
        Sharded.run_rounds w 20;
        let t =
          Flat.run ~domains:1
            (Flat.create ~strategy:Strategy.Push ~fanout:2 ~source:0
               ~seed:(seed + 4242) w)
        in
        let within what tolerance want got =
          match (want, got) with
          | Some want, Some got ->
            Alcotest.(check bool)
              (Fmt.str "loss %g seed %d: %s %d vs historical %d (+-%d)"
                 loss_rate seed what got want tolerance)
              true
              (abs (got - want) <= tolerance)
          | _ -> Alcotest.failf "loss %g seed %d: %s not reached" loss_rate seed what
        in
        within "rounds to half" 2 half t.Report.rounds_to_half;
        within "rounds to 99%" 4 all t.Report.rounds_to_target
      done)
    [ 0.; 0.2 ]

(* --- Per-strategy determinism --- *)

let test_strategy_determinism () =
  List.iter
    (fun strategy ->
      let run () =
        let w = flat_world ~scenario:(scenario "ge:0.2:8") ~loss:0.01 () in
        let sp = Flat.create ~strategy ~fanout:2 ~source:0 ~seed:9 w in
        (sp, Flat.run ~domains:1 sp)
      in
      let sp_a, a = run () and sp_b, b = run () in
      Alcotest.(check bool)
        (Strategy.to_string strategy ^ " replays bit-for-bit")
        true
        (Report.equal a b && Flat.equal sp_a sp_b);
      Alcotest.(check bool)
        (Strategy.to_string strategy ^ " reached target")
        true (Report.reached a);
      Alcotest.(check int)
        (Strategy.to_string strategy ^ " messages = pushes + requests")
        a.Report.messages
        (a.Report.pushes + a.Report.requests))
    Strategy.all

(* --- Coverage denominator: crashed nodes are unreachable, not missing --- *)

(* An eighth of the nodes crash for the whole run.  They can never be
   informed, so with the historical all-live denominator coverage would
   cap at 7/8 < 0.99 and the spread could never terminate; against the
   reachable (live, un-crashed) population it completes normally. *)
let test_crash_coverage_denominator () =
  let w = flat_world ~scenario:(scenario "crash@1-200:0-49") () in
  let report =
    Flat.run ~domains:1
      (Flat.create ~strategy:Strategy.Push ~fanout:2 ~source:60 ~seed:9 w)
  in
  Alcotest.(check bool) "reached 0.99 of reachable nodes" true
    (Report.reached report);
  Alcotest.(check bool)
    (Fmt.str "terminated early (%d rounds)" report.Report.rounds)
    true
    (report.Report.rounds < 200);
  Alcotest.(check bool) "some messages died on crashed targets" true
    (report.Report.lost > 0)

(* --- Flat engine: domain-count invariance under chaos --- *)

let flat_chaos_world () =
  Sharded.create ~shards:8 ~loss_rate:0. ~init:Sharded.Scatter
    ~scenario:(scenario "ge:0.2:8;crash@2-6:0-39")
    ~churn:{ Sharded.churn_rate = 0.01; headroom = 64 }
    ~seed:5 ~n:800 ~config ()

let test_flat_domain_invariance () =
  List.iter
    (fun strategy ->
      let run domains =
        let w = flat_chaos_world () in
        Sharded.run_rounds w ~domains 10;
        let sp = Flat.create ~strategy ~source:0 ~seed:11 w in
        let report = Flat.run ~max_rounds:60 ~domains sp in
        (sp, report)
      in
      let sp1, rep1 = run 1 and sp2, rep2 = run 2 and sp4, rep4 = run 4 in
      Alcotest.(check bool)
        (Strategy.to_string strategy ^ ": 2 domains, engine bit-identical")
        true (Flat.equal sp1 sp2);
      Alcotest.(check bool)
        (Strategy.to_string strategy ^ ": 4 domains, engine bit-identical")
        true (Flat.equal sp1 sp4);
      Alcotest.(check bool)
        (Strategy.to_string strategy ^ ": reports identical")
        true
        (Report.equal rep1 rep2 && Report.equal rep1 rep4);
      Alcotest.(check int)
        (Strategy.to_string strategy ^ ": infection census identical")
        (Flat.infected_count sp1) (Flat.infected_count sp4))
    Strategy.all

(* --- Flat engine: the two headline spreading claims, at n = 10^4 --- *)

let flat_leg ~strategy ~n ~seed =
  let w =
    Sharded.create ~shards:16 ~loss_rate:0. ~init:Sharded.Scatter
      ~scenario:(scenario "ge:0.2:8") ~seed ~n ~config ()
  in
  Sharded.run_rounds w ~domains:4 20;
  let sp = Flat.create ~strategy ~fanout:2 ~source:0 ~seed:(seed + 6) w in
  Flat.run ~max_rounds:120 ~domains:4 sp

(* Doerr et al.: push-pull completes in O(log n) rounds even under
   constant loss — here 20% bursty, n = 10^4, envelope c = 4. *)
let test_push_pull_log_completion () =
  let n = 10_000 in
  let report = flat_leg ~strategy:Strategy.Push_pull ~n ~seed:3 in
  let rounds =
    match report.Report.rounds_to_target with
    | Some r -> float_of_int r
    | None -> infinity
  in
  let envelope = Strategy.envelope ~c:4.0 ~n in
  Alcotest.(check bool)
    (Fmt.str "push-pull: %.0f rounds <= %.1f envelope at 20%% loss" rounds
       envelope)
    true
    (rounds <= envelope)

(* Haeupler-Malkhi: learned direct addresses buy the same coverage for
   fewer messages than blind push. *)
let test_direct_beats_push_messages () =
  let n = 10_000 in
  let push = flat_leg ~strategy:Strategy.Push ~n ~seed:3 in
  let direct = flat_leg ~strategy:Strategy.Direct ~n ~seed:3 in
  Alcotest.(check bool) "both reached" true
    (Report.reached push && Report.reached direct);
  Alcotest.(check bool)
    (Fmt.str "direct %d < push %d messages" direct.Report.messages
       push.Report.messages)
    true
    (direct.Report.messages < push.Report.messages)

(* --- Known answers: each engine's spread under partition and crash
   windows, pinned so a refactor of the verdict path cannot move them --- *)

let report_ints (r : Report.t) =
  let opt = Option.value ~default:(-1) in
  [ r.Report.rounds; opt r.Report.rounds_to_half; opt r.Report.rounds_to_target;
    r.Report.messages; r.Report.pushes; r.Report.requests;
    r.Report.duplicates; r.Report.lost; r.Report.to_dead ]

(* Bursty loss, a partition and a crash wave on a churning world, plus a
   uniform-loss twin so the i.i.d. verdict is pinned as well. *)
let flat_known_world ~scenario:s ~loss_rate =
  Sharded.create ~shards:8 ~loss_rate ~init:Sharded.Scatter ~scenario:(scenario s)
    ~churn:{ Sharded.churn_rate = 0.01; headroom = 64 }
    ~seed:5 ~n:800 ~config ()

let test_flat_known_answer () =
  List.iter
    (fun (s, loss_rate, expected) ->
      List.iter2
        (fun strategy want ->
          let w = flat_known_world ~scenario:s ~loss_rate in
          Sharded.run_rounds w ~domains:1 8;
          let sp = Flat.create ~strategy ~source:0 ~seed:11 w in
          let r = Flat.run ~max_rounds:40 ~domains:1 sp in
          Alcotest.(check (list int))
            (Fmt.str "%s %s: report, infected" s (Strategy.to_string strategy))
            want
            (report_ints r @ [ Flat.infected_count sp ]))
        Strategy.all expected)
    [
      ( "ge:0.2:8;partition@9-13:2;crash@10-15:0-39", 0.,
        [ [ 40; 11; -1; 44348; 44348; 0; 32062; 8901; 2394; 775 ];
          [ 9; 7; 9; 15031; 4717; 10314; 2840; 5472; 584; 794 ];
          [ 40; 12; -1; 26205; 26205; 0; 18918; 4826; 1481; 771 ] ] );
      ( "partition@9-13:3;crash@10-15:100-139", 0.05,
        [ [ 40; -1; -1; 0; 0; 0; 0; 0; 0; 0 ];
          [ 40; -1; -1; 63630; 0; 63630; 0; 7182; 3966; 0 ];
          [ 40; -1; -1; 0; 0; 0; 0; 0; 0; 0 ] ] );
    ]

(* The churn-free twin of the flat known answer on a 400-node world:
   report, then the world's counters (actions, sends, lost), then its
   fault statistics (judged, chance, partition and crash drops,
   transitions). *)
let test_churn_free_known_answer () =
  List.iter2
    (fun strategy want ->
      let w =
        flat_world ~scenario:(scenario "partition@1-4:2;crash@2-6:0-49")
          ~loss:0.05 ()
      in
      let rep =
        Flat.run ~domains:1
          (Flat.create ~strategy ~fanout:2 ~source:60 ~seed:9 w)
      in
      let c = Sharded.world_counters w in
      let f =
        match Sharded.fault_statistics w with
        | Some f -> f
        | None -> Alcotest.fail "world lost its fault statistics"
      in
      Alcotest.(check (list int)) (Strategy.to_string strategy) want
        (report_ints rep
        @ [ c.Runner.actions; c.Runner.sends; c.Runner.messages_lost;
            f.Sf_faults.Injector.judged; f.Sf_faults.Injector.chance_drops;
            f.Sf_faults.Injector.partition_drops; f.Sf_faults.Injector.crash_drops;
            f.Sf_faults.Injector.fault_transitions ]))
    Strategy.all
    [ [ 12; 8; 12; 3104; 3104; 0; 2545; 163; 0; 4600; 951; 50; 951; 50; 108; 30; 4 ];
      [ 6; 5; 6; 4776; 1344; 3432; 755; 1517; 0; 2200; 475; 22; 475; 22; 108; 30; 3 ];
      [ 11; 8; 11; 2271; 2271; 0; 1719; 157; 0; 4200; 879; 46; 879; 46; 108; 30; 4 ] ]

(* --- Churn: a joiner inherits nothing from its slot's last node --- *)

(* Every message is dropped (one partition per node), so the source is
   the only node that can ever be informed.  Once its slot has left, the
   infected count must read 0 — also after a joiner takes the slot.
   With 30% churn and no headroom the source leaves within 30 rounds in
   every one of the 20 worlds. *)
let test_joiner_starts_uninformed () =
  for seed = 1 to 20 do
    let w =
      Sharded.create ~shards:4 ~init:Sharded.Scatter ~init_degree:8
        ~scenario:(scenario "partition@0-1000:400")
        ~churn:{ Sharded.churn_rate = 0.3; headroom = 0 }
        ~seed ~n:400 ~config ()
    in
    let sp = Flat.create ~strategy:Strategy.Push ~source:0 ~seed w in
    let left = ref false in
    for _ = 1 to 30 do
      Flat.run_round sp ~domains:1;
      if not (Sharded.is_live w 0) then left := true;
      if !left then
        Alcotest.(check int)
          (Fmt.str "world %d: nobody informed once the source left" seed)
          0 (Flat.infected_count sp)
    done;
    Alcotest.(check int)
      (Fmt.str "world %d: nobody informed after 30 rounds" seed)
      0 (Flat.infected_count sp);
    Alcotest.(check bool) (Fmt.str "world %d: the source's slot was seen dead" seed)
      true !left
  done

(* --- Allocation: attaching a spread and running its rounds --- *)

(* Minor words allocated while [f] runs.  Int64 and float values box
   under bytecode, so the allocation test runs on the native backend
   only. *)
let minor_words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* n = 10^4 on 16 shards, for each strategy: [Flat.create] allocates
   little beyond its 16 x 16 mailboxes of 64-message buffers: three for
   push-pull (152,651 minor words; 154,115 before the two engines shared
   one mailbox type, the bound), one for push and direct, whose pull
   mailboxes start empty (53,835; bound 55,000), and ten spread
   rounds allocate at most 0.05
   minor words per spread message plus membership action — no tuple,
   closure or option per message or ring operation (Direct's ring tuples
   read 0.67). *)
let test_spread_allocation () =
  if Sys.backend_type = Sys.Native then
    List.iter
      (fun strategy ->
        let name = Strategy.to_string strategy in
        let w =
          Sharded.create ~shards:16 ~loss_rate:0.05 ~init:Sharded.Scatter
            ~init_degree:8 ~seed:42 ~n:10_000 ~config ()
        in
        Sharded.run_rounds w ~domains:1 3;
        let w0 = Gc.minor_words () in
        let sp = Flat.create ~strategy ~source:0 ~seed:7 w in
        let create_words = Gc.minor_words () -. w0 in
        let actions0 = (Sharded.world_counters w).Runner.actions in
        let words =
          minor_words_during (fun () ->
              for _ = 1 to 10 do
                Flat.run_round sp ~domains:1
              done)
        in
        let work =
          (Flat.report sp).Report.messages
          + (Sharded.world_counters w).Runner.actions - actions0
        in
        let per = words /. float_of_int work in
        let bound = if strategy = Strategy.Push_pull then 154_115. else 55_000. in
        Alcotest.(check bool)
          (Fmt.str "%s: Flat.create %.0f minor words <= %.0f" name create_words bound)
          true (create_words <= bound);
        Alcotest.(check bool)
          (Fmt.str "%s: %.4f minor words per message + action <= 0.05" name per)
          true (per <= 0.05))
      Strategy.all

(* --- The sfg gates' exit-code precedence --- *)

(* Runs the sfg binary built beside this test's directory; returns its
   exit status and what it wrote to stderr. *)
let run_sfg args =
  let sfg =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/sfg.exe"
  in
  let err = Filename.temp_file "sfg" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let status =
        Sys.command
          (Filename.quote_command sfg ~stdout:Filename.null
             ~stderr:err args)
      in
      (status, In_channel.with_open_text err In_channel.input_all))

let contains text sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length text && (String.sub text i n = sub || at (i + 1))
  in
  at 0

(* A fault class that never engaged (a partition window past the end of
   the run) exits 2 on its own, but never hides a real failure: with the
   coverage target missed as well, the gate exits 1 and reports both. *)
let test_gate_exit_precedence () =
  let status, err =
    run_sfg
      [ "spread"; "--n"; "1000"; "--max-rounds"; "1";
        "--scenario"; "partition@500-600:2" ]
  in
  Alcotest.(check int) "missed target and dead class exit 1" 1 status;
  Alcotest.(check bool) "the missed target is reported" true
    (contains err "coverage target 0.99 not reached");
  Alcotest.(check bool) "the dead class is reported" true
    (contains err "partition declared but zero partition drops");
  let status, err =
    run_sfg
      [ "scale"; "--n"; "2000"; "--rounds"; "3";
        "--scenario"; "partition@500-600:2" ]
  in
  Alcotest.(check int) "a dead class alone exits 2" 2 status;
  Alcotest.(check bool) "the dead class is reported" true
    (contains err "partition declared but zero partition drops")

(* A scenario the sharded engine cannot run (delay and corrupt windows)
   fails the gate with the engine's own message, never an uncaught
   exception. *)
let test_gate_refuses_unsupported_world () =
  List.iter
    (fun args ->
      let status, err = run_sfg args in
      let cmd = String.concat " " args in
      Alcotest.(check int) (cmd ^ ": exit 1") 1 status;
      Alcotest.(check bool) (cmd ^ ": the engine's message is reported") true
        (contains err "not supported on the sharded engine"))
    [ [ "spread"; "--n"; "1000"; "--scenario"; "delay@1-5:2" ];
      [ "scale"; "--n"; "1000"; "--rounds"; "2"; "--scenario"; "corrupt@1-5:0.1" ] ]

let suite =
  [
    Alcotest.test_case "flat push against the historical push spread" `Quick
      test_push_against_historical;
    Alcotest.test_case "flat per-strategy determinism" `Quick
      test_strategy_determinism;
    Alcotest.test_case "crash-aware coverage denominator" `Quick
      test_crash_coverage_denominator;
    Alcotest.test_case "flat domain-count invariance (all strategies)" `Quick
      test_flat_domain_invariance;
    Alcotest.test_case "push-pull O(log n) under loss at 10k" `Slow
      test_push_pull_log_completion;
    Alcotest.test_case "direct beats push on messages at 10k" `Slow
      test_direct_beats_push_messages;
    Alcotest.test_case "flat spread known answer" `Quick test_flat_known_answer;
    Alcotest.test_case "flat churn-free known answer" `Quick
      test_churn_free_known_answer;
    Alcotest.test_case "sfg gate exit precedence" `Quick test_gate_exit_precedence;
    Alcotest.test_case "sfg refuses what the sharded engine cannot run" `Quick
      test_gate_refuses_unsupported_world;
    Alcotest.test_case "spread allocation" `Quick test_spread_allocation;
    Alcotest.test_case "a joiner starts uninformed" `Quick
      test_joiner_starts_uninformed;
  ]
