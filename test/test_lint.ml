(* Tests for the sf_lint rule engine: every rule fires on a bad fixture,
   stays quiet on a clean one, and the allowlist both suppresses findings
   and reports its own stale entries. *)

module Lint = Sf_lint_rules.Lint_rules

let rules_of findings = List.map (fun f -> f.Lint.rule) findings

let check_fires name ~rule ~path source =
  let findings = Lint.check_file ~path source in
  Alcotest.(check bool)
    (name ^ ": fires " ^ rule)
    true
    (List.mem rule (rules_of findings))

let check_quiet name ~path source =
  let findings = Lint.check_file ~path source in
  Alcotest.(check (list string)) (name ^ ": quiet") [] (rules_of findings)

(* A representative clean library module: seeded randomness, logs-based
   reporting, total stdlib calls only. *)
let clean_module =
  {|
let pick rng xs = Sf_prng.Rng.choose rng xs

let head = function [] -> None | x :: _ -> Some x

let report ppf x = Fmt.pf ppf "value %d@." x
|}

(* --- determinism --- *)

let test_determinism_fires () =
  check_fires "ambient Random" ~rule:"determinism" ~path:"lib/core/bad.ml"
    "let x = Random.int 10";
  check_fires "polymorphic hash" ~rule:"determinism" ~path:"lib/core/bad.ml"
    "let h = Hashtbl.hash key";
  (* The rule also covers executables and benches, not just lib/. *)
  check_fires "bench too" ~rule:"determinism" ~path:"bench/bad.ml"
    "let x = Random.bool ()"

let test_determinism_quiet () =
  check_quiet "clean module" ~path:"lib/core/good.ml" clean_module;
  (* Qualified submodules of other libraries do not match. *)
  check_quiet "someone's Random submodule" ~path:"lib/core/good.ml"
    "let x = Mylib.Random.int 10";
  (* Mentions inside comments and strings are not code. *)
  check_quiet "comment mention" ~path:"lib/core/good.ml"
    "(* never call Random.int or Unix.gettimeofday here *)\nlet x = 1";
  check_quiet "string mention" ~path:"lib/core/good.ml"
    {|let usage = "do not use Sys.time"|};
  check_quiet "nested comment" ~path:"lib/core/good.ml"
    "(* outer (* Random.int *) still comment *)\nlet x = 1"

(* --- clock-discipline --- *)

let test_clock_discipline_fires () =
  check_fires "wall clock" ~rule:"clock-discipline" ~path:"lib/core/bad.ml"
    "let t = Unix.gettimeofday ()";
  check_fires "process clock" ~rule:"clock-discipline" ~path:"lib/core/bad.ml"
    "let t = Sys.time ()";
  (* Executables and benches must inject clocks too. *)
  check_fires "bench too" ~rule:"clock-discipline" ~path:"bench/bad.ml"
    "let t0 = Unix.gettimeofday ()"

let test_clock_discipline_exempts_obs_clock () =
  (* The single sanctioned wall-clock site in the tree. *)
  check_quiet "lib/obs/clock.ml" ~path:"lib/obs/clock.ml"
    "let wall = Unix.gettimeofday";
  (* Only that exact path — a neighbour module gets no exemption. *)
  check_fires "lib/obs/span.ml not exempt" ~rule:"clock-discipline"
    ~path:"lib/obs/span.ml" "let t = Unix.gettimeofday ()"

(* --- no-obj-magic --- *)

let test_obj_magic () =
  check_fires "magic" ~rule:"no-obj-magic" ~path:"lib/core/bad.ml"
    "let f (x : int) : string = Obj.magic x";
  check_fires "magic in test code too" ~rule:"no-obj-magic" ~path:"test/bad.ml"
    "let y = Obj.magic 0";
  check_quiet "no magic" ~path:"lib/core/good.ml" clean_module

(* --- no-partial --- *)

let test_partial_fires () =
  check_fires "List.hd" ~rule:"no-partial" ~path:"lib/core/bad.ml"
    "let x = List.hd xs";
  check_fires "List.tl" ~rule:"no-partial" ~path:"lib/core/bad.ml"
    "let x = List.tl xs";
  check_fires "List.nth" ~rule:"no-partial" ~path:"lib/core/bad.ml"
    "let x = List.nth xs 3";
  check_fires "Option.get" ~rule:"no-partial" ~path:"lib/core/bad.ml"
    "let x = Option.get o"

let test_partial_quiet_on_total_variants () =
  check_quiet "List.nth_opt is total" ~path:"lib/core/good.ml"
    "let x = List.nth_opt xs 3";
  check_quiet "List.hd renamed elsewhere" ~path:"lib/core/good.ml"
    "let x = MyList.hd xs"

(* --- no-print --- *)

let test_print_scoped_to_lib () =
  check_fires "printf in lib" ~rule:"no-print" ~path:"lib/stats/bad.ml"
    {|let () = Printf.printf "%d" 3|};
  check_fires "print_endline in lib" ~rule:"no-print" ~path:"lib/stats/bad.ml"
    {|let () = print_endline "hi"|};
  (* Executables may print; the rule is about library hygiene. *)
  check_quiet "print in bin is fine" ~path:"bin/tool.ml"
    {|let () = print_endline "hi"|};
  check_quiet "print in bench is fine" ~path:"bench/b.ml"
    {|let () = Printf.printf "x"|}

(* --- missing-mli --- *)

let test_missing_mli () =
  let findings =
    Lint.check_missing_mli
      [ "lib/core/a.ml"; "lib/core/a.mli"; "lib/core/b.ml"; "bin/main.ml" ]
  in
  Alcotest.(check (list string))
    "only the uncovered lib module" [ "lib/core/b.ml" ]
    (List.map (fun f -> f.Lint.path) findings);
  Alcotest.(check (list string)) "rule id" [ "missing-mli" ] (rules_of findings)

let test_check_files_combines () =
  let findings =
    Lint.check_files
      [
        ("lib/core/a.ml", "let x = List.hd xs");
        ("lib/core/a.mli", "val x : int");
        ("lib/core/b.ml", "let y = 1");
      ]
  in
  let rules = List.sort_uniq compare (rules_of findings) in
  Alcotest.(check (list string)) "token + file-set rules" [ "missing-mli"; "no-partial" ] rules

(* --- quoted strings {|…|} / {id|…|id} ---

   A quote or comment opener inside a quoted string used to desync the
   stripper and corrupt every lexical rule for the rest of the file. *)

let test_quoted_strings_do_not_desync () =
  (* The unbalanced '"' inside {|…|} must not open a string: the Random.
     call after it is real code and must still fire. *)
  check_fires "quote inside {|...|}" ~rule:"determinism" ~path:"lib/core/bad.ml"
    "let s = {|he said \"hi|}\nlet x = Random.int 3";
  (* Same with a comment opener in the payload. *)
  check_fires "comment opener inside {|...|}" ~rule:"determinism"
    ~path:"lib/core/bad.ml" "let s = {|open (* not a comment|}\nlet x = Random.int 3";
  (* Delimited form: the payload may even contain |} of a shorter id. *)
  check_fires "delimited {id|...|id}" ~rule:"determinism" ~path:"lib/core/bad.ml"
    "let s = {ext|contains |} and \" quote|ext}\nlet x = Random.int 3"

let test_quoted_string_contents_are_not_code () =
  (* Mentions inside the payload are data, not code. *)
  check_quiet "token inside {|...|}" ~path:"lib/core/good.ml"
    "let usage = {|never call Random.int here|}";
  check_quiet "token inside {id|...|id}" ~path:"lib/core/good.ml"
    "let usage = {doc|List.hd raises on []|doc}";
  (* Quoted strings inside comments are recognised by the OCaml lexer:
     an unbalanced comment closer within one must not end the comment. *)
  check_quiet "quoted string inside comment" ~path:"lib/core/good.ml"
    "(* example: {|*)|} still comment *) let x = 1";
  (* A lone '{' that opens no quoted string is ordinary code. *)
  check_fires "brace is not a quoted string" ~rule:"determinism"
    ~path:"lib/core/bad.ml" "let r = { contents = Random.int 3 }"

let test_unterminated_quoted_string () =
  (* Unterminated payload blanks to EOF rather than looping or raising. *)
  check_quiet "unterminated {|" ~path:"lib/core/good.ml"
    "let s = {|Random.int with no close"

(* --- line numbers --- *)

let test_line_numbers () =
  match Lint.check_file ~path:"lib/x/bad.ml" "let a = 1\nlet b = List.hd xs\n" with
  | [ f ] -> Alcotest.(check int) "line 2" 2 f.Lint.line
  | fs -> Alcotest.fail (Fmt.str "expected one finding, got %d" (List.length fs))

(* --- allowlist --- *)

let test_allowlist_parse () =
  let content =
    "# comment\n\nlib/net/driver.ml determinism # trailing comment\nbench/main.ml *\n"
  in
  match Lint.parse_allowlist content with
  | Ok [ a; b ] ->
    Alcotest.(check string) "path" "lib/net/driver.ml" a.Lint.allow_path;
    Alcotest.(check string) "rule" "determinism" a.Lint.allow_rule;
    Alcotest.(check string) "wildcard" "*" b.Lint.allow_rule
  | Ok entries -> Alcotest.fail (Fmt.str "expected 2 entries, got %d" (List.length entries))
  | Error e -> Alcotest.fail e

let test_allowlist_rejects_garbage () =
  match Lint.parse_allowlist "one two three\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error"

let test_allowlist_suppresses () =
  let findings = Lint.check_file ~path:"lib/core/bad.ml" "let x = Random.int 3" in
  Alcotest.(check bool) "finding exists" true (findings <> []);
  let allow = { Lint.allow_path = "lib/core/bad.ml"; allow_rule = "determinism" } in
  let kept, stale = Lint.apply_allowlist [ allow ] findings in
  Alcotest.(check (list string)) "suppressed" [] (rules_of kept);
  Alcotest.(check int) "entry was used" 0 (List.length stale)

let test_allowlist_is_rule_specific () =
  let findings =
    Lint.check_file ~path:"lib/core/bad.ml" "let x = Random.int (List.hd xs)"
  in
  let allow = { Lint.allow_path = "lib/core/bad.ml"; allow_rule = "determinism" } in
  let kept, _ = Lint.apply_allowlist [ allow ] findings in
  Alcotest.(check (list string)) "no-partial survives" [ "no-partial" ] (rules_of kept)

let test_allowlist_reports_stale_entries () =
  let allow = { Lint.allow_path = "lib/core/clean.ml"; allow_rule = "determinism" } in
  let kept, stale = Lint.apply_allowlist [ allow ] [] in
  Alcotest.(check int) "nothing kept" 0 (List.length kept);
  Alcotest.(check int) "entry is stale" 1 (List.length stale)

(* --- the real tree is clean ---

   The authoritative run is `dune build @lint` (wired into CI); here we
   spot-check the engine against two real sources to guard against the
   stripper or tokenizer regressing in a way fixtures miss. *)

let read path = In_channel.with_open_bin path In_channel.input_all

let test_real_sources () =
  let view = read "../lib/core/view.ml" in
  check_quiet "lib/core/view.ml" ~path:"lib/core/view.ml" view;
  (* Since the ?now default moved to Sf_obs.Clock.wall, the cluster driver
     is clock-clean without any allowlist entry. *)
  let driver = read "../lib/net/driver.ml" in
  check_quiet "lib/net/driver.ml" ~path:"lib/net/driver.ml" driver;
  (* The one sanctioned wall-clock site really holds a wall clock (the same
     source fires under any other path) — and really is exempt. *)
  let clock = read "../lib/obs/clock.ml" in
  check_fires "clock.ml holds a wall clock" ~rule:"clock-discipline"
    ~path:"lib/core/clock.ml" clock;
  check_quiet "lib/obs/clock.ml" ~path:"lib/obs/clock.ml" clock

(* --- one-step-rule --- *)

let test_one_step_rule_fires () =
  check_fires "qualified draw" ~rule:"one-step-rule" ~path:"lib/core/runner.ml"
    "let j = Sf_prng.Rng.other rng 16 i";
  check_fires "draw under open Sf_prng" ~rule:"one-step-rule"
    ~path:"lib/net/driver.ml" "let j = Rng.other rng 16 i";
  check_fires "bench too" ~rule:"one-step-rule" ~path:"bench/bad.ml"
    "let j = Sf_prng.Rng.other rng 8 0";
  check_fires "examples too" ~rule:"one-step-rule" ~path:"examples/bad.ml"
    "let j = Sf_prng.Rng.other rng 8 0"

let test_one_step_rule_exempts_protocol () =
  (* The row kernel really draws the slot pair (the same source fires
     under any other path) — and really is exempt. *)
  let protocol = read "../lib/core/protocol.ml" in
  check_fires "protocol.ml draws the slot pair" ~rule:"one-step-rule"
    ~path:"lib/core/runner.ml" protocol;
  check_quiet "lib/core/protocol.ml" ~path:"lib/core/protocol.ml" protocol;
  (* Tests exercise the draw directly. *)
  check_quiet "test/ is out of scope" ~path:"test/test_prng.ml"
    "let j = Rng.other rng 16 i"

(* --- one-resilience-loop --- *)

let test_one_resilience_loop_fires () =
  check_fires "qualified estimator feed" ~rule:"one-resilience-loop"
    ~path:"lib/core/runner.ml"
    "let () = Sf_resil.Estimator.observe e ~sends ~duplications ~deletions";
  check_fires "controller under open Sf_resil" ~rule:"one-resilience-loop"
    ~path:"lib/net/driver.ml" "let pair = Controller.decide c ~loss";
  check_fires "supervisor transition in bin" ~rule:"one-resilience-loop"
    ~path:"bin/sfg.ml" "let d = Sf_resil.Supervisor.record_attempt s ~now";
  check_fires "bench too" ~rule:"one-resilience-loop" ~path:"bench/bad.ml"
    "let () = Supervisor.record_success s";
  check_fires "examples too" ~rule:"one-resilience-loop" ~path:"examples/bad.ml"
    "let () = Supervisor.record_healthy s"

let test_one_resilience_loop_exempts_lib_resilience () =
  (* The loop really feeds the estimator and asks the controller (the
     same source fires under any other path) — and really is exempt. *)
  let loop = read "../lib/resilience/loop.ml" in
  check_fires "loop.ml drives the loop" ~rule:"one-resilience-loop"
    ~path:"lib/core/runner.ml" loop;
  check_quiet "lib/resilience/loop.ml" ~path:"lib/resilience/loop.ml" loop;
  let supervisor = read "../lib/resilience/supervisor.ml" in
  check_quiet "lib/resilience/supervisor.ml" ~path:"lib/resilience/supervisor.ml"
    supervisor;
  (* Tests exercise the pieces directly; [step] is the engines' entry. *)
  check_quiet "test/ is out of scope" ~path:"test/test_resil.ml"
    "let d = Supervisor.record_attempt sup ~now:0.";
  check_quiet "Supervisor.step is allowed" ~path:"lib/core/runner.ml"
    "let o = Sf_resil.Supervisor.step s ~now probe"

(* --- one-install-rule --- *)

let test_one_install_rule_fires () =
  check_fires "insert in the runner" ~rule:"one-install-rule"
    ~path:"lib/core/runner.ml"
    "let () = View.Flat.insert store u rng ~id ~serial ~anchor:(-1) ~born:0";
  check_fires "entry insert in the runner" ~rule:"one-install-rule"
    ~path:"lib/core/runner.ml" "let () = View.insert_entry store u rng e";
  check_fires "flat write under a module alias" ~rule:"one-install-rule"
    ~path:"lib/core/runner.ml"
    "let () = Flat.set store u k ~id ~serial ~anchor:(-1) ~born:0";
  check_fires "qualified view write in the driver" ~rule:"one-install-rule"
    ~path:"lib/net/driver.ml" "let () = Sf_core.View.set view slot entry";
  check_fires "bench too" ~rule:"one-install-rule" ~path:"bench/bad.ml"
    "let () = Sf_core.View.Flat.insert store u rng ~id ~serial ~anchor ~born";
  check_fires "examples too" ~rule:"one-install-rule" ~path:"examples/bad.ml"
    "let () = View.set view 0 entry"

let test_one_install_rule_exempts_protocol () =
  (* The receive step really inserts and the install rule really writes
     views (the same source fires under any other path) —
     and protocol.ml is out of scope. *)
  let protocol = read "../lib/core/protocol.ml" in
  check_fires "protocol.ml fills views" ~rule:"one-install-rule"
    ~path:"lib/net/driver.ml" protocol;
  check_quiet "lib/core/protocol.ml" ~path:"lib/core/protocol.ml" protocol;
  (* Other protocols fill their own views. *)
  check_quiet "baselines are out of scope" ~path:"lib/core/baselines.ml"
    "let () = View.set view slot e";
  check_quiet "install calls are allowed" ~path:"lib/core/runner.ml"
    "let n = Protocol.install_copy view 0 ~owner ~donor";
  check_quiet "id installs too" ~path:"lib/core/runner.ml"
    "let () = Protocol.install_ids view 0 ids ~born:0 ~mint";
  check_quiet "a local insert is not the view's" ~path:"lib/core/sessions.ml"
    "let rec insert = function [] -> [] | x :: rest -> x :: insert rest"

(* --- one-overlay-probe --- *)

let test_one_overlay_probe_fires () =
  check_fires "a Digraph probe in the runner" ~rule:"one-overlay-probe"
    ~path:"lib/core/runner.ml"
    "let ok = Sf_graph.Digraph.is_weakly_connected (membership_graph t)";
  check_fires "components in churn" ~rule:"one-overlay-probe" ~path:"lib/core/churn.ml"
    "let cs = Digraph.weakly_connected_components g";
  check_fires "sessions too" ~rule:"one-overlay-probe" ~path:"lib/core/sessions.ml"
    "let ok = Digraph.is_weakly_connected g";
  check_fires "properties too" ~rule:"one-overlay-probe" ~path:"lib/core/properties.ml"
    "let cs = Sf_graph.Digraph.weakly_connected_components g";
  check_fires "baselines too" ~rule:"one-overlay-probe" ~path:"lib/core/baselines.ml"
    "let c = Sf_graph.Digraph.is_weakly_connected (membership_graph t)";
  check_fires "variants too" ~rule:"one-overlay-probe" ~path:"lib/core/variants.ml"
    "let c = Digraph.is_weakly_connected g";
  check_fires "the UDP driver" ~rule:"one-overlay-probe" ~path:"lib/net/driver.ml"
    "let c = Sf_graph.Digraph.is_weakly_connected g";
  check_fires "any net module" ~rule:"one-overlay-probe" ~path:"lib/net/spawner.ml"
    "let cs = Digraph.weakly_connected_components g";
  check_fires "the CLI gates" ~rule:"one-overlay-probe" ~path:"bin/sfg.ml"
    "let ok = Sf_graph.Digraph.is_weakly_connected graph"

let test_one_overlay_probe_quiet () =
  (* The graph quality metrics and the global chain analyse arbitrary
     graphs, not an engine's store. *)
  check_quiet "quality" ~path:"lib/graph/quality.ml"
    "let cs = Digraph.weakly_connected_components survivor";
  check_quiet "global chain" ~path:"lib/analysis/global_mc.ml"
    "let ok = Sf_graph.Digraph.is_weakly_connected g";
  check_quiet "other executables" ~path:"bin/sf_nodehost.ml"
    "let ok = Digraph.is_weakly_connected g";
  check_quiet "the probe is allowed" ~path:"lib/core/properties.ml"
    "let c = Overlay.connected (Runner.probe runner)";
  List.iter
    (fun path -> check_quiet path ~path (read ("../" ^ path)))
    [ "lib/core/runner.ml"; "lib/core/churn.ml"; "lib/core/sessions.ml";
      "lib/core/properties.ml"; "lib/core/baselines.ml"; "lib/core/variants.ml";
      "lib/net/driver.ml"; "lib/net/spawner.ml"; "lib/net/nodehost.ml";
      "lib/net/codec.ml"; "bin/sfg.ml" ]

(* --- one-message-matrix --- *)

let test_one_message_matrix_fires () =
  let grow =
    "let () = if need > Array.length a.buf then begin\n\
    \  let grown = Array.make (2 * Array.length a.buf) 0 in\n\
    \  Array.blit a.buf 0 grown 0 a.len; a.buf <- grown end"
  in
  check_fires "an arena in the runner" ~rule:"one-message-matrix"
    ~path:"lib/core/runner.ml" grow;
  check_fires "an arena in the spread engine" ~rule:"one-message-matrix"
    ~path:"lib/dissemination/flat.ml" grow

let test_one_message_matrix_quiet () =
  (* The mailbox itself grows its boxes; other modules copy arrays for
     their own reasons. *)
  check_quiet "the mailbox" ~path:"lib/engine/mailbox.ml"
    (read "../lib/engine/mailbox.ml");
  check_quiet "the view store" ~path:"lib/core/view.ml"
    "let () = Array.blit store.degrees 0 g.degrees 0 store.nodes";
  check_quiet "pushes are allowed" ~path:"lib/core/runner.ml"
    "let i = Sf_engine.Mailbox.push t.mail ~src ~dst";
  List.iter
    (fun path -> check_quiet path ~path (read ("../" ^ path)))
    [ "lib/core/runner.ml"; "lib/dissemination/flat.ml" ]

(* --- driver-row-kernel --- *)

let test_driver_row_kernel_fires () =
  let fires name source =
    check_fires name ~rule:"driver-row-kernel" ~path:"lib/net/driver.ml" source
  in
  fires "boxed encode" "let packets = Codec.encode_batch messages";
  fires "boxed decode" "let d = Codec.decode_datagram buffer ~length";
  fires "span closures" "let () = Sf_obs.Span.time span (fun () -> work ())";
  fires "recvfrom" "let n, _ = Unix.recvfrom fd buffer 0 len []";
  fires "boxed float draw" "let u = Sf_prng.Rng.float t.rng";
  fires "boxed float draw, short path" "let u = Rng.float rng";
  fires "option lookup" "let ns = Hashtbl.find_opt by_socket fd";
  fires "select result" "let readable, _, _ = Unix.select fds [] [] timeout";
  (* The real driver is clean, and the row kernel's names are allowed. *)
  check_quiet "lib/net/driver.ml" ~path:"lib/net/driver.ml" (read "../lib/net/driver.ml");
  check_quiet "row kernel calls" ~path:"lib/net/driver.ml"
    "let d = Protocol.initiate_row rng store i ~owner ~dl ~born ~mint msg\n\
     let a = Protocol.receive_row rng store i msg\n\
     let () = Codec.write_frame buffer i msg\n\
     let u = float_of_int (Sf_prng.Rng.float_bits rng) *. 0x1p-53\n\
     let () = Sf_obs.Span.observe_ns span ns";
  (* The boxed forms stay available everywhere else. *)
  check_quiet "other modules" ~path:"lib/net/nodehost.ml"
    "let packets = Codec.encode_batch messages"

(* --- nodehost-control-in-place --- *)

let test_nodehost_control_in_place_fires () =
  let fires name source =
    check_fires name ~rule:"nodehost-control-in-place" ~path:"lib/net/nodehost.ml"
      source
  in
  fires "split" "let words = String.split_on_char ' ' line";
  fires "trim" "let line = String.trim line";
  fires "sub_string" "let line = Bytes.sub_string buffer 0 length";
  (* The real node-host is clean; the rest of lib/ may build strings. *)
  check_quiet "lib/net/nodehost.ml" ~path:"lib/net/nodehost.ml"
    (read "../lib/net/nodehost.ml");
  check_quiet "the spawner parses reports" ~path:"lib/net/spawner.ml"
    "let fields = String.split_on_char ' ' (String.trim line)"

let suite =
  [
    Alcotest.test_case "determinism fires" `Quick test_determinism_fires;
    Alcotest.test_case "determinism quiet" `Quick test_determinism_quiet;
    Alcotest.test_case "clock-discipline fires" `Quick test_clock_discipline_fires;
    Alcotest.test_case "clock-discipline exempts lib/obs/clock.ml" `Quick
      test_clock_discipline_exempts_obs_clock;
    Alcotest.test_case "no-obj-magic" `Quick test_obj_magic;
    Alcotest.test_case "no-partial fires" `Quick test_partial_fires;
    Alcotest.test_case "no-partial quiet on _opt" `Quick test_partial_quiet_on_total_variants;
    Alcotest.test_case "no-print scoped to lib" `Quick test_print_scoped_to_lib;
    Alcotest.test_case "missing-mli" `Quick test_missing_mli;
    Alcotest.test_case "check_files combines rules" `Quick test_check_files_combines;
    Alcotest.test_case "quoted strings do not desync" `Quick
      test_quoted_strings_do_not_desync;
    Alcotest.test_case "quoted string contents are not code" `Quick
      test_quoted_string_contents_are_not_code;
    Alcotest.test_case "unterminated quoted string" `Quick
      test_unterminated_quoted_string;
    Alcotest.test_case "line numbers" `Quick test_line_numbers;
    Alcotest.test_case "allowlist parse" `Quick test_allowlist_parse;
    Alcotest.test_case "allowlist rejects garbage" `Quick test_allowlist_rejects_garbage;
    Alcotest.test_case "allowlist suppresses" `Quick test_allowlist_suppresses;
    Alcotest.test_case "allowlist is rule-specific" `Quick test_allowlist_is_rule_specific;
    Alcotest.test_case "allowlist reports stale entries" `Quick test_allowlist_reports_stale_entries;
    Alcotest.test_case "real sources" `Quick test_real_sources;
    Alcotest.test_case "one-step-rule fires" `Quick test_one_step_rule_fires;
    Alcotest.test_case "one-step-rule exempts lib/core/protocol.ml" `Quick
      test_one_step_rule_exempts_protocol;
    Alcotest.test_case "one-resilience-loop fires" `Quick
      test_one_resilience_loop_fires;
    Alcotest.test_case "one-resilience-loop exempts lib/resilience/" `Quick
      test_one_resilience_loop_exempts_lib_resilience;
    Alcotest.test_case "one-install-rule fires" `Quick test_one_install_rule_fires;
    Alcotest.test_case "driver-row-kernel fires" `Quick test_driver_row_kernel_fires;
    Alcotest.test_case "one-overlay-probe fires" `Quick test_one_overlay_probe_fires;
    Alcotest.test_case "one-overlay-probe quiet" `Quick test_one_overlay_probe_quiet;
    Alcotest.test_case "one-install-rule exempts lib/core/protocol.ml" `Quick
      test_one_install_rule_exempts_protocol;
    Alcotest.test_case "nodehost-control-in-place fires" `Quick
      test_nodehost_control_in_place_fires;
    Alcotest.test_case "one-message-matrix fires" `Quick test_one_message_matrix_fires;
    Alcotest.test_case "one-message-matrix quiet" `Quick test_one_message_matrix_quiet;
  ]
