(* Tests for the sf_analyze pass engine: each pass fires on a bad fixture
   and stays quiet on a clean one, the baseline both suppresses findings
   and reports its own stale entries, and the committed baseline covers
   the real tree exactly. *)

module A = Sf_analyze_passes.Analyze_passes

let rules_of (a : A.analysis) = List.map (fun (f : A.finding) -> f.rule) a.findings

let check_fires name ~rule ~path source =
  let a = A.analyze_file ~path source in
  Alcotest.(check bool) (name ^ ": fires " ^ rule) true (List.mem rule (rules_of a))

let check_quiet name ~path source =
  let a = A.analyze_file ~path source in
  Alcotest.(check (list string)) (name ^ ": quiet") [] (rules_of a)

(* --- shared-state inventory --- *)

let test_shared_state_fires () =
  (* The acceptance fixture: a deliberate toplevel ref must be caught. *)
  let a = A.analyze_file ~path:"lib/core/fixture.ml" "let counter = ref 0" in
  Alcotest.(check bool) "toplevel ref fires" true
    (List.mem "shared-state" (rules_of a));
  (match a.hazards with
  | [ h ] ->
    Alcotest.(check string) "hazard ident" "counter" h.A.h_ident;
    Alcotest.(check bool) "unclassified until baselined" false h.A.h_classified
  | hs -> Alcotest.fail (Fmt.str "expected one hazard, got %d" (List.length hs)));
  (* Other allocator families are hazards too. *)
  check_fires "toplevel Hashtbl" ~rule:"shared-state" ~path:"lib/core/f.ml"
    "let table = Hashtbl.create 16";
  check_fires "toplevel array" ~rule:"shared-state" ~path:"lib/core/f.ml"
    "let cache = Array.make 8 0";
  check_fires "toplevel lazy" ~rule:"shared-state" ~path:"lib/core/f.ml"
    "let v = lazy (compute ())";
  (* Inside a submodule the binding is still module-level state. *)
  check_fires "ref in submodule" ~rule:"shared-state" ~path:"lib/core/f.ml"
    "module M = struct let slot = ref None end"

let test_shared_state_quiet () =
  (* An allocation under a lambda is per-call: a safe site, not a hazard. *)
  let a =
    A.analyze_file ~path:"lib/core/f.ml"
      "let fresh () = ref 0\nlet run n = Array.make n 0"
  in
  Alcotest.(check (list string)) "no findings" [] (rules_of a);
  Alcotest.(check int) "no hazards" 0 (List.length a.hazards);
  Alcotest.(check bool) "counted as safe sites" true
    (List.assoc_opt "lib/core/f.ml" a.safe_sites = Some 2);
  (* A binding that binds nothing cannot publish state. *)
  check_quiet "let () = driver" ~path:"bin/f.ml"
    "let () = let stop = ref false in while not !stop do step stop done";
  (* Functor bodies initialise per application. *)
  check_quiet "functor body" ~path:"lib/core/f.ml"
    "module Make (X : sig end) = struct let state = ref 0 end";
  (* Immutable toplevel data is not state at all. *)
  check_quiet "immutable toplevel" ~path:"lib/core/f.ml"
    "let golden = 0x9E3779B97F4A7C15L\nlet names = [ \"a\"; \"b\" ]"

(* --- effect signatures and discipline --- *)

let test_effect_signatures () =
  let a =
    A.analyze_file ~path:"bench/f.ml"
      "let tick c = incr c\nlet add a b = a + b"
  in
  (match a.effect_sigs with
  | [ s ] ->
    Alcotest.(check string) "effectful fn" "tick" s.A.e_name;
    Alcotest.(check (list string)) "mutation only" [ "mut" ]
      (A.effect_letters s.A.e_effects)
  | ss -> Alcotest.fail (Fmt.str "expected one signature, got %d" (List.length ss)));
  Alcotest.(check int) "pure fn counted" 1 a.pure_functions;
  (* Binary writes into a byte buffer are mutation too: the PRNG keeps its
     state that way. *)
  let b =
    A.analyze_file ~path:"lib/prng/f.ml"
      "let put st x = Bytes.set_int64_ne st 8 x\n\
       let put8 st = Bytes.set_uint8 st 0 1\n\
       let get st = Bytes.get_int64_ne st 8"
  in
  Alcotest.(check (list (pair string (list string))))
    "binary setters mutate, getters do not"
    [ ("put", [ "mut" ]); ("put8", [ "mut" ]) ]
    (List.map (fun s -> (s.A.e_name, A.effect_letters s.A.e_effects)) b.effect_sigs)

(* Bigarray writes are mutation whether spelled out, aliased or written
   with the [.{}] syntax; reads are not. *)
let test_bigarray_mutators () =
  let a =
    A.analyze_file ~path:"lib/core/f.ml"
      "module Lane = Bigarray.Array1\n\
       let put a i v = Bigarray.Array1.set a i (Int32.of_int v)\n\
       let put2 a v = Bigarray.Array2.unsafe_set a 0 0 v\n\
       let wipe a = Bigarray.Genarray.fill a 0l\n\
       let copy a b = Lane.blit a b\n\
       let poke a = a.{0} <- 1l\n\
       let get a i = Int32.to_int (Bigarray.Array1.get a i)"
  in
  Alcotest.(check (list (pair string (list string))))
    "every writer mutates, the reader is pure"
    [ ("put", [ "mut" ]); ("put2", [ "mut" ]); ("wipe", [ "mut" ]);
      ("copy", [ "mut" ]); ("poke", [ "mut" ]) ]
    (List.map (fun s -> (s.A.e_name, A.effect_letters s.A.e_effects)) a.effect_sigs);
  Alcotest.(check int) "reader counted pure" 1 a.pure_functions

let test_effect_discipline () =
  (* I/O from the pure layers is a finding... *)
  check_fires "io in lib/core" ~rule:"effect-discipline" ~path:"lib/core/f.ml"
    "let log x = print_endline x";
  check_fires "clock in lib/engine" ~rule:"effect-discipline"
    ~path:"lib/engine/f.ml" "let stamp () = Unix.gettimeofday ()";
  (* ...but fine from a bench or an executable. *)
  check_quiet "io in bench" ~path:"bench/f.ml" "let log x = print_endline x";
  (* Mutation alone does not violate the discipline. *)
  check_quiet "mutation in lib/core" ~path:"lib/core/f.ml"
    "let bump st = st.count <- st.count + 1"

let test_raise_locality () =
  check_fires "foreign exception" ~rule:"raise-locality" ~path:"lib/core/f.ml"
    "let f () = raise Stack_overflow";
  (* Locally declared exceptions, guard forms and re-raises are fine. *)
  check_quiet "local exception" ~path:"lib/core/f.ml"
    "exception Saturated\nlet f () = raise Saturated";
  check_quiet "invalid_arg guard" ~path:"lib/core/f.ml"
    "let f n = if n < 0 then invalid_arg \"f\" else n";
  (* Outside the pure layers the rule does not apply. *)
  check_quiet "raise in bench" ~path:"bench/f.ml"
    "let f () = raise Stack_overflow"

(* --- partiality --- *)

let test_partiality_fires () =
  check_fires "pipeline List.hd" ~rule:"partiality" ~path:"lib/core/f.ml"
    "let first xs = xs |> List.hd";
  check_fires "aliased module" ~rule:"partiality" ~path:"lib/core/f.ml"
    "module L = List\nlet first xs = L.hd xs";
  check_fires "unguarded Queue.pop" ~rule:"partiality" ~path:"lib/core/f.ml"
    "let f q = Queue.pop q";
  check_fires "higher-order position" ~rule:"partiality" ~path:"lib/core/f.ml"
    "let firsts xss = List.map List.hd xss"

let test_partiality_quiet () =
  check_quiet "total variant" ~path:"lib/core/f.ml"
    "let first xs = List.nth_opt xs 0";
  (* A dominating emptiness test exempts Queue/Stack pops. *)
  check_quiet "guarded Queue.pop" ~path:"lib/core/f.ml"
    "let drain q = while not (Queue.is_empty q) do ignore (Queue.pop q) done";
  check_quiet "guarded Stack.pop" ~path:"lib/core/f.ml"
    "let top s = if Stack.length s > 0 then Some (Stack.pop s) else None"

let test_partial_escape () =
  check_fires "Array.get escapes" ~rule:"partial-escape" ~path:"lib/core/f.ml"
    "let getter = Array.get";
  check_quiet "Array.get fully applied" ~path:"lib/core/f.ml"
    "let f a = Array.get a 0"

let test_refutable_let () =
  check_fires "refutable let" ~rule:"refutable-let" ~path:"lib/core/f.ml"
    "let f o = let (Some v) = o in v";
  check_quiet "irrefutable tuple let" ~path:"lib/core/f.ml"
    "let f p = let a, b = p in a + b"

let test_match_suppression () =
  check_fires "warning -8 attribute" ~rule:"match-suppression"
    ~path:"lib/core/f.ml"
    "let f x = match[@warning \"-8\"] x with Some y -> y";
  check_quiet "exhaustive match" ~path:"lib/core/f.ml"
    "let f x = match x with Some y -> y | None -> 0"

let test_parse_error () =
  check_fires "syntax error" ~rule:"parse-error" ~path:"lib/core/f.ml"
    "let = ="

(* --- unused exports (whole program) --- *)

(* One library interface exporting [used] and [spare], its own .ml, and a
   test that calls both: the fixture every case below extends with one
   caller. *)
let export_fixture callers =
  [
    ("lib/core/widget.mli", "val used : int -> int\nval spare : int -> int\n");
    ("lib/core/widget.ml", "let used x = x + 1\nlet spare x = used x\n");
    ("test/test_widget.ml", "let () = ignore (Widget.used 1, Widget.spare 2)\n");
  ]
  @ callers

let unused_exports files =
  (A.analyze_files files).findings
  |> List.filter (fun (f : A.finding) -> f.rule = "unused-export")
  |> List.map (fun (f : A.finding) -> f.ident)

let test_unused_export_fires () =
  (* Only a test and the module itself use either value: both fire, on
     the interface's line. *)
  let findings =
    (A.analyze_files (export_fixture [])).findings
    |> List.filter (fun (f : A.finding) -> f.rule = "unused-export")
  in
  Alcotest.(check (list string)) "both values fire" [ "Widget.used"; "Widget.spare" ]
    (List.map (fun (f : A.finding) -> f.ident) findings);
  Alcotest.(check (list string)) "reported on the .mli" [ "lib/core/widget.mli:1" ]
    (List.filter_map
       (fun (f : A.finding) ->
         if f.ident = "Widget.used" then Some (Fmt.str "%s:%d" f.path f.line) else None)
       findings);
  (* A single-file run has no whole program to judge. *)
  Alcotest.(check (list string)) "per-file analysis is silent" []
    (rules_of (A.analyze_file ~path:"lib/core/widget.mli" "val spare : int -> int"));
  (* An example calling one value leaves the other a finding. *)
  Alcotest.(check (list string)) "examples are callers" [ "Widget.spare" ]
    (unused_exports (export_fixture [ ("examples/demo.ml", "let () = ignore (Widget.used 0)") ]))

let test_unused_export_quiet () =
  let reached name caller =
    Alcotest.(check (list string)) (name ^ ": only spare fires") [ "Widget.spare" ]
      (unused_exports (export_fixture [ caller ]))
  in
  reached "qualified through the library" ("bin/main.ml", "let x = Sf_core.Widget.used 1");
  reached "module alias"
    ("bench/b.ml", "module W = Sf_core.Widget\nlet x = W.used 1");
  reached "chained alias"
    ("bench/b.ml", "module C = Sf_core\nmodule W = C.Widget\nlet x = W.used 1");
  reached "open" ("perfbench/p.ml", "open Sf_core.Widget\nlet x = used 1");
  reached "let open" ("bench/b.ml", "let x = let open Sf_core.Widget in used 1");
  reached "local open" ("bench/b.ml", "let x = Sf_core.Widget.(used 1)");
  reached "let module" ("bench/b.ml", "let x = let module W = Sf_core.Widget in W.used 1");
  (* A value of a nested signature, reached through its parent. *)
  let nested callers =
    unused_exports
      ([
         ( "lib/core/outer.mli",
           "module Sub : sig\n  val step : int -> int\n  val spare : int -> int\nend\n" );
       ]
      @ callers)
  in
  Alcotest.(check (list string)) "nested signature fires" [ "Outer.Sub.step"; "Outer.Sub.spare" ]
    (nested []);
  Alcotest.(check (list string)) "nested value through a parent alias" [ "Outer.Sub.spare" ]
    (nested [ ("bin/m.ml", "module S = Sf_core.Outer.Sub\nlet x = S.step 0") ]);
  (* [include] re-exports a module whole: every value counts as used. *)
  Alcotest.(check (list string)) "include" []
    (unused_exports (export_fixture [ ("bench/b.ml", "include Sf_core.Widget") ]));
  (* A path resolution cannot place (an executable's own alias, as in
     perfbench's [Sim.Sharded]) matches on its last module name: a caller,
     not a finding. *)
  reached "unplaceable path" ("perfbench/p.ml", "let x = Host.Inner.Widget.used 1")

let test_unused_export_baseline () =
  (* The stale-baseline contract holds for the new rule.  An entry names
     one value ("interface:Module.value"): it suppresses that finding
     only, an interface-wide entry suppresses none, and an entry goes
     stale once its value has a caller. *)
  let entry ident =
    { A.allow_path = "lib/core/widget.mli:" ^ ident; allow_rule = "unused-export" }
  in
  let kept, stale =
    A.apply_baseline [ entry "Widget.spare" ] (A.analyze_files (export_fixture []))
  in
  Alcotest.(check (list string)) "only the named value is suppressed" [ "Widget.used" ]
    (List.map (fun (f : A.finding) -> f.ident) kept);
  Alcotest.(check int) "entry used" 0 (List.length stale);
  let whole = { A.allow_path = "lib/core/widget.mli"; allow_rule = "unused-export" } in
  let kept, stale = A.apply_baseline [ whole ] (A.analyze_files (export_fixture [])) in
  Alcotest.(check int) "an interface-wide entry suppresses nothing" 2 (List.length kept);
  Alcotest.(check int) "and is stale" 1 (List.length stale);
  let callers =
    [ ("bin/main.ml", "let x = Sf_core.Widget.used 1\nlet y = Sf_core.Widget.spare 1") ]
  in
  let kept, stale =
    A.apply_baseline [ entry "Widget.spare" ] (A.analyze_files (export_fixture callers))
  in
  Alcotest.(check int) "nothing left to suppress" 0 (List.length kept);
  Alcotest.(check (list string)) "entry is stale" [ "lib/core/widget.mli:Widget.spare" ]
    (List.map (fun e -> e.A.allow_path) stale)

(* --- baseline --- *)

let test_baseline_suppresses_and_classifies () =
  let a = A.analyze_file ~path:"lib/core/f.ml" "let counter = ref 0" in
  let entry = { A.allow_path = "lib/core/f.ml"; allow_rule = "shared-state" } in
  let kept, stale = A.apply_baseline [ entry ] a in
  Alcotest.(check int) "suppressed" 0 (List.length kept);
  Alcotest.(check int) "entry used" 0 (List.length stale);
  Alcotest.(check bool) "hazard classified in place" true
    (List.for_all (fun h -> h.A.h_classified) a.hazards)

let test_baseline_reports_stale_entries () =
  let entry = { A.allow_path = "lib/core/clean.ml"; allow_rule = "shared-state" } in
  let kept, stale = A.apply_baseline [ entry ] A.empty_analysis in
  Alcotest.(check int) "nothing kept" 0 (List.length kept);
  Alcotest.(check int) "entry is stale" 1 (List.length stale)

let test_baseline_parser_is_lints () =
  (* Same parser, same contract: 'path rule', '#' comments, errors on
     malformed lines. *)
  (match A.parse_baseline "# c\nlib/x.ml shared-state\n" with
  | Ok [ e ] ->
    Alcotest.(check string) "path" "lib/x.ml" e.A.allow_path;
    Alcotest.(check string) "rule" "shared-state" e.A.allow_rule
  | Ok es -> Alcotest.fail (Fmt.str "expected 1 entry, got %d" (List.length es))
  | Error e -> Alcotest.fail e);
  match A.parse_baseline "one two three\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error"

(* --- rule registry --- *)

let test_rule_docs_stable () =
  Alcotest.(check (list string)) "stable rule order"
    [
      "shared-state";
      "effect-discipline";
      "raise-locality";
      "partiality";
      "partial-escape";
      "refutable-let";
      "match-suppression";
      "parse-error";
      "unused-export";
    ]
    (List.map fst A.rule_docs)

(* --- the real tree is clean under the committed baseline ---

   The authoritative run is `dune build @analyze` (wired into CI); this
   smoke test re-runs the passes over the same sources and asserts the
   committed analyze.baseline suppresses everything and nothing more —
   no uncovered finding, no stale entry, no unclassified hazard in the
   pure layers. *)

let read path = In_channel.with_open_bin path In_channel.input_all

let rec source_files dir =
  List.concat_map
    (fun entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then
        if entry = "_build" || String.length entry > 0 && entry.[0] = '.' then []
        else source_files path
      else if
        Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
      then [ path ]
      else [])
    (Array.to_list (Sys.readdir dir) |> List.sort compare)

let repo_relative path =
  (* The test binary runs in _build/default/test; sources are addressed
     as ../lib/... but the baseline speaks repo-relative paths. *)
  match String.length path >= 3 && String.sub path 0 3 = "../" with
  | true -> String.sub path 3 (String.length path - 3)
  | false -> path

let test_tree_matches_baseline () =
  let files =
    List.concat_map source_files
      [ "../lib"; "../bin"; "../bench"; "../tool"; "../perfbench"; "../examples" ]
    |> List.map (fun p -> (repo_relative p, read p))
  in
  Alcotest.(check bool) "tree is non-trivial" true (List.length files > 100);
  let a = A.analyze_files files in
  Alcotest.(check int) "all files parsed" (List.length files) a.parsed_files;
  let baseline =
    match A.parse_baseline (read "../analyze.baseline") with
    | Ok entries -> entries
    | Error e -> Alcotest.fail e
  in
  let kept, stale = A.apply_baseline baseline a in
  Alcotest.(check (list string)) "no uncovered findings" []
    (List.map (fun (f : A.finding) -> Fmt.str "%a" A.pp_finding f) kept);
  Alcotest.(check (list string)) "no stale baseline entries" []
    (List.map (fun e -> e.A.allow_path) stale);
  (* The ROADMAP-1 gate: the pure layers hold no unclassified globals. *)
  let unclassified_pure =
    List.filter
      (fun h ->
        (not h.A.h_classified)
        && (String.length h.A.h_path >= 9
            && (String.sub h.A.h_path 0 9 = "lib/core/"
               || String.length h.A.h_path >= 11
                  && String.sub h.A.h_path 0 11 = "lib/engine/")))
      a.hazards
  in
  Alcotest.(check int) "no unclassified hazards in lib/core + lib/engine" 0
    (List.length unclassified_pure)

let suite =
  [
    Alcotest.test_case "shared-state fires" `Quick test_shared_state_fires;
    Alcotest.test_case "shared-state quiet" `Quick test_shared_state_quiet;
    Alcotest.test_case "effect signatures" `Quick test_effect_signatures;
    Alcotest.test_case "Bigarray writes mutate" `Quick test_bigarray_mutators;
    Alcotest.test_case "effect discipline" `Quick test_effect_discipline;
    Alcotest.test_case "raise locality" `Quick test_raise_locality;
    Alcotest.test_case "partiality fires" `Quick test_partiality_fires;
    Alcotest.test_case "partiality quiet" `Quick test_partiality_quiet;
    Alcotest.test_case "partial escape" `Quick test_partial_escape;
    Alcotest.test_case "refutable let" `Quick test_refutable_let;
    Alcotest.test_case "match suppression" `Quick test_match_suppression;
    Alcotest.test_case "parse error" `Quick test_parse_error;
    Alcotest.test_case "unused export fires" `Quick test_unused_export_fires;
    Alcotest.test_case "unused export quiet through aliases, open and include" `Quick
      test_unused_export_quiet;
    Alcotest.test_case "unused export baseline goes stale" `Quick
      test_unused_export_baseline;
    Alcotest.test_case "baseline suppresses and classifies" `Quick
      test_baseline_suppresses_and_classifies;
    Alcotest.test_case "baseline reports stale entries" `Quick
      test_baseline_reports_stale_entries;
    Alcotest.test_case "baseline parser shares the lint contract" `Quick
      test_baseline_parser_is_lints;
    Alcotest.test_case "rule docs are stable" `Quick test_rule_docs_stable;
    Alcotest.test_case "tree matches committed baseline" `Quick
      test_tree_matches_baseline;
  ]
