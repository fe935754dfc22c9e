(* The sf_lint rule engine: repo-specific static analysis over OCaml
   sources, pure so the test suite can drive it on in-memory fixtures.

   Rules are deliberately lexical — token scans over comment- and
   string-stripped source — rather than AST-based: every hazard they police
   (ambient randomness, wall clocks, partial stdlib calls, printing from
   the library) is visible at the token level, and a lexical tool stays
   trivially in sync with the compiler version.

   Violations that are intentional are suppressed through an allowlist
   file: one [path rule] pair per line, '#' comments.  Entries that no
   longer match anything are themselves reported, so the allowlist cannot
   rot. *)

type finding = {
  rule : string;
  path : string;
  line : int;  (* 1-based; 0 for file-level rules *)
  message : string;
}

let pp_finding ppf f =
  if f.line = 0 then Fmt.pf ppf "%s: [%s] %s" f.path f.rule f.message
  else Fmt.pf ppf "%s:%d: [%s] %s" f.path f.line f.rule f.message

(* --- Source stripping ---

   Replace comment and string-literal contents with spaces, preserving
   newlines so line numbers survive.  Handles nested (* *) comments,
   strings inside comments (significant to the OCaml lexer), escapes,
   character literals (so '"' does not open a string), and quoted strings
   {|…|} / {id|…|id} — whose raw payload may contain '"' and comment
   openers without desyncing the scan, in code and in comments alike. *)

let strip_literals source =
  let n = String.length source in
  let out = Bytes.of_string source in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  (* If position [i] (at '{') opens a quoted string, the position just
     past its closing |id} (or the end of input if unterminated); the
     payload is raw, so the only terminator is the exact delimiter. *)
  let quoted_string_end i =
    let rec delim j =
      if j >= n then None
      else
        match source.[j] with
        | 'a' .. 'z' | '_' -> delim (j + 1)
        | '|' -> Some j
        | _ -> None
    in
    match delim (i + 1) with
    | None -> None
    | Some bar ->
      let close = "|" ^ String.sub source (i + 1) (bar - i - 1) ^ "}" in
      let k = String.length close in
      let rec find j =
        if j + k > n then n
        else if String.sub source j k = close then j + k
        else find (j + 1)
      in
      Some (find (bar + 1))
  in
  let blank_range i stop =
    for j = i to stop - 1 do
      blank j
    done
  in
  let rec code i =
    if i >= n then ()
    else
      match source.[i] with
      | '(' when i + 1 < n && source.[i + 1] = '*' ->
        blank i;
        blank (i + 1);
        comment 1 (i + 2)
      | '"' -> string ~in_comment:false (i + 1)
      | '{' -> (
        match quoted_string_end i with
        | Some stop ->
          blank_range i stop;
          code stop
        | None -> code (i + 1))
      | '\'' when i + 2 < n && source.[i + 1] <> '\\' && source.[i + 2] = '\'' ->
        (* 'c' character literal; blank the payload ('"' in particular). *)
        blank (i + 1);
        code (i + 3)
      | '\'' when i + 3 < n && source.[i + 1] = '\\' && source.[i + 3] = '\'' ->
        blank (i + 1);
        blank (i + 2);
        code (i + 4)
      | _ -> code (i + 1)
  (* [depth] is the enclosing comment nesting when [in_comment]. *)
  and comment depth i =
    if i >= n then ()
    else
      match source.[i] with
      | '*' when i + 1 < n && source.[i + 1] = ')' ->
        blank i;
        blank (i + 1);
        if depth = 1 then code (i + 2) else comment (depth - 1) (i + 2)
      | '(' when i + 1 < n && source.[i + 1] = '*' ->
        blank i;
        blank (i + 1);
        comment (depth + 1) (i + 2)
      | '"' ->
        blank i;
        string ~in_comment:true ~depth (i + 1)
      | '{' -> (
        (* The OCaml lexer recognises quoted strings inside comments too:
           an unbalanced comment closer in one must not end the comment. *)
        match quoted_string_end i with
        | Some stop ->
          blank_range i stop;
          comment depth stop
        | None ->
          blank i;
          comment depth (i + 1))
      | _ ->
        blank i;
        comment depth (i + 1)
  and string ?(depth = 0) ~in_comment i =
    if i >= n then ()
    else
      match source.[i] with
      | '\\' when i + 1 < n ->
        blank i;
        blank (i + 1);
        string ~depth ~in_comment (i + 2)
      | '"' ->
        if in_comment then blank i;
        if in_comment then comment depth (i + 1) else code (i + 1)
      | _ ->
        blank i;
        string ~depth ~in_comment (i + 1)
  in
  code 0;
  Bytes.to_string out

(* --- Token scanning --- *)

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Occurrences of [token] as a standalone qualified name: not preceded by an
   identifier character or a '.' (which would make it a submodule of
   something else), not followed by an identifier character (so [List.nth]
   does not match [List.nth_opt]). *)
let token_positions stripped token =
  let n = String.length stripped and k = String.length token in
  let ends_with_dot = token.[k - 1] = '.' in
  let rec scan from acc =
    match String.index_from_opt stripped from token.[0] with
    | None -> List.rev acc
    | Some i ->
      if i + k > n then List.rev acc
      else
        let matches =
          String.sub stripped i k = token
          && (i = 0 || (not (is_ident_char stripped.[i - 1])) && stripped.[i - 1] <> '.')
          && (ends_with_dot || i + k >= n || not (is_ident_char stripped.[i + k]))
        in
        scan (i + 1) (if matches then i :: acc else acc)
  in
  scan 0 []

let line_of_position source pos =
  let line = ref 1 in
  for i = 0 to pos - 1 do
    if source.[i] = '\n' then incr line
  done;
  !line

(* --- Rules --- *)

type rule = {
  id : string;
  doc : string;
  applies : string -> bool;  (* repo-relative path *)
  tokens : (string * string) list;  (* token, message *)
}

let in_lib path = String.length path >= 4 && String.sub path 0 4 = "lib/"

let is_ml path = Filename.check_suffix path ".ml"

let is_source path = is_ml path || Filename.check_suffix path ".mli"

let rules =
  [
    {
      id = "determinism";
      doc =
        "no ambient randomness: Random., Hashtbl.hash (use the seeded \
         sf_prng generators and keyed hashing)";
      applies = is_source;
      tokens =
        [
          ("Random.", "ambient Random bypasses the seeded sf_prng generators");
          ("Hashtbl.hash", "polymorphic hashing invites iteration-order dependence");
        ];
    };
    {
      id = "clock-discipline";
      doc =
        "wall/process clocks (Unix.gettimeofday, Sys.time) may be opened \
         only by lib/obs/clock.ml, the single timing authority; everything \
         else takes an injected clock (Sf_obs.Clock.wall, Sim.now, ?now)";
      applies = (fun path -> is_source path && path <> "lib/obs/clock.ml");
      tokens =
        [
          ( "Unix.gettimeofday",
            "ambient wall clock outside lib/obs — inject a clock" );
          ("Sys.time", "ambient process clock outside lib/obs — inject a clock");
        ];
    };
    {
      id = "one-step-rule";
      doc =
        "the S&F slot-pair draw Rng.other may appear only in \
         lib/core/protocol.ml, whose row kernel is every engine's step \
         rule; lib/, bin/, bench/ and examples/ call Protocol instead of \
         re-deriving the draw";
      applies =
        (fun path ->
          is_source path
          && path <> "lib/core/protocol.ml"
          && List.exists
               (fun dir -> String.starts_with ~prefix:dir path)
               [ "lib/"; "bin/"; "bench/"; "examples/" ]);
      tokens =
        [
          ( "Rng.other",
            "a second copy of the step rule — run Protocol.initiate_row" );
          ( "Sf_prng.Rng.other",
            "a second copy of the step rule — run Protocol.initiate_row" );
        ];
    };
    {
      id = "one-resilience-loop";
      doc =
        "the resilience decision loop — Estimator.observe, Controller.decide \
         and the Supervisor.record_* transitions — may appear only under \
         lib/resilience/, whose Loop.tick and Supervisor.step every engine \
         calls; lib/, bin/, bench/ and examples/ do not drive the loop by \
         hand";
      applies =
        (fun path ->
          is_source path
          && (not (String.starts_with ~prefix:"lib/resilience/" path))
          && List.exists
               (fun dir -> String.starts_with ~prefix:dir path)
               [ "lib/"; "bin/"; "bench/"; "examples/" ]);
      tokens =
        List.concat_map
          (fun (name, instead) ->
            let message = "a second copy of the resilience loop — " ^ instead in
            [ (name, message); ("Sf_resil." ^ name, message) ])
          [
            ("Estimator.observe", "tick a Sf_resil.Loop tuner");
            ("Controller.decide", "tick a Sf_resil.Loop tuner");
            ("Supervisor.record_attempt", "run Sf_resil.Supervisor.step");
            ("Supervisor.record_success", "run Sf_resil.Supervisor.step");
            ("Supervisor.record_healthy", "run Sf_resil.Supervisor.step");
          ];
    };
    {
      id = "one-install-rule";
      doc =
        "views are filled from ids only by lib/core/protocol.ml's install \
         rule (Protocol.install_ids, install_copy), in slot order, and by \
         its receive step: Flat.insert, View.insert_entry, View.set and \
         View.Flat.set may not appear in lib/core/runner.ml, churn.ml, \
         sessions.ml, lib/net/, bench/ or examples/";
      applies =
        (fun path ->
          is_source path
          && (List.mem path
                [ "lib/core/runner.ml"; "lib/core/churn.ml"; "lib/core/sessions.ml" ]
             || List.exists
                  (fun dir -> String.starts_with ~prefix:dir path)
                  [ "lib/net/"; "bench/"; "examples/" ]));
      tokens =
        (let message =
           "a view filled by hand — call Protocol.install_ids, \
            Protocol.install_copy or Protocol.receive_row"
         in
         List.map
           (fun token -> (token, message))
           ([ "Flat.insert"; "Flat.set" ]
           @ List.concat_map
               (fun name -> [ name; "Sf_core." ^ name ])
               [ "View.insert_entry"; "View.Flat.insert"; "View.set"; "View.Flat.set" ]));
    };
    {
      id = "one-overlay-probe";
      doc =
        "overlay health is read from lib/core/overlay.ml's one probe: \
         Digraph.is_weakly_connected and Digraph.weakly_connected_components \
         may not appear in lib/core/runner.ml, churn.ml, sessions.ml, \
         properties.ml, baselines.ml, variants.ml, lib/net/*.ml or \
         bin/sfg.ml (lib/graph/quality.ml and lib/analysis/global_mc.ml \
         analyse arbitrary graphs)";
      applies =
        (fun path ->
          List.mem path
            ("bin/sfg.ml"
            :: List.map (( ^ ) "lib/core/")
                 [ "runner.ml"; "churn.ml"; "sessions.ml"; "properties.ml"; "baselines.ml";
                   "variants.ml" ])
          || (is_ml path && Filename.dirname path = "lib/net"));
      tokens =
        List.concat_map
          (fun name ->
            let message =
              "a second overlay probe — read Properties.is_weakly_connected or \
               Overlay.probe"
            in
            [ (name, message); ("Sf_graph." ^ name, message) ])
          [ "Digraph.is_weakly_connected"; "Digraph.weakly_connected_components" ];
    };
    {
      id = "one-message-matrix";
      doc =
        "the two bulk-synchronous engines move messages through one \
         matrix, lib/engine/mailbox.ml: lib/core/runner.ml and \
         lib/dissemination/flat.ml grow no private message buffer \
         (Array.blit)";
      applies =
        (fun path -> List.mem path [ "lib/core/runner.ml"; "lib/dissemination/flat.ml" ]);
      tokens =
        [
          ( "Array.blit",
            "a private growable message buffer — push through Sf_engine.Mailbox" );
        ];
    };
    {
      id = "driver-row-kernel";
      doc =
        "lib/net/driver.ml moves messages as row messages: it runs \
         Protocol.initiate_row/receive_row and Codec.write_frame/read_frame, \
         never the boxed Codec.encode_batch or Codec.decode_datagram, nor \
         Span.time's closures or recvfrom's tuple; and its loop builds no \
         boxed float, option or list it can avoid: no Rng.float, \
         Hashtbl.find_opt or Unix.select";
      applies = (fun path -> path = "lib/net/driver.ml");
      tokens =
        List.concat_map
          (fun (names, message) -> List.map (fun name -> (name, message)) names)
          [
            ( [ "Codec.encode_batch"; "Sf_net.Codec.encode_batch" ],
              "boxed messages into a fresh datagram — Codec.write_frame into \
               the batch buffer" );
            ( [ "Codec.decode_datagram"; "Sf_net.Codec.decode_datagram" ],
              "a boxed message list per datagram — Codec.read_frame into the \
               inbox" );
            ( [ "Span.time"; "Sf_obs.Span.time" ],
              "two closures per timed section — read the clock and call \
               Span.observe_ns" );
            ( [ "recvfrom"; "Unix.recvfrom" ],
              "a tuple and a sockaddr per datagram — Unix.recv" );
            ( [ "Rng.float"; "Sf_prng.Rng.float" ],
              "a boxed float per draw — scale Rng.float_bits where it is used" );
            ( [ "Hashtbl.find_opt" ],
              "an option per lookup — scan for the node instead" );
            ( [ "Unix.select" ],
              "a triple and a cons per ready fd per iteration — wait on the \
               fd array with the ppoll stub" );
          ];
    };
    {
      id = "nodehost-control-in-place";
      doc =
        "lib/net/nodehost.ml matches control commands in place over the \
         datagram's bytes: no String.split_on_char, String.trim or \
         Bytes.sub_string, which build strings per command";
      applies = (fun path -> path = "lib/net/nodehost.ml");
      tokens =
        List.map
          (fun name ->
            ( name,
              "a string per control command — match the bytes slice in place" ))
          [ "String.split_on_char"; "String.trim"; "Bytes.sub_string" ];
    };
    {
      id = "no-obj-magic";
      doc = "Obj.magic is forbidden everywhere";
      applies = is_source;
      tokens = [ ("Obj.magic", "unsafe cast") ];
    };
    {
      id = "no-partial";
      doc =
        "no partial stdlib calls: List.hd, List.tl, List.nth, Option.get \
         (match explicitly or use the _opt variants)";
      applies = is_source;
      tokens =
        [
          ("List.hd", "partial: raises on []");
          ("List.tl", "partial: raises on []");
          ("List.nth", "partial: raises out of bounds");
          ("Option.get", "partial: raises on None");
        ];
    };
    {
      id = "no-raw-backoff";
      doc =
        "no raw sleeps: Unix.sleep/Unix.sleepf are forbidden outside \
         lib/resilience/backoff.ml — retry pacing must go through the \
         jittered, capped Backoff schedule (and simulated time where \
         available), never an inline sleep";
      applies = (fun path -> is_source path && path <> "lib/resilience/backoff.ml");
      tokens =
        [
          ("Unix.sleep", "raw sleep — use Sf_resil.Backoff for retry pacing");
          ("Unix.sleepf", "raw sleep — use Sf_resil.Backoff for retry pacing");
        ];
    };
    {
      id = "no-raw-process";
      doc =
        "no raw process control: Unix.fork/Unix.create_process/Unix.kill/\
         Unix.waitpid are forbidden outside lib/net/spawner.ml — process \
         lifecycle (spawn, SIGKILL chaos, reaping, respawn backoff) must go \
         through the cluster spawner so every child is tracked, reaped and \
         killed on error paths";
      applies = (fun path -> is_source path && path <> "lib/net/spawner.ml");
      tokens =
        [
          ("Unix.fork", "raw fork — spawn through Sf_net.Spawner");
          ("Unix.create_process", "raw spawn — go through Sf_net.Spawner");
          ("Unix.kill", "raw signal send — go through Sf_net.Spawner");
          ("Unix.waitpid", "raw reap — go through Sf_net.Spawner");
        ];
    };
    {
      id = "no-print";
      doc = "no direct printing inside lib/ (use logs/fmt)";
      applies = (fun path -> in_lib path && is_source path);
      tokens =
        [
          ("Printf.printf", "prints to stdout from library code");
          ("print_endline", "prints to stdout from library code");
          ("print_string", "prints to stdout from library code");
          ("print_newline", "prints to stdout from library code");
        ];
    };
  ]

let missing_mli_rule = "missing-mli"

let rule_docs =
  List.map (fun r -> (r.id, r.doc)) rules
  @ [ (missing_mli_rule, "every lib/**/*.ml must have a matching .mli") ]

(* --- Checking --- *)

let check_file ~path source =
  let applicable = List.filter (fun r -> r.applies path) rules in
  if applicable = [] then []
  else
    let stripped = strip_literals source in
    List.concat_map
      (fun r ->
        List.concat_map
          (fun (token, message) ->
            List.map
              (fun pos ->
                {
                  rule = r.id;
                  path;
                  line = line_of_position stripped pos;
                  message = Fmt.str "%s — %s" token message;
                })
              (token_positions stripped token))
          r.tokens)
      applicable

(* File-set rule: every lib/**/*.ml needs a sibling .mli. *)
let check_missing_mli paths =
  let present = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace present p ()) paths;
  List.filter_map
    (fun p ->
      if in_lib p && is_ml p && not (Hashtbl.mem present (p ^ "i")) then
        Some
          {
            rule = missing_mli_rule;
            path = p;
            line = 0;
            message = "library module has no interface file";
          }
      else None)
    paths

let check_files files =
  let per_file =
    List.concat_map (fun (path, source) -> check_file ~path source) files
  in
  per_file @ check_missing_mli (List.map fst files)

(* --- Allowlist --- *)

type allow = { allow_path : string; allow_rule : string }

(* Lines of [path rule], '#' starts a comment, blank lines ignored. *)
let parse_allowlist content =
  let entries = ref [] and errors = ref [] in
  List.iteri
    (fun i line ->
      let line =
        match String.index_opt line '#' with
        | Some j -> String.sub line 0 j
        | None -> line
      in
      match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | [] -> ()
      | [ path; rule ] -> entries := { allow_path = path; allow_rule = rule } :: !entries
      | _ -> errors := Fmt.str "allowlist line %d: expected 'path rule'" (i + 1) :: !errors)
    (String.split_on_char '\n' content);
  match !errors with
  | [] -> Ok (List.rev !entries)
  | es -> Error (String.concat "; " (List.rev es))

let allow_matches entry finding =
  entry.allow_path = finding.path
  && (entry.allow_rule = "*" || entry.allow_rule = finding.rule)

(* Partition findings by the allowlist; also return entries that matched
   nothing, which the driver reports as staleness errors. *)
let apply_allowlist allows findings =
  let used = Array.make (List.length allows) false in
  let kept =
    List.filter
      (fun f ->
        let allowed = ref false in
        List.iteri
          (fun i entry ->
            if allow_matches entry f then begin
              used.(i) <- true;
              allowed := true
            end)
          allows;
        not !allowed)
      findings
  in
  let stale =
    List.filteri (fun i _ -> not used.(i)) allows
  in
  (kept, stale)
