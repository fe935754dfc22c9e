(** The sf_analyze pass engine: compiler-libs (Parsetree/Ast_iterator)
    static analysis, pure so tests can drive it on in-memory fixtures.

    Four pass families, each beyond what sf_lint's lexical rules can
    see:

    - {b shared-mutable-state inventory}: module-level bindings that
      allocate mutable state at initialisation time (refs, hashtables,
      arrays, buffers, lazy thunks, mutable records) — true globals, the
      blockers for sharding the simulator across OCaml 5 [Domain]s.
      Allocations under a lambda or functor body are per-instance and
      only counted as safe sites.
    - {b effect signatures}: per toplevel function, which of
      {e mutation, randomness, clock, io, raise} the body can perform,
      with a checked discipline for [lib/core] and [lib/engine] (no
      I/O, no ambient clocks, raises only of locally-declared
      exceptions or the [invalid_arg]/[failwith] guard forms).
    - {b AST-precise partiality}: partial stdlib calls through
      pipelines, higher-order position, local module aliases and
      [open]; indexing functions escaping as first-class values;
      refutable [let] patterns; and [\[@warning "-8"\]] exhaustiveness
      suppressions.
    - {b unused exports}: whole-program, a [val] of a [lib/**/*.mli]
      that no [.ml] outside its own module names, resolved through the
      same alias and [open] table the partiality pass reads; [test/] is
      not a caller.

    Findings ratchet down through a baseline sharing sf_lint's
    allowlist contract; the inventory serializes to a deterministic
    JSON report. *)

type finding = {
  rule : string;
  path : string;
  line : int;  (** 1-based; 0 for file-level findings *)
  ident : string;  (** enclosing binding or offending name; ["-"] if none *)
  message : string;
}

val pp_finding : Format.formatter -> finding -> unit

type hazard = {
  h_path : string;
  h_line : int;
  h_ident : string;
  h_kind : string;
  mutable h_classified : bool;
      (** set by {!apply_baseline}: a baselined hazard is classified
          (justified), an unclassified one is a sharding blocker *)
}

type effects = {
  mutation : bool;
  randomness : bool;
  clock : bool;
  io : bool;
  raises : bool;
}

val effect_letters : effects -> string list
(** The stable short labels used in reports: ["mut"; "rand"; "clock";
    ["io"]; "raise"], in that order, for the effects that are set. *)

type effect_sig = {
  e_path : string;
  e_line : int;
  e_name : string;
  e_effects : effects;
}

type analysis = {
  findings : finding list;
  hazards : hazard list;
  effect_sigs : effect_sig list;  (** functions with at least one effect *)
  pure_functions : int;
  safe_sites : (string * int) list;
      (** per path: mutable allocations under a lambda/functor —
          per-instance, domain-safe by construction *)
  parsed_files : int;
}

val empty_analysis : analysis

val rule_docs : (string * string) list
(** Rule ids and one-line docs, in the stable order [--list-rules]
    prints. *)

val analyze_file : path:string -> string -> analysis
(** Parse one [.ml] (every per-file pass) or [.mli] (parse check only)
    and run the passes.  Unparseable sources yield a [parse-error]
    finding rather than an exception. *)

val analyze_files : (string * string) list -> analysis
(** [analyze_file] over every (path, source) pair, merged, plus the
    whole-program [unused-export] findings, which need every file at
    once. *)

(** {2 Baseline — sf_lint's allowlist contract} *)

type baseline_entry = Sf_lint_rules.Lint_rules.allow = {
  allow_path : string;
  allow_rule : string;
}

val parse_baseline : string -> (baseline_entry list, string) result
(** One ["path rule"] pair per line (['*'] matches any rule), ['#']
    comments — shared with sf_lint's parser.  An [unused-export] entry
    names one value: its path is ["lib/x.mli:X.v"], the interface and
    the finding's ident. *)

val apply_baseline :
  baseline_entry list -> analysis -> finding list * baseline_entry list
(** Returns the findings the baseline does not suppress and the stale
    entries that suppressed nothing (the driver fails on either).  Also
    marks each suppressed hazard [h_classified] in place. *)

(** {2 Report} *)

val report_json : ?kept:finding list -> analysis -> Sf_obs.Json.t
(** The machine-readable inventory: shared-state hazards with their
    classification and per-layer unclassified counts, safe-site tallies,
    effect signatures, and the surviving findings ([kept]). *)
