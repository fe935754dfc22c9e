(* The sf_analyze pass engine: Parsetree-precision static analysis over
   OCaml sources, pure so the test suite can drive it on in-memory
   fixtures.

   Where sf_lint scans tokens, sf_analyze parses every file with the
   exact compiler frontend (compiler-libs 5.1.1) and walks the AST with
   Ast_iterator-based passes.  That buys three things the lexical tool
   cannot have:

   - a *shared-mutable-state inventory*: every module-level binding that
     allocates mutable state at module initialisation time (refs,
     hashtables, buffers, arrays, mutable records, lazy thunks) — the
     gating artifact for sharding the simulator across OCaml 5 Domains,
     where any true global is a race waiting to happen;
   - *effect signatures*: per toplevel function, which of
     {mutation, randomness, clock, io, raise} its body can perform, with
     a checked discipline for lib/core and lib/engine (no I/O, no
     ambient clocks, raises only of locally-declared exceptions or the
     invalid_arg/failwith guard forms);
   - *AST-precise partiality*: partial stdlib calls found through `|>`
     pipelines, higher-order escapes, local module aliases and `open` —
     the lexical rule's blind spots — plus refutable `let` patterns and
     `[@warning "-8"]` exhaustiveness suppressions.

   Findings ratchet down through a baseline file sharing sf_lint's
   allowlist contract (one "path rule" pair per line, stale entries
   fail), and the inventory is emitted as a deterministic JSON report. *)

open Parsetree

type finding = {
  rule : string;
  path : string;
  line : int;  (* 1-based; 0 for file-level findings *)
  ident : string;  (* enclosing binding or offending name; "-" if none *)
  message : string;
}

let pp_finding ppf f =
  if f.line = 0 then Fmt.pf ppf "%s: [%s] %s" f.path f.rule f.message
  else Fmt.pf ppf "%s:%d: [%s] %s" f.path f.line f.rule f.message

(* A module-level mutable allocation: the unit of the shared-state
   inventory.  [classified] is set by the baseline application — an
   unclassified hazard is a sharding blocker. *)
type hazard = {
  h_path : string;
  h_line : int;
  h_ident : string;  (* the toplevel binding holding the state *)
  h_kind : string;  (* ref | hashtbl | array | array-literal | buffer
                       | bytes | queue | stack | lazy | mutable-record
                       | atomic | channel *)
  mutable h_classified : bool;
}

(* Per-function effect signature, inferred from the AST. *)
type effects = {
  mutation : bool;
  randomness : bool;
  clock : bool;
  io : bool;
  raises : bool;
}

let no_effects =
  { mutation = false; randomness = false; clock = false; io = false; raises = false }

let effect_letters e =
  List.filter_map
    (fun (on, letter) -> if on then Some letter else None)
    [
      (e.mutation, "mut");
      (e.randomness, "rand");
      (e.clock, "clock");
      (e.io, "io");
      (e.raises, "raise");
    ]

type effect_sig = {
  e_path : string;
  e_line : int;
  e_name : string;
  e_effects : effects;
}

(* Everything one analysis run produces. *)
type analysis = {
  findings : finding list;
  hazards : hazard list;
  effect_sigs : effect_sig list;  (* functions with at least one effect *)
  pure_functions : int;
  safe_sites : (string * int) list;  (* path, allocations under a lambda *)
  parsed_files : int;
}

let empty_analysis =
  {
    findings = [];
    hazards = [];
    effect_sigs = [];
    pure_functions = 0;
    safe_sites = [];
    parsed_files = 0;
  }

(* --- Rule registry (stable order: the docs and --list-rules print it) --- *)

let rule_docs =
  [
    ( "shared-state",
      "module-level mutable state (ref/Hashtbl/array/Buffer/lazy/mutable \
       record) allocated at init time — a Domain-sharding hazard unless \
       classified in the baseline" );
    ( "effect-discipline",
      "lib/core and lib/engine functions must not perform I/O or read \
       ambient clocks; state mutation stays inside their state records and \
       randomness arrives as a threaded rng" );
    ( "raise-locality",
      "lib/core and lib/engine may raise only locally-declared exceptions \
       (or the invalid_arg/failwith guard forms); foreign exceptions cross \
       module boundaries invisibly" );
    ( "partiality",
      "partial stdlib call (List.hd/tl/nth, Option.get, Hashtbl.find, \
       Stack.pop/top, Queue.pop/peek/take) found at AST precision: through \
       pipelines, higher-order position, module aliases and open" );
    ( "partial-escape",
      "unsafe indexing function (Array.get/set, String.get, Bytes.get/set) \
       escaping as a first-class value, where no adjacent bounds check can \
       guard it" );
    ( "refutable-let",
      "let binding whose pattern can fail to match (constructor, constant, \
       array or variant pattern outside a match)" );
    ( "match-suppression",
      "[@warning \"-8\"] (or \"-a\") attribute: with warnings-as-errors \
       tree-wide, suppressing warning 8 is the only way a nonexhaustive \
       match survives compilation" );
    ("parse-error", "file does not parse with the 5.1.1 compiler frontend");
  ]

(* --- Longident helpers --- *)

let flatten lid = String.concat "." (Longident.flatten lid)

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* --- Mutable allocator classification ---

   [allocator_kind name] is the inventory kind when calling [name]
   allocates fresh mutable state, resolved on the qualified name as
   written (module aliases are resolved by the caller). *)

let allocator_kind name =
  match name with
  | "ref" | "Stdlib.ref" -> Some "ref"
  | "Atomic.make" -> Some "atomic"
  | "Mutex.create" | "Condition.create" -> Some "atomic"
  | "Buffer.create" -> Some "buffer"
  | _ ->
    let with_module m kind fns =
      if List.exists (fun fn -> name = m ^ "." ^ fn) fns then Some kind else None
    in
    let ( <|> ) a b = match a with Some _ -> a | None -> b in
    with_module "Hashtbl" "hashtbl" [ "create"; "copy"; "of_seq" ]
    <|> with_module "Queue" "queue" [ "create"; "copy"; "of_seq" ]
    <|> with_module "Stack" "stack" [ "create"; "copy"; "of_seq" ]
    <|> with_module "Array" "array"
          [
            "make"; "create_float"; "init"; "make_matrix"; "init_matrix";
            "of_list"; "copy"; "append"; "concat"; "sub"; "map"; "mapi";
            "of_seq";
          ]
    <|> with_module "Bytes" "bytes"
          [ "create"; "make"; "init"; "of_string"; "copy"; "sub"; "extend"; "cat" ]
    <|> with_module "Weak" "array" [ "create" ]
    <|> with_module "Lazy" "lazy" [ "from_fun"; "from_val" ]

(* --- Effect classification of a qualified name --- *)

(* Bytes' binary-integer writers: set_int8/set_uint8, and every
   set_{int16,uint16,int32,int64}_{ne,le,be}. *)
let bytes_setters =
  [ "set_int8"; "set_uint8" ]
  @ List.concat_map
      (fun width -> List.map (fun e -> "set_" ^ width ^ "_" ^ e) [ "ne"; "le"; "be" ])
      [ "int16"; "uint16"; "int32"; "int64" ]

let bigarray_modules = [ "Array1"; "Array2"; "Array3"; "Genarray" ]

let is_mutator name =
  match name with
  | ":=" | "incr" | "decr" -> true
  | _ ->
    let in_module m fns = List.exists (fun fn -> name = m ^ "." ^ fn) fns in
    in_module "Array" [ "set"; "unsafe_set"; "fill"; "blit"; "sort"; "fast_sort" ]
    || in_module "Bytes" [ "set"; "unsafe_set"; "fill"; "blit"; "blit_string" ]
    || in_module "Bytes" bytes_setters
    || List.exists
         (fun m -> in_module ("Bigarray." ^ m) [ "set"; "unsafe_set"; "fill"; "blit" ])
         bigarray_modules
    || in_module "Hashtbl"
         [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]
    || in_module "Queue" [ "push"; "add"; "pop"; "take"; "clear"; "transfer" ]
    || in_module "Stack" [ "push"; "pop"; "clear" ]
    || in_module "Atomic" [ "set"; "exchange"; "compare_and_set"; "fetch_and_add"; "incr"; "decr" ]
    || has_prefix ~prefix:"Buffer.add" name
    || in_module "Buffer" [ "clear"; "reset"; "truncate" ]

let is_random name =
  has_prefix ~prefix:"Random." name
  || has_prefix ~prefix:"Rng." name
  || has_prefix ~prefix:"Sf_prng." name

let is_clock name =
  match name with
  | "Unix.gettimeofday" | "Sys.time" -> true
  | _ ->
    (* The sanctioned injected clocks still mark the signature: callers
       learn the function is time-dependent even when the source is
       disciplined. *)
    List.exists
      (fun suffix ->
        let s = "Clock." ^ suffix in
        name = s || Filename.check_suffix name ("." ^ s))
      [ "wall"; "cpu"; "stopwatch" ]

let is_io name =
  List.exists
    (fun p -> has_prefix ~prefix:p name)
    [
      "print_"; "prerr_"; "output"; "input"; "read_line"; "open_in"; "open_out";
      "Printf."; "Out_channel."; "In_channel."; "Fmt.pr"; "Fmt.epr";
    ]
  || List.mem name
       [ "Format.printf"; "Format.eprintf"; "Format.print_string"; "close_in";
         "close_out"; "flush"; "Sys.command"; "Sys.remove"; "Sys.rename";
         "Sys.readdir"; "Sys.getenv"; "Sys.getenv_opt" ]
  || (has_prefix ~prefix:"Unix." name && not (is_clock name))

let is_raiser name =
  match name with
  | "raise" | "raise_notrace" | "failwith" | "invalid_arg" | "Fmt.failwith"
  | "Fmt.invalid_arg" ->
    true
  | _ -> false

(* Exceptions any module may raise without declaring them.  Raising via
   invalid_arg/failwith is the sanctioned precondition-guard form, so
   raise-locality only polices explicit [raise] of constructors. *)
let ambient_exceptions = [ "Exit"; "Not_found"; "Invalid_argument"; "Failure" ]

(* --- Partiality sets --- *)

let partial_calls =
  [ "List.hd"; "List.tl"; "List.nth"; "Option.get"; "Hashtbl.find" ]

(* Container pops are partial too, but the idiomatic BFS/Tarjan shape
   [while not (Queue.is_empty q) do ... Queue.pop q ... done] is safe: a
   dominating emptiness (or length) test of the same module counts as a
   guard.  This is precisely what the lexical rule could never express. *)
let guarded_partial_calls =
  [
    ("Stack.pop", "Stack"); ("Stack.top", "Stack"); ("Queue.pop", "Queue");
    ("Queue.peek", "Queue"); ("Queue.take", "Queue");
  ]

let guardable_modules = [ "Queue"; "Stack" ]

(* Unqualified names that become partial when their module is open. *)
let partial_unqualified =
  [
    ("List", [ "hd"; "tl"; "nth" ]);
    ("Option", [ "get" ]);
    ("Stack", [ "pop"; "top" ]);
    ("Queue", [ "pop"; "peek"; "take" ]);
  ]

(* Indexing functions: total only when fully applied next to their use
   site (where a bounds check can guard them); as escaping first-class
   values they are unguardable.  [arity] is the fully-applied argument
   count. *)
let index_functions =
  [
    ("Array.get", 2); ("Array.set", 3); ("String.get", 2); ("Bytes.get", 2);
    ("Bytes.set", 3);
  ]

(* Modules whose aliases we chase for the partiality sets and the mutator
   names. *)
let aliasable_modules =
  [ "List"; "Option"; "Array"; "Hashtbl"; "Queue"; "Stack"; "Bytes"; "String" ]
  @ List.map (fun m -> "Bigarray." ^ m) bigarray_modules

(* --- Pattern refutability (syntactic, conservative) --- *)

let rec pattern_refutable p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ | Ppat_unpack _ | Ppat_type _ | Ppat_extension _ ->
    false
  | Ppat_alias (p, _) | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_open (_, p)
    ->
    pattern_refutable p
  | Ppat_tuple ps -> List.exists pattern_refutable ps
  | Ppat_record (fields, _) ->
    List.exists (fun (_, p) -> pattern_refutable p) fields
  | Ppat_construct ({ txt = Lident "()"; _ }, None) -> false
  | Ppat_construct _ | Ppat_variant _ | Ppat_constant _ | Ppat_interval _
  | Ppat_array _ | Ppat_exception _ ->
    true
  | Ppat_or (a, b) -> pattern_refutable a && pattern_refutable b

let rec pattern_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt
  | Ppat_alias (_, { txt; _ }) -> txt
  | Ppat_constraint (p, _) -> pattern_name p
  | _ -> "_"

(* --- Per-file analysis --- *)

type context = {
  path : string;
  mutable out : finding list;
  mutable file_hazards : hazard list;
  mutable file_effects : effect_sig list;
  mutable pure : int;
  mutable safe : int;
  (* collected declarations *)
  mutable local_exceptions : string list;
  mutable mutable_fields : string list;
  mutable aliases : (string * string) list;  (* local alias -> stdlib module *)
  mutable opened : string list;  (* opened aliasable modules *)
  mutable binding : string;  (* nearest enclosing toplevel binding *)
  mutable guards : string list;  (* modules with a dominating emptiness test *)
}

let add_finding ctx ~rule ~line ~ident message =
  ctx.out <- { rule; path = ctx.path; line; ident; message } :: ctx.out

let in_pure_layer path =
  has_prefix ~prefix:"lib/core/" path || has_prefix ~prefix:"lib/engine/" path

(* Resolve a qualified name through the file's local module aliases:
   [T.find] with [module T = Hashtbl] in scope becomes [Hashtbl.find]. *)
let resolve ctx name =
  match String.index_opt name '.' with
  | None -> name
  | Some i -> (
    let head = String.sub name 0 i in
    match List.assoc_opt head ctx.aliases with
    | Some target -> target ^ String.sub name i (String.length name - i)
    | None -> name)

let ident_of e =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some (flatten txt) | _ -> None

(* - Declaration collection (phase 1): exceptions, mutable record fields,
   module aliases, opens.  Submodule structures are walked too — their
   declarations share the compilation unit. *)
let rec collect_declarations ctx str =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_exception { ptyexn_constructor = { pext_name; _ }; _ } ->
        ctx.local_exceptions <- pext_name.txt :: ctx.local_exceptions
      | Pstr_type (_, decls) ->
        List.iter
          (fun d ->
            match d.ptype_kind with
            | Ptype_record labels ->
              List.iter
                (fun l ->
                  if l.pld_mutable = Asttypes.Mutable then
                    ctx.mutable_fields <- l.pld_name.txt :: ctx.mutable_fields)
                labels
            | _ -> ())
          decls
      | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
        match pmb_expr.pmod_desc with
        | Pmod_ident { txt; _ } ->
          let target = flatten txt in
          if List.mem target aliasable_modules then
            ctx.aliases <- (name, target) :: ctx.aliases
        | Pmod_structure s -> collect_declarations ctx s
        | _ -> ())
      | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }
        ->
        let target = flatten txt in
        if List.mem target aliasable_modules then
          ctx.opened <- target :: ctx.opened
      | _ -> ())
    str

(* - Shared-state walk: [init] mode evaluates at module initialisation;
   anything under a lambda (or functor body) is deferred to call time and
   only counted as a safe, per-instance allocation site. *)
let record_hazard ctx e kind =
  ctx.file_hazards <-
    {
      h_path = ctx.path;
      h_line = line_of e.pexp_loc;
      h_ident = ctx.binding;
      h_kind = kind;
      h_classified = false;
    }
    :: ctx.file_hazards;
  add_finding ctx ~rule:"shared-state" ~line:(line_of e.pexp_loc)
    ~ident:ctx.binding
    (Fmt.str
       "module-level mutable state (%s) in binding '%s' — a true global under \
        Domain sharding; thread it through a state record or classify it in \
        the baseline"
       kind ctx.binding)

let hazard_of_expr ctx e =
  match e.pexp_desc with
  | Pexp_lazy _ -> Some "lazy"
  | Pexp_array _ -> Some "array-literal"
  | Pexp_record (fields, _) ->
    if
      List.exists
        (fun ({ Location.txt; _ }, _) ->
          match Longident.flatten txt with
          | [] -> false
          | parts ->
            let field = List.nth_opt parts (List.length parts - 1) in
            (match field with
            | Some f -> f = "contents" || List.mem f ctx.mutable_fields
            | None -> false))
        fields
    then Some "mutable-record"
    else None
  | Pexp_apply (f, _) -> (
    match ident_of f with
    | Some name -> allocator_kind (resolve ctx name)
    | None -> None)
  | _ -> None

(* Count allocation sites under lambdas: these are the per-instance,
   domain-safe constructors the JSON report tallies. *)
let safe_site_iterator ctx =
  let expr it e =
    (match hazard_of_expr ctx e with
    | Some _ -> ctx.safe <- ctx.safe + 1
    | None -> ());
    Ast_iterator.default_iterator.expr it e
  in
  { Ast_iterator.default_iterator with expr }

let rec init_walk ctx e =
  match hazard_of_expr ctx e with
  | Some kind ->
    record_hazard ctx e kind;
    (* The binding is already a hazard; nested allocations inside it
       (e.g. an array of buffers) add nothing new.  Deferred interiors
       of a flagged lazy are not counted as safe sites either. *)
    ()
  | None -> (
    match e.pexp_desc with
    | Pexp_fun (_, default, _, body) ->
      let it = safe_site_iterator ctx in
      Option.iter (it.expr it) default;
      it.expr it body
    | Pexp_function cases ->
      let it = safe_site_iterator ctx in
      List.iter
        (fun c ->
          Option.iter (it.expr it) c.pc_guard;
          it.expr it c.pc_rhs)
        cases
    | Pexp_newtype (_, body) -> init_walk ctx body
    | Pexp_let (_, vbs, body) ->
      List.iter (fun vb -> init_walk ctx vb.pvb_expr) vbs;
      init_walk ctx body
    | Pexp_sequence (a, b) ->
      init_walk ctx a;
      init_walk ctx b;
      ()
    | Pexp_ifthenelse (c, t, f) ->
      init_walk ctx c;
      init_walk ctx t;
      Option.iter (init_walk ctx) f
    | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) ->
      init_walk ctx e
    | Pexp_apply (f, args) ->
      init_walk ctx f;
      List.iter (fun (_, a) -> init_walk ctx a) args
    | Pexp_tuple es -> List.iter (init_walk ctx) es
    | Pexp_construct (_, arg) | Pexp_variant (_, arg) ->
      Option.iter (init_walk ctx) arg
    | Pexp_record (fields, base) ->
      List.iter (fun (_, e) -> init_walk ctx e) fields;
      Option.iter (init_walk ctx) base
    | Pexp_field (e, _) -> init_walk ctx e
    | Pexp_match (e, cases) | Pexp_try (e, cases) ->
      init_walk ctx e;
      List.iter
        (fun c ->
          Option.iter (init_walk ctx) c.pc_guard;
          init_walk ctx c.pc_rhs)
        cases
    | Pexp_letmodule (_, _, body) -> init_walk ctx body
    | _ ->
      (* Constants, idents, and rarer forms allocate nothing mutable
         directly. *)
      ())

(* - Effect inference: walk a function body collecting the effect set. *)
let infer_effects ctx body =
  let eff = ref no_effects in
  let note f = eff := f !eff in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_setfield _ | Pexp_setinstvar _ ->
      note (fun x -> { x with mutation = true })
    | Pexp_assert _ -> note (fun x -> { x with raises = true })
    | Pexp_ident { txt; _ } ->
      let name = resolve ctx (flatten txt) in
      if is_mutator name then note (fun x -> { x with mutation = true });
      if is_random name then note (fun x -> { x with randomness = true });
      if is_clock name then note (fun x -> { x with clock = true });
      if is_io name then note (fun x -> { x with io = true });
      if is_raiser name then note (fun x -> { x with raises = true })
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it body;
  !eff

(* Raise-locality: explicit [raise (C ...)] in the pure layers must name
   a locally-declared or ambient exception. *)
let check_raise_locality ctx body =
  let expr it e =
    (match e.pexp_desc with
    | Pexp_apply (f, (_, arg) :: _)
      when ident_of f = Some "raise" || ident_of f = Some "raise_notrace" -> (
      match arg.pexp_desc with
      | Pexp_construct ({ txt; _ }, _) -> (
        match txt with
        | Lident name
          when List.mem name ctx.local_exceptions
               || List.mem name ambient_exceptions ->
          ()
        | _ ->
          add_finding ctx ~rule:"raise-locality" ~line:(line_of e.pexp_loc)
            ~ident:ctx.binding
            (Fmt.str
               "raise of foreign exception %s in '%s' — lib/core and \
                lib/engine raise only locally-declared exceptions (or \
                invalid_arg/failwith guards)"
               (flatten txt) ctx.binding))
      | _ -> (* re-raise of a caught exception variable *) ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it body

(* - Partiality / escape / refutable-let / match-suppression walk over
   the whole structure. *)
(* The modules whose emptiness the given guard expression tests:
   [not (Queue.is_empty q)], [Stack.length s > 0], ... *)
let guard_modules_of ctx cond =
  let found = ref [] in
  let expr it e =
    (match ident_of e with
    | Some raw ->
      let name = resolve ctx raw in
      List.iter
        (fun m ->
          if (name = m ^ ".is_empty" || name = m ^ ".length")
             && not (List.mem m !found)
          then found := m :: !found)
        guardable_modules
    | None -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it cond;
  !found

let partiality_iterator ctx =
  let flag_partial loc name =
    add_finding ctx ~rule:"partiality" ~line:(line_of loc) ~ident:name
      (Fmt.str "%s is partial — match explicitly or use the _opt variant" name)
  in
  let flag_resolved loc name =
    if List.mem name partial_calls then flag_partial loc name
    else
      match List.assoc_opt name guarded_partial_calls with
      | Some m when not (List.mem m ctx.guards) ->
        add_finding ctx ~rule:"partiality" ~line:(line_of loc) ~ident:name
          (Fmt.str
             "%s is partial and no dominating %s.is_empty/length test guards \
              it — match on the _opt variant or add the guard"
             name m)
      | _ -> ()
  in
  let rec with_guards it cond body_walks =
    let saved = ctx.guards in
    ctx.guards <- guard_modules_of ctx cond @ ctx.guards;
    List.iter (fun b -> expr it b) body_walks;
    ctx.guards <- saved
  and expr it e =
    match e.pexp_desc with
    | Pexp_while (cond, body) ->
      expr it cond;
      with_guards it cond [ body ]
    | Pexp_ifthenelse (cond, then_, else_) ->
      expr it cond;
      (* The guard is applied to both branches: the test may be stated
         positively or negatively, and this is a proximity heuristic,
         not a dominator analysis. *)
      with_guards it cond (then_ :: Option.to_list else_)
    | Pexp_apply (f, args) -> (
      match ident_of f with
      | Some raw -> (
        let name = resolve ctx raw in
        (match List.assoc_opt name index_functions with
        | Some arity when List.length args < arity ->
          add_finding ctx ~rule:"partial-escape" ~line:(line_of f.pexp_loc)
            ~ident:name
            (Fmt.str
               "%s escapes partially applied — no bounds check can guard it \
                at the call site"
               name)
        | _ -> ());
        flag_resolved f.pexp_loc name;
        (* Skip the head ident (already handled); walk the arguments. *)
        List.iter (fun (_, a) -> expr it a) args)
      | None -> Ast_iterator.default_iterator.expr it e)
    | Pexp_ident { txt; loc } -> (
      let name = resolve ctx (flatten txt) in
      if List.mem name partial_calls || List.mem_assoc name guarded_partial_calls
      then flag_resolved loc name
      else if List.mem_assoc name index_functions then
        add_finding ctx ~rule:"partial-escape" ~line:(line_of loc) ~ident:name
          (Fmt.str
             "%s escapes as a first-class value — no bounds check can guard \
              it at the call site"
             name)
      else
        match txt with
        | Lident simple ->
          List.iter
            (fun (m, fns) ->
              if List.mem m ctx.opened && List.mem simple fns then
                flag_partial loc (m ^ "." ^ simple ^ " (via open " ^ m ^ ")"))
            partial_unqualified
        | _ -> ())
    | Pexp_let (_, vbs, _) ->
      List.iter
        (fun vb ->
          if pattern_refutable vb.pvb_pat then
            add_finding ctx ~rule:"refutable-let"
              ~line:(line_of vb.pvb_pat.ppat_loc)
              ~ident:(pattern_name vb.pvb_pat)
              "let pattern can fail to match — use match or make the \
               pattern irrefutable")
        vbs;
      Ast_iterator.default_iterator.expr it e
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let attribute _it (a : attribute) =
    if a.attr_name.txt = "warning" || a.attr_name.txt = "ocaml.warning" then
      match a.attr_payload with
      | PStr
          [
            {
              pstr_desc =
                Pstr_eval
                  ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
              _;
            };
          ]
        when List.exists
               (fun bad ->
                 (* substring check: "-8", "-a" anywhere in the spec *)
                 let bn = String.length bad and sn = String.length s in
                 let rec at i = i + bn <= sn && (String.sub s i bn = bad || at (i + 1)) in
                 at 0)
               [ "-8"; "-a" ] ->
        add_finding ctx ~rule:"match-suppression" ~line:(line_of a.attr_loc)
          ~ident:a.attr_name.txt
          (Fmt.str
             "warning suppression %S can hide a nonexhaustive match — the \
              tree compiles with -warn-error +a, so this is the only way one \
              survives"
             s)
      | _ -> ()
    else ()
  in
  let structure_item it item =
    (match item.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          if pattern_refutable vb.pvb_pat then
            add_finding ctx ~rule:"refutable-let"
              ~line:(line_of vb.pvb_pat.ppat_loc)
              ~ident:(pattern_name vb.pvb_pat)
              "toplevel let pattern can fail to match — use match or make \
               the pattern irrefutable")
        vbs
    | _ -> ());
    Ast_iterator.default_iterator.structure_item it item
  in
  { Ast_iterator.default_iterator with expr; attribute; structure_item }

(* - Toplevel structure walk driving shared-state and effects. *)
let rec walk_module_level ctx ~prefix str =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let name = prefix ^ pattern_name vb.pvb_pat in
            ctx.binding <- name;
            (* A binding that binds nothing — [let () = ...] driver mains,
               [let _ = ...] — cannot publish state to other modules:
               whatever it allocates dies with the initialiser, so it
               counts as safe sites, not hazards. *)
            let rec binds_nothing p =
              match p.ppat_desc with
              | Ppat_any -> true
              | Ppat_construct ({ txt = Lident "()"; _ }, None) -> true
              | Ppat_constraint (p, _) -> binds_nothing p
              | _ -> false
            in
            if binds_nothing vb.pvb_pat then begin
              let it = safe_site_iterator ctx in
              it.expr it vb.pvb_expr
            end
            else init_walk ctx vb.pvb_expr;
            (* Effect signature for function bindings. *)
            let rec peel e =
              match e.pexp_desc with
              | Pexp_constraint (e, _) | Pexp_newtype (_, e) -> peel e
              | Pexp_fun _ | Pexp_function _ -> true
              | Pexp_let (_, _, body) -> peel body
              | _ -> false
            in
            if peel vb.pvb_expr then begin
              let eff = infer_effects ctx vb.pvb_expr in
              if eff = no_effects then ctx.pure <- ctx.pure + 1
              else
                ctx.file_effects <-
                  {
                    e_path = ctx.path;
                    e_line = line_of vb.pvb_loc;
                    e_name = name;
                    e_effects = eff;
                  }
                  :: ctx.file_effects;
              if in_pure_layer ctx.path then begin
                check_raise_locality ctx vb.pvb_expr;
                if eff.io then
                  add_finding ctx ~rule:"effect-discipline"
                    ~line:(line_of vb.pvb_loc) ~ident:name
                    (Fmt.str
                       "'%s' performs I/O from a pure layer — lib/core and \
                        lib/engine report through returned values and \
                        injected observers"
                       name);
                if eff.clock then
                  add_finding ctx ~rule:"effect-discipline"
                    ~line:(line_of vb.pvb_loc) ~ident:name
                    (Fmt.str
                       "'%s' reads a clock from a pure layer — take the time \
                        as a parameter (Sim.now, ?now)"
                       name)
              end
            end;
            ctx.binding <- "-")
          vbs
      | Pstr_eval (e, _) ->
        (* Evaluated for effect; its allocations cannot escape either. *)
        ctx.binding <- prefix ^ "_toplevel_";
        let it = safe_site_iterator ctx in
        it.expr it e;
        ctx.binding <- "-"
      | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } ->
        walk_module_expr ctx ~prefix:(prefix ^ name ^ ".") pmb_expr
      | Pstr_recmodule mbs ->
        List.iter
          (fun mb ->
            match mb.pmb_name.txt with
            | Some name -> walk_module_expr ctx ~prefix:(prefix ^ name ^ ".") mb.pmb_expr
            | None -> ())
          mbs
      | Pstr_include { pincl_mod; _ } -> walk_module_expr ctx ~prefix pincl_mod
      | _ -> ())
    str

and walk_module_expr ctx ~prefix me =
  match me.pmod_desc with
  | Pmod_structure s -> walk_module_level ctx ~prefix s
  | Pmod_constraint (me, _) -> walk_module_expr ctx ~prefix me
  | Pmod_functor (_, body) ->
    (* A functor body initialises per application — its allocations are
       per-instance, like a lambda's. *)
    let saved = ctx.binding in
    ctx.binding <- prefix ^ "(functor)";
    let it = safe_site_iterator ctx in
    let module_expr_it = it.module_expr in
    module_expr_it it body;
    ctx.binding <- saved
  | _ -> ()

(* --- Parsing --- *)

let parse ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  if Filename.check_suffix path ".mli" then
    match Parse.interface lexbuf with
    | _ -> Ok None
    | exception Syntaxerr.Error err ->
      Error (line_of (Syntaxerr.location_of_error err), "syntax error")
    | exception _ -> Error (lexbuf.lex_curr_p.pos_lnum, "lexical error")
  else
    match Parse.implementation lexbuf with
    | str -> Ok (Some str)
    | exception Syntaxerr.Error err ->
      Error (line_of (Syntaxerr.location_of_error err), "syntax error")
    | exception _ -> Error (lexbuf.lex_curr_p.pos_lnum, "lexical error")

(* --- Entry points --- *)

let analyze_file ~path source =
  let ctx =
    {
      path;
      out = [];
      file_hazards = [];
      file_effects = [];
      pure = 0;
      safe = 0;
      local_exceptions = [];
      mutable_fields = [];
      aliases = [];
      opened = [];
      binding = "-";
      guards = [];
    }
  in
  (match parse ~path source with
  | Error (line, msg) ->
    add_finding ctx ~rule:"parse-error" ~line ~ident:"-" msg
  | Ok None -> (* interface: parse check only *) ()
  | Ok (Some str) ->
    collect_declarations ctx str;
    walk_module_level ctx ~prefix:"" str;
    let it = partiality_iterator ctx in
    it.structure it str);
  {
    findings = List.rev ctx.out;
    hazards = List.rev ctx.file_hazards;
    effect_sigs = List.rev ctx.file_effects;
    pure_functions = ctx.pure;
    safe_sites = (if ctx.safe > 0 then [ (path, ctx.safe) ] else []);
    parsed_files = 1;
  }

let merge a b =
  {
    findings = a.findings @ b.findings;
    hazards = a.hazards @ b.hazards;
    effect_sigs = a.effect_sigs @ b.effect_sigs;
    pure_functions = a.pure_functions + b.pure_functions;
    safe_sites = a.safe_sites @ b.safe_sites;
    parsed_files = a.parsed_files + b.parsed_files;
  }

let analyze_files files =
  List.fold_left
    (fun acc (path, source) -> merge acc (analyze_file ~path source))
    empty_analysis files

(* --- Baseline: sf_lint's allowlist contract, verbatim ---

   One "path rule" pair per line ('*' matches any rule), '#' comments,
   and entries that suppress nothing are reported as stale, so the
   baseline can only ratchet down.  Parsing is shared with sf_lint. *)

type baseline_entry = Sf_lint_rules.Lint_rules.allow = {
  allow_path : string;
  allow_rule : string;
}

let parse_baseline = Sf_lint_rules.Lint_rules.parse_allowlist

let baseline_matches (e : baseline_entry) (f : finding) =
  e.allow_path = f.path && (e.allow_rule = "*" || e.allow_rule = f.rule)

let apply_baseline entries analysis =
  let used = Array.make (List.length entries) false in
  let suppressed f =
    let hit = ref false in
    List.iteri
      (fun i e ->
        if baseline_matches e f then begin
          used.(i) <- true;
          hit := true
        end)
      entries;
    !hit
  in
  let kept = List.filter (fun f -> not (suppressed f)) analysis.findings in
  (* A hazard is classified iff its shared-state finding is baselined. *)
  List.iter
    (fun h ->
      h.h_classified <-
        List.exists
          (fun e ->
            e.allow_path = h.h_path
            && (e.allow_rule = "*" || e.allow_rule = "shared-state"))
          entries)
    analysis.hazards;
  let stale = List.filteri (fun i _ -> not used.(i)) entries in
  (kept, stale)

(* --- JSON report --- *)

module Json = Sf_obs.Json

let report_json ?(kept = []) analysis =
  let hazard_json h =
    Json.Obj
      [
        ("path", Json.String h.h_path);
        ("line", Json.Int h.h_line);
        ("binding", Json.String h.h_ident);
        ("kind", Json.String h.h_kind);
        ("classified", Json.Bool h.h_classified);
      ]
  in
  let effect_json e =
    Json.Obj
      [
        ("path", Json.String e.e_path);
        ("line", Json.Int e.e_line);
        ("function", Json.String e.e_name);
        ( "effects",
          Json.List
            (List.map (fun l -> Json.String l) (effect_letters e.e_effects)) );
      ]
  in
  let finding_json (f : finding) =
    Json.Obj
      [
        ("path", Json.String f.path);
        ("line", Json.Int f.line);
        ("rule", Json.String f.rule);
        ("ident", Json.String f.ident);
        ("message", Json.String f.message);
      ]
  in
  let unclassified_in prefix =
    List.length
      (List.filter
         (fun h -> (not h.h_classified) && has_prefix ~prefix h.h_path)
         analysis.hazards)
  in
  Json.Obj
    [
      ("version", Json.Int 1);
      ("files", Json.Int analysis.parsed_files);
      ( "shared_state",
        Json.Obj
          [
            ("hazards", Json.List (List.map hazard_json analysis.hazards));
            ( "safe_sites",
              Json.List
                (List.map
                   (fun (path, count) ->
                     Json.Obj
                       [ ("path", Json.String path); ("count", Json.Int count) ])
                   analysis.safe_sites) );
            ( "unclassified",
              Json.Obj
                [
                  ("lib/core", Json.Int (unclassified_in "lib/core/"));
                  ("lib/engine", Json.Int (unclassified_in "lib/engine/"));
                  ("total", Json.Int (unclassified_in ""));
                ] );
          ] );
      ( "effects",
        Json.Obj
          [
            ("pure_functions", Json.Int analysis.pure_functions);
            ("effectful", Json.List (List.map effect_json analysis.effect_sigs));
          ] );
      ("findings", Json.List (List.map finding_json kept));
    ]
