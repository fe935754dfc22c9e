(* Output helpers for the reproduction harness: section banners and aligned
   tables, plain stdout so results diff cleanly across runs. *)

let section id title =
  Fmt.pr "@.%s@.== %s — %s@.%s@." (String.make 78 '=') id title (String.make 78 '=')

let subsection title = Fmt.pr "@.-- %s@." title

let row fmt = Fmt.pr fmt

(* Print an aligned table: [headers] then rows of same-length string
   lists. *)
let table headers rows =
  let columns = List.length headers in
  let widths = Array.make columns 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure headers;
  List.iter measure rows;
  let print_row cells =
    List.iteri
      (fun i cell -> Fmt.pr "%s%s" (if i = 0 then "  " else "  ") (Fmt.str "%*s" widths.(i) cell))
      cells;
    Fmt.pr "@."
  in
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') (Array.to_list widths));
  List.iter print_row rows

let f2 x = Fmt.str "%.2f" x
let f3 x = Fmt.str "%.3f" x
let f4 x = Fmt.str "%.4f" x
let i d = string_of_int d

(* A failed check is an effect: the section runs on, and the handler in
   [failures], not module-level state, collects the labels. *)
type _ Effect.t += Failed : string -> unit Effect.t

let check label ok =
  Fmt.pr "  [%s] %s@." (if ok then "ok" else "MISMATCH") label;
  if not ok then Effect.perform (Failed label)

(* Run [f ()] and return the labels of the checks that failed in it, in
   order. *)
let failures f =
  let failed = ref [] in
  Effect.Deep.try_with f ()
    {
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Failed label ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                failed := label :: !failed;
                Effect.Deep.continue k ())
          | _ -> None);
    };
  List.rev !failed
