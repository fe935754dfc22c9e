(* Tests for the section 5 probe and repair pass ([Overlay]) on
   hand-built stores, and for the pass as the sharded engine runs it. *)

module Overlay = Sf_core.Overlay
module Flat = Sf_core.View.Flat
module Sharded = Sf_core.Runner.Sharded
module Protocol = Sf_core.Protocol

(* A store whose row [u] holds [rows.(u)] in slot order. *)
let store_of rows =
  let view_size = 4 in
  let store = Flat.create ~nodes:(Array.length rows) ~view_size in
  Array.iteri
    (fun u ids ->
      List.iteri
        (fun k id -> Flat.set store u k ~id ~serial:((u * view_size) + k) ~anchor:(-1) ~born:0)
        ids)
    rows;
  store

let ints = Alcotest.(list int)

(* A probe through arrays of its own. *)
let fresh_probe store ~live = Overlay.probe (Overlay.forest (Flat.node_count store)) store ~live

(* Row 3 is not live: its id bridges nothing, and neither do its own
   entries nor the self-edges of rows 0 and 2. *)
let test_self_and_departed_join_nothing () =
  let store = store_of [| [ 0; 3 ]; [ 3; 3 ]; [ 2; 2 ]; [ 0; 1; 2 ] |] in
  let p = fresh_probe store ~live:(fun u -> u < 3) in
  Alcotest.(check bool) "split" false (Overlay.connected p);
  Alcotest.check ints "every live row is a component" [ 1; 2 ] (Overlay.stragglers p);
  List.iter
    (fun u -> Alcotest.(check bool) (Printf.sprintf "%d alone" u) true (Overlay.alone p u))
    [ 0; 1; 2 ];
  Alcotest.(check bool) "a departed row is not alone" false (Overlay.alone p 3)

(* Components {1, 2} (root 2: row 2 links first) and {4, 5} (root 4) tie
   for the largest; the smaller root, 2, wins.  Only row 2 has degree
   >= 2 in it, so it is every straggler's donor. *)
let test_tie_goes_to_smallest_root () =
  let store = store_of [| []; []; [ 1; 1 ]; []; [ 5; 5 ]; [] |] in
  let p = fresh_probe store ~live:(fun _ -> true) in
  Alcotest.check ints "stragglers" [ 0; 3; 4 ] (Overlay.stragglers p);
  Alcotest.(check bool) "4 shares its component" false (Overlay.alone p 4);
  let rng = Sf_prng.Rng.create 1 in
  Alcotest.(check int) "donor from the largest" 2 (Overlay.donor p rng 0);
  let asked = ref [] and installed = ref [] in
  let repaired =
    Overlay.repair p rng
      ~reconnect:(fun u ->
        asked := u :: !asked;
        u = 0)
      ~install:(fun u ~donor -> installed := (u, donor) :: !installed)
  in
  Alcotest.(check int) "three repaired" 3 repaired;
  Alcotest.check ints "only lone roots reconnect" [ 0; 3 ] (List.rev !asked);
  Alcotest.(check (list (pair int int))) "the rest copy the donor"
    [ (3, 2); (4, 2) ] (List.rev !installed)

(* A sparse random store: the stragglers ascend, and there is one per
   component but the largest — the components a Digraph finds over the
   same live subgraph. *)
let test_stragglers_ascend () =
  let rows = 60 and live u = u mod 7 <> 3 in
  let rng = Sf_prng.Rng.create 9 in
  let store = Flat.create ~nodes:rows ~view_size:4 in
  let g = Sf_graph.Digraph.create () in
  for u = 0 to rows - 1 do
    if live u then Sf_graph.Digraph.ensure_vertex g u;
    if Sf_prng.Rng.bernoulli rng 0.6 then begin
      let id = Sf_prng.Rng.int rng rows in
      Flat.set store u 0 ~id ~serial:u ~anchor:(-1) ~born:0;
      if live u && live id && id <> u then Sf_graph.Digraph.add_edge g u id
    end
  done;
  let p = fresh_probe store ~live in
  let s = Overlay.stragglers p in
  Alcotest.check ints "ascending" (List.sort_uniq compare s) s;
  Alcotest.(check int) "one per minority component"
    (List.length (Sf_graph.Digraph.weakly_connected_components g) - 1)
    (List.length s);
  Alcotest.(check bool) "several components" true (List.length s > 3)

let test_degree_zero_row_is_a_straggler () =
  let store = store_of [| [ 1; 2 ]; [ 0; 0 ]; [ 1; 0 ]; [] |] in
  let p = fresh_probe store ~live:(fun _ -> true) in
  Alcotest.check ints "stragglers" [ 3 ] (Overlay.stragglers p);
  Alcotest.(check bool) "alone" true (Overlay.alone p 3)

(* The probe is an array walk in a kept forest: over a connected ring of
   4000 rows and 16000 entries it allocates 31 minor words (its closure,
   references and result), not one per entry; its arrays are the
   forest's.  Native only: bytecode boxes differently. *)
let test_probe_allocates_nothing_per_entry () =
  if Sys.backend_type = Sys.Native then begin
    let rows = 4000 in
    let store = Flat.create ~nodes:rows ~view_size:8 in
    for u = 0 to rows - 1 do
      for k = 0 to 3 do
        Flat.set store u k ~id:((u + k + 1) mod rows) ~serial:((4 * u) + k) ~anchor:(-1)
          ~born:0
      done
    done;
    let live _ = true in
    let forest = Overlay.forest rows in
    let w0 = Gc.minor_words () in
    let p = Overlay.probe forest store ~live in
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check bool) "connected" true (Overlay.connected p);
    Alcotest.(check bool) (Printf.sprintf "%.0f minor words <= 40" words) true (words <= 40.)
  end

(* A probe re-initialises its forest in place: probing each of this
   file's stores through one forest, after a probe of a different store
   (larger or smaller), answers as a probe through arrays of its own —
   the same stragglers, the same lone nodes and the same donor draws. *)
let test_reused_forest_equals_fresh () =
  let random_store =
    let rng = Sf_prng.Rng.create 9 in
    let store = Flat.create ~nodes:60 ~view_size:4 in
    for u = 0 to 59 do
      if Sf_prng.Rng.bernoulli rng 0.6 then
        Flat.set store u 0 ~id:(Sf_prng.Rng.int rng 60) ~serial:u ~anchor:(-1) ~born:0
    done;
    store
  in
  let cases =
    [
      (store_of [| [ 0; 3 ]; [ 3; 3 ]; [ 2; 2 ]; [ 0; 1; 2 ] |], fun u -> u < 3);
      (store_of [| []; []; [ 1; 1 ]; []; [ 5; 5 ]; [] |], fun _ -> true);
      (random_store, fun u -> u mod 7 <> 3);
      (store_of [| [ 1; 2 ]; [ 0; 0 ]; [ 1; 0 ]; [] |], fun _ -> true);
    ]
  in
  let forest = Overlay.forest 60 in
  let answers p store =
    let rows = Flat.node_count store in
    let rng = Sf_prng.Rng.create 3 in
    ( Overlay.connected p,
      Overlay.stragglers p,
      List.init rows (Overlay.alone p),
      List.init rows (Overlay.donor p rng) )
  in
  List.iteri
    (fun i (store, live) ->
      List.iteri
        (fun j (before, live_before) ->
          if i <> j then begin
            ignore (Overlay.probe forest before ~live:live_before);
            let reused = answers (Overlay.probe forest store ~live) store in
            let fresh = answers (fresh_probe store ~live) store in
            Alcotest.(check bool)
              (Printf.sprintf "store %d after store %d" i j)
              true (reused = fresh)
          end)
        cases)
    cases;
  Alcotest.check_raises "a forest smaller than the store"
    (Invalid_argument "Overlay.probe: the store has more rows than the forest")
    (fun () -> ignore (Overlay.probe (Overlay.forest 3) random_store ~live:(fun _ -> true)))

(* The sharded engine runs the same pass: a node whose row holds only a
   departed id, and whose id no live view holds, is re-knit from the
   largest component at the next due probe. *)
let test_sharded_reknits_a_cut_row () =
  let policy =
    Sf_resil.Policy.make ~estimator_window:1000 ~cooldown:4
      ~solve:(fun ~loss:_ -> (4, 12))
      ()
  in
  let w =
    Sharded.create ~shards:4 ~seed:23 ~n:400 ~init:Sharded.Scatter ~init_degree:6
      ~config:(Protocol.make_config ~view_size:12 ~lower_threshold:4)
      ~churn:{ Sharded.churn_rate = 0.02; headroom = 32 }
      ~resilience:policy ~probe_every:4 ()
  in
  Sharded.run_rounds w 7;
  let store = Sharded.store w in
  let live = Sharded.is_live w in
  let probe () = fresh_probe store ~live in
  Alcotest.(check bool) "connected before the cut" true (Overlay.connected (probe ()));
  let rec first_where f u = if f u then u else first_where f (u + 1) in
  let departed = first_where (fun u -> not (live u)) 0 in
  let u = first_where live 0 in
  (* Rewrite every entry of row [u], and every instance of [u], to the
     departed id, keeping serials, anchors and stamps. *)
  for v = 0 to Sharded.capacity w - 1 do
    if live v then
      for k = 0 to Flat.view_size store - 1 do
        let id = Flat.id_at store v k in
        if id >= 0 && (v = u || id = u) then
          Flat.set store v k ~id:departed ~serial:(Flat.serial_at store v k)
            ~anchor:(Flat.anchor_at store v k) ~born:(Flat.born_at store v k)
      done
  done;
  Alcotest.(check bool) "cut off" true (Overlay.alone (probe ()) u);
  Alcotest.(check int) "scan clean after the cut" 0
    (List.length (Sf_check.Invariant.scan_sharded w));
  let attempts () =
    match Sharded.resilience_statistics w with
    | Some rs -> rs.Sf_core.Runner.repair_attempts
    | None -> Alcotest.fail "no resilience statistics"
  in
  let before = attempts () in
  Sharded.run_rounds w 1;
  Alcotest.(check int) "the due probe repaired" (before + 1) (attempts ());
  let p = probe () in
  Alcotest.(check bool) "re-knit" false (Overlay.alone p u);
  Alcotest.(check bool) "connected again" true (Overlay.connected p);
  Alcotest.(check bool) "the donor comes first and is live" true
    (live (Flat.id_at store u 0));
  Alcotest.(check int) "scan clean after the repair" 0
    (List.length (Sf_check.Invariant.scan_sharded w))

let suite =
  [
    Alcotest.test_case "self-edges and departed ids join nothing" `Quick
      test_self_and_departed_join_nothing;
    Alcotest.test_case "a tie for the largest goes to the smallest root" `Quick
      test_tie_goes_to_smallest_root;
    Alcotest.test_case "stragglers ascend, one per minority component" `Quick
      test_stragglers_ascend;
    Alcotest.test_case "a degree-0 row is its own straggler" `Quick
      test_degree_zero_row_is_a_straggler;
    Alcotest.test_case "the probe allocates nothing per entry" `Quick
      test_probe_allocates_nothing_per_entry;
    Alcotest.test_case "a probe through a reused forest equals a fresh one" `Quick
      test_reused_forest_equals_fresh;
    Alcotest.test_case "sharded re-knits a cut row at the next due probe" `Quick
      test_sharded_reknits_a_cut_row;
  ]
