(* Tests for views and the S&F protocol steps, including the four
   transformation outcomes of the paper's Figure 5.2. *)

module View = Sf_core.View
module Protocol = Sf_core.Protocol

let entry ?(serial = 0) ?(anchor = None) ?(born = 0) id =
  { View.id; serial; anchor; born }

(* --- View --- *)

let test_view_create () =
  let v = View.create 6 in
  Alcotest.(check int) "size" 6 (View.size v);
  Alcotest.(check int) "degree 0" 0 (View.degree v);
  Alcotest.(check bool) "not full" false (View.is_full v)

let test_view_set_get_clear () =
  let v = View.create 4 in
  View.set v 0 (entry 7);
  Alcotest.(check int) "an append raises the degree" 1 (View.degree v);
  (match View.get v 0 with
  | Some e -> Alcotest.(check int) "stored id" 7 e.View.id
  | None -> Alcotest.fail "expected entry");
  View.set v 0 (entry 8);
  Alcotest.(check int) "overwrite keeps degree" 1 (View.degree v);
  (* A write above the degree would leave a hole: refused, row unchanged. *)
  let before = View.entries v in
  (match View.Flat.set v 0 2 ~id:9 ~serial:0 ~anchor:(-1) ~born:0 with
  | () -> Alcotest.fail "a write above the degree was accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "row unchanged" true (View.entries v = before && View.id_at v 2 = -1);
  View.Flat.remove v 0 0;
  Alcotest.(check int) "removed" 0 (View.degree v);
  match View.Flat.remove v 0 0 with
  | () -> Alcotest.fail "removed from an empty slot"
  | exception Invalid_argument _ -> ()

(* [insert] puts the new entry at a uniform slot k of [0, d] and moves
   slot k's entry to the end; [remove] moves the last entry into the
   freed slot.  Both keep the row packed, and a full row refuses an
   insert without drawing. *)
let test_view_insert_remove () =
  let v = View.create 4 in
  let rng = Sf_prng.Rng.create 1 in
  let insert id = View.Flat.insert v 0 rng ~id ~serial:id ~anchor:(-1) ~born:0 in
  let sorted () = List.sort compare (View.ids v) in
  List.iter insert [ 1; 2; 3 ];
  Alcotest.(check (list int)) "three entries, packed" [ 1; 2; 3 ] (sorted ());
  let before = Array.of_list (View.ids v) in
  insert 4;
  let after = Array.of_list (View.ids v) in
  let k = ref 0 in
  while after.(!k) <> 4 do incr k done;
  let expected = Array.append before [| 4 |] in
  if !k < 3 then begin
    expected.(3) <- before.(!k);
    expected.(!k) <- 4
  end;
  Alcotest.(check (array int)) "slot k's entry moved to the end" expected after;
  Alcotest.(check (list int)) "four entries" [ 1; 2; 3; 4 ] (sorted ());
  let state = Sf_prng.Rng.copy rng in
  (match insert 5 with
  | () -> Alcotest.fail "a full row accepted an insert"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "no draw on a full row" true (Sf_prng.Rng.equal state rng);
  let ids = Array.of_list (View.ids v) in
  View.Flat.remove v 0 1;
  Alcotest.(check (list int)) "the last entry fills the hole"
    [ ids.(0); ids.(3); ids.(2) ] (View.ids v);
  View.Flat.remove v 0 2;
  Alcotest.(check (list int)) "removing the last shortens the row"
    [ ids.(0); ids.(3) ] (View.ids v);
  Alcotest.(check int) "slot 2 empty again" (-1) (View.id_at v 2)

(* Inserting ids 0, 1, 2 into an empty row leaves each of the six
   orders with probability 1/6; one removal at a uniform slot then
   leaves each of the six ordered pairs of survivors with probability
   1/6. *)
let test_view_insert_uniform () =
  let v = View.create 4 in
  let rng = Sf_prng.Rng.create 2 in
  let trials = 30_000 in
  let orders = Hashtbl.create 6 and pairs = Hashtbl.create 6 in
  let bump table key =
    Hashtbl.replace table key (1 + Option.value ~default:0 (Hashtbl.find_opt table key))
  in
  for _ = 1 to trials do
    View.clear_all v;
    List.iter (fun id -> View.Flat.insert v 0 rng ~id ~serial:id ~anchor:(-1) ~born:0) [ 0; 1; 2 ];
    bump orders (View.ids v);
    View.Flat.remove v 0 (Sf_prng.Rng.int rng 3);
    bump pairs (View.ids v)
  done;
  Alcotest.(check int) "every order occurs" 6 (Hashtbl.length orders);
  Hashtbl.iter
    (fun _ count ->
      let frac = float_of_int count /. float_of_int trials in
      Alcotest.(check bool) "order near 1/6" true (Float.abs (frac -. (1. /. 6.)) < 0.015))
    orders;
  Alcotest.(check int) "every ordered pair occurs" 6 (Hashtbl.length pairs);
  Hashtbl.iter
    (fun _ count ->
      let frac = float_of_int count /. float_of_int trials in
      Alcotest.(check bool) "pair near 1/6" true (Float.abs (frac -. (1. /. 6.)) < 0.015))
    pairs

let test_view_queries () =
  let v = View.create 6 in
  View.set v 0 (entry 5);
  View.set v 1 (entry 5);
  View.set v 2 (entry 9);
  Alcotest.(check (list int)) "ids in slot order" [ 5; 5; 9 ] (View.ids v);
  Alcotest.(check bool) "mem" true (View.mem v 5);
  Alcotest.(check bool) "not mem" false (View.mem v 6);
  Alcotest.(check int) "entries" 3 (List.length (View.entries v));
  View.clear_all v;
  Alcotest.(check int) "clear_all" 0 (View.degree v)

(* The row draw against [Rng.choose] over the list of the row's
   eligible (slot, id) pairs in ascending slot order.  Rows have random
   degrees and mix the owner's own id with other ids, so some have no
   eligible slot; such a draw must return -1 and leave the stream where
   it was. *)
let reference_occupied_slot store u rng ~except =
  let eligible =
    List.filter
      (fun slot ->
        let id = View.Flat.id_at store u slot in
        id >= 0 && id <> except)
      (List.init (View.Flat.view_size store) Fun.id)
  in
  if eligible = [] then -1 else Sf_prng.Rng.choose rng (Array.of_list eligible)

let test_view_random_occupied_slot () =
  let s = 6 and rows = 400 in
  let store = View.create_rows ~nodes:rows s in
  let fill = Sf_prng.Rng.create 11 in
  for u = 0 to rows - 1 do
    for slot = 0 to Sf_prng.Rng.int fill (s + 1) - 1 do
      let id = if Sf_prng.Rng.int fill 3 = 0 then u else Sf_prng.Rng.int fill 5 in
      View.Flat.set store u slot ~id ~serial:0 ~anchor:(-1) ~born:0
    done
  done;
  let drawn = Sf_prng.Rng.create 12 and reference = Sf_prng.Rng.create 12 in
  let failures = ref 0 in
  for u = 0 to rows - 1 do
    List.iter
      (fun except ->
        let slot = View.Flat.random_occupied_slot store u drawn ~except in
        let expected = reference_occupied_slot store u reference ~except in
        if expected < 0 then incr failures;
        Alcotest.(check int) (Printf.sprintf "row %d except %d" u except) expected slot;
        Alcotest.(check bool) "same stream position" true (Sf_prng.Rng.equal drawn reference))
      [ -1; u ]
  done;
  Alcotest.(check bool) "some draws fail" true (!failures > 0);
  (* Native code boxes nothing here; bytecode may. *)
  if Sys.backend_type = Sys.Native then begin
    let w0 = Gc.minor_words () in
    let sum = ref 0 in
    for u = 0 to rows - 1 do
      sum := !sum + View.Flat.random_occupied_slot store u drawn ~except:u
    done;
    let words = Gc.minor_words () -. w0 in
    ignore (Sys.opaque_identity !sum);
    if words > 0. then Alcotest.failf "%.0f minor words for %d draws" words rows
  end

(* --- Protocol config --- *)

let test_config_validation () =
  let ok = Protocol.make_config ~view_size:8 ~lower_threshold:2 in
  Alcotest.(check int) "s" 8 ok.Protocol.view_size;
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s should be rejected" name
  in
  expect_invalid "s too small" (fun () -> Protocol.make_config ~view_size:4 ~lower_threshold:0);
  expect_invalid "odd s" (fun () -> Protocol.make_config ~view_size:7 ~lower_threshold:0);
  expect_invalid "dL too large" (fun () -> Protocol.make_config ~view_size:8 ~lower_threshold:4);
  expect_invalid "odd dL" (fun () -> Protocol.make_config ~view_size:10 ~lower_threshold:3);
  expect_invalid "negative dL" (fun () -> Protocol.make_config ~view_size:8 ~lower_threshold:(-2))

(* --- Protocol steps: the row kernel on single views --- *)

(* Node 100's view (row 0 of a one-node store) holding [ids] in slots
   0, 1, ..., with serials 1000, 1001, .... *)
let make_node ?(view_size = 8) ?(lower_threshold = 2) ids =
  let config = Protocol.make_config ~view_size ~lower_threshold in
  let view = View.create view_size in
  List.iteri (fun i id -> View.set view i (entry ~serial:(1000 + i) id)) ids;
  (config, view)

let serial_counter () =
  let c = ref 10_000 in
  fun () ->
    incr c;
    !c

(* One initiate step at node [owner] (default 100): the destination, [-1]
   for a self-loop, and the message written into [msg]. *)
let initiate ?(owner = 100) ?(clock = 0) config rng ~mint view msg =
  Protocol.initiate_row rng view 0 ~owner ~dl:config.Protocol.lower_threshold
    ~born:clock ~mint msg

let run_initiate config view msg =
  initiate config (Sf_prng.Rng.create 5) ~mint:(serial_counter ()) view msg

(* One receive step: [true] when both ids were accepted. *)
let receive config rng view msg =
  Protocol.receive_row rng view 0 ~s:config.Protocol.view_size msg

(* A message carrying [r] and [m], unanchored unless given. *)
let message ?(r_anchor = -1) ?(m_anchor = -1) ?(born = 0) r m =
  let msg = Protocol.row_message () in
  msg.r_id <- r;
  msg.r_anchor <- r_anchor;
  msg.r_born <- born;
  msg.m_id <- m;
  msg.m_anchor <- m_anchor;
  msg.m_born <- born;
  msg

let test_initiate_empty_view_is_self_loop () =
  let config, view = make_node [] in
  let destination = run_initiate config view (Protocol.row_message ()) in
  Alcotest.(check int) "self loop counted" (-1) destination

let test_initiate_sparse_view_can_self_loop () =
  (* With 2 of 8 slots filled, most selections hit an empty slot. *)
  let config, view = make_node [ 1; 2 ] in
  let self_loops = ref 0 and sends = ref 0 in
  let rng = Sf_prng.Rng.create 6 in
  let mint = serial_counter () in
  let msg = Protocol.row_message () in
  for _ = 1 to 2000 do
    (* Refill to keep the state constant. *)
    View.clear_all view;
    View.set view 0 (entry 1);
    View.set view 1 (entry 2);
    if initiate config rng ~mint view msg < 0 then incr self_loops else incr sends
  done;
  (* P(both nonempty) = d(d-1)/(s(s-1)) = 2/56. *)
  let rate = float_of_int !sends /. 2000. in
  Alcotest.(check bool) "send rate near 2/56" true (Float.abs (rate -. (2. /. 56.)) < 0.02)

(* Figure 5.2(b): no duplication, no deletion. *)
let test_fig_5_2_normal_transformation () =
  (* A full view guarantees the slot pair is non-empty, so the action always
     sends. *)
  let config, sender = make_node ~lower_threshold:2 [ 1; 2; 3; 4; 5; 6; 7; 9 ] in
  let msg = Protocol.row_message () in
  let destination = run_initiate config sender msg in
  if destination < 0 then Alcotest.fail "full view must send";
  Alcotest.(check bool) "no duplication above dL" false msg.duplicated;
  Alcotest.(check int) "sender cleared two entries" 6 (View.degree sender);
  Alcotest.(check int) "reinforcement is sender id" 100 msg.r_id;
  let initial_ids = [ 1; 2; 3; 4; 5; 6; 7; 9 ] in
  Alcotest.(check bool) "destination was in view" true (List.mem destination initial_ids);
  Alcotest.(check bool) "payload was in view" true (List.mem msg.m_id initial_ids);
  (* The moved instance keeps its serial and stays unanchored. *)
  Alcotest.(check bool) "moved instance keeps serial" true
    (msg.m_serial >= 1000 && msg.m_serial < 1010);
  Alcotest.(check bool) "unanchored" true (msg.m_anchor = -1);
  (* Receiver with room accepts both (Fig 5.2(b) right side). *)
  let receiver = View.create config.Protocol.view_size in
  let rng = Sf_prng.Rng.create 7 in
  if not (receive config rng receiver msg) then Alcotest.fail "receiver had room";
  Alcotest.(check int) "receiver gained two" 2 (View.degree receiver);
  Alcotest.(check bool) "receiver knows sender" true (View.mem receiver 100)

(* Figure 5.2(c): duplication at the sender. *)
let test_fig_5_2_duplication () =
  let config, sender = make_node ~lower_threshold:2 [ 1; 2 ] in
  (* With only 2 of 8 slots filled, selections often hit an empty slot —
     keep drawing from one rng until the action sends. *)
  let rng = Sf_prng.Rng.create 5 in
  let mint = serial_counter () in
  let msg = Protocol.row_message () in
  let rec attempt k =
    if k = 0 then Alcotest.fail "no send in 1000 tries"
    else if initiate config rng ~mint sender msg < 0 then attempt (k - 1)
    else begin
      Alcotest.(check bool) "duplicated at threshold" true msg.duplicated;
      Alcotest.(check int) "entries kept" 2 (View.degree sender);
      Alcotest.(check bool) "copies anchored at sender" true
        (msg.m_anchor = 100 && msg.r_anchor = 100);
      Alcotest.(check bool) "copy got a fresh serial" true (msg.m_serial >= 10_000)
    end
  in
  attempt 1000

(* Figure 5.2(d): deletion at a full receiver. *)
let test_fig_5_2_deletion () =
  let config, receiver = make_node [ 1; 2; 3; 4; 5; 6; 7; 9 ] in
  Alcotest.(check bool) "receiver full" true (View.is_full receiver);
  let rng = Sf_prng.Rng.create 8 in
  let accepted = receive config rng receiver (message 50 51) in
  if accepted then Alcotest.fail "full receiver must delete";
  Alcotest.(check int) "degree unchanged" 8 (View.degree receiver);
  Alcotest.(check bool) "deletion counted" false accepted;
  Alcotest.(check bool) "ids not installed" true
    ((not (View.mem receiver 50)) && not (View.mem receiver 51))

let test_receive_places_in_empty_slots () =
  let config, receiver = make_node [ 1; 2 ] in
  let rng = Sf_prng.Rng.create 9 in
  if not (receive config rng receiver (message 50 51)) then
    Alcotest.fail "room available";
  Alcotest.(check int) "degree +2" 4 (View.degree receiver);
  Alcotest.(check (list int)) "the row stays packed" [ 1; 2; 50; 51 ]
    (List.sort compare (View.ids receiver));
  Alcotest.(check int) "slot 4 still empty" (-1) (View.id_at receiver 4)

(* Observation 5.1: outdegree stays even through random protocol activity. *)
let prop_degree_parity_invariant =
  QCheck.Test.make ~name:"Observation 5.1: outdegree parity and bounds" ~count:50
    QCheck.(small_int)
    (fun seed ->
      let config = Protocol.make_config ~view_size:10 ~lower_threshold:2 in
      let rng = Sf_prng.Rng.create seed in
      let views =
        Array.init 5 (fun node_id ->
            let view = View.create config.Protocol.view_size in
            (* Even initial degree at every node. *)
            View.set view 0 (entry ((node_id + 1) mod 5));
            View.set view 1 (entry ((node_id + 2) mod 5));
            view)
      in
      let serial = ref 0 in
      let mint () = incr serial; !serial in
      let msg = Protocol.row_message () in
      let ok = ref true in
      for clock = 1 to 500 do
        let owner = Sf_prng.Rng.int rng 5 in
        let destination = initiate ~owner ~clock config rng ~mint views.(owner) msg in
        (* Deliver unconditionally (loss handled elsewhere). *)
        if destination >= 0 then ignore (receive config rng views.(destination) msg);
        Array.iter
          (fun view ->
            let d = View.degree view in
            if not (d mod 2 = 0 && d >= 0 && d <= config.Protocol.view_size) then
              ok := false)
          views
      done;
      !ok)

(* The serial-tracking discipline: a no-duplication send conserves the
   number of live instances (sender clears 2, receiver gains 2). *)
let test_instance_conservation_without_loss () =
  let config, sender = make_node ~lower_threshold:2 [ 1; 2; 3; 4; 5; 6; 7; 9 ] in
  let receiver = View.create config.Protocol.view_size in
  let rng = Sf_prng.Rng.create 10 in
  let total () = View.degree sender + View.degree receiver in
  let before = total () in
  let msg = Protocol.row_message () in
  if run_initiate config sender msg < 0 then Alcotest.fail "expected send";
  Alcotest.(check bool) "no dup" false msg.duplicated;
  ignore (receive config rng receiver msg);
  Alcotest.(check int) "instances conserved" before (total ())

(* M1 under a retune: a node with 5 ids in an 8-slot view, clamped to
   s = 6.  Both received ids must fit within the live s, so the receive
   deletes rather than end at outdegree 7 > s — the same rule the sharded
   engine applies. *)
let test_receive_bounded_by_live_s () =
  let config = Protocol.clamped_config ~capacity:8 ~degree:5 (0, 6) in
  Alcotest.(check int) "retuned s" 6 config.Protocol.view_size;
  let view = View.create 8 in
  List.iteri (fun slot id -> View.set view slot (entry id)) [ 1; 2; 3; 4; 5 ];
  let accepted = receive config (Sf_prng.Rng.create 11) view (message 50 51) in
  if accepted then Alcotest.fail "accepted two ids with one slot left under s";
  Alcotest.(check int) "outdegree stays within s" 5 (View.degree view);
  Alcotest.(check bool) "deletion counted" false accepted

(* The sequential runner and the UDP driver stamp born with their
   cumulative action count, which passes 2^31 on long runs (a million
   nodes for 2200 rounds; a node host after about two days).  An
   action-stamped store holds any born: the whole step, at a node whose
   clock is past 2^31, installs both instances with their stamps
   intact. *)
let test_action_clock_past_2_31 () =
  let clock = (1 lsl 31) + 17 in
  let config = Protocol.make_config ~view_size:8 ~lower_threshold:2 in
  let sender = View.create 8 in
  (* Two entries, degree 2 <= dL: the send duplicates, so both instances
     are fresh and born at [clock]. *)
  View.set sender 0 (entry ~born:max_int 2);
  View.set sender 1 (entry ~born:clock 3);
  Alcotest.(check (list int)) "max_int born round-trips" [ max_int; clock ]
    (List.map (fun e -> e.View.born) (View.entries sender));
  let serial = ref 0 in
  let mint () = incr serial; !serial in
  let rng = Sf_prng.Rng.create 5 in
  let msg = Protocol.row_message () in
  let rec send () =
    if initiate ~owner:1 ~clock config rng ~mint sender msg < 0 then send ()
    else Alcotest.(check bool) "duplicated" true msg.duplicated
  in
  send ();
  let receiver = View.create 8 in
  if not (receive config rng receiver msg) then Alcotest.fail "an empty view deleted";
  Alcotest.(check (list int)) "both stamped at the clock" [ clock; clock ]
    (List.map (fun e -> e.View.born) (View.entries receiver))

(* An instance no lane can hold is refused before anything changes: the
   reinforcement fits, the mixing id does not, and neither is written —
   the view keeps its even degree.  The kernel refuses the same way on a
   world store, where born is a 32-bit round lane too. *)
let test_receive_refuses_unfit_atomically () =
  let config = Protocol.make_config ~view_size:8 ~lower_threshold:2 in
  let view = View.create 8 in
  View.set view 0 (entry 4);
  View.set view 1 (entry 6);
  let before = View.entries view in
  let refused what msg =
    (match receive config (Sf_prng.Rng.create 3) view msg with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ());
    if View.entries view <> before then Alcotest.failf "%s: node changed" what
  in
  refused "mixing id 2^31" (message 9 (1 lsl 31));
  refused "negative mixing id" (message 9 (-3));
  refused "mixing anchor 2^40" (message ~m_anchor:(1 lsl 40) 9 7);
  refused "reinforcement anchor -2" (message ~r_anchor:(-2) 9 7);
  Alcotest.(check bool) "View.Flat.fits agrees" false
    (View.Flat.fits view ~id:(1 lsl 31) ~anchor:(-1) ~born:0);
  Alcotest.(check bool) "any born fits a single view" true
    (View.Flat.fits view ~id:1 ~anchor:(-1) ~born:(1 lsl 40));
  let store = View.Flat.create ~nodes:2 ~view_size:8 in
  View.Flat.set store 1 0 ~id:0 ~serial:1 ~anchor:(-1) ~born:0;
  View.Flat.set store 1 1 ~id:0 ~serial:2 ~anchor:(-1) ~born:0;
  let msg = Protocol.row_message () in
  msg.r_id <- 0;
  msg.m_id <- 0;
  msg.m_born <- 1 lsl 31;
  (match Protocol.receive_row (Sf_prng.Rng.create 3) store 1 ~s:8 msg with
  | _ -> Alcotest.fail "world store: accepted born 2^31"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "world row keeps degree 2" 2 (View.Flat.degree store 1);
  Alcotest.(check (list int)) "and its slots" [ 0; 0; -1 ]
    (List.init 3 (View.Flat.id_at store 1))

(* --- The install rule --- *)

(* One random case: view size s, threshold dL, the owner's and the donor's
   ids (distinct, below [ids]), the donor's row (-1 = empty; the owner's
   own id may appear in it), the ids the engine knows to be dead, the
   target row's stale content, and whether the rows live in one world
   store or in two single views. *)
let install_case =
  let ids = 40 in
  QCheck.Gen.(
    let* half = int_range 3 10 in
    let s = 2 * half in
    let* dl = map (fun k -> 2 * k) (int_range 0 (half - 3)) in
    let* owner = int_range 0 (ids - 1) in
    let* donor = map (fun d -> (owner + 1 + d) mod ids) (int_range 0 (ids - 2)) in
    let slot = frequency [ (2, return (-1)); (1, return owner); (5, int_range 0 (ids - 1)) ] in
    let* row = array_size (return s) slot in
    let* stale = array_size (return s) slot in
    let* dead = list_size (int_range 0 8) (int_range 0 (ids - 1)) in
    let* world = bool in
    return (s, dl, owner, donor, row, stale, dead, world))

let print_install_case (s, dl, owner, donor, row, stale, dead, world) =
  let ints a = String.concat ";" (List.map string_of_int a) in
  Printf.sprintf "s=%d dl=%d owner=%d donor=%d row=[%s] stale=[%s] dead=[%s] world=%b" s
    dl owner donor (ints (Array.to_list row)) (ints (Array.to_list stale)) (ints dead) world

(* Writes the ids of [ids] that are not -1 into row [u], packed, with
   serials below 1000. *)
let fill store u ids =
  Array.iter
    (fun id ->
      let k = View.Flat.degree store u in
      if id >= 0 then View.Flat.set store u k ~id ~serial:k ~anchor:(-1) ~born:0)
    ids

let row_entries store u =
  List.filter_map
    (fun k ->
      let id = View.Flat.id_at store u k in
      if id < 0 then None
      else Some (k, id, View.Flat.serial_at store u k, View.Flat.anchor_at store u k))
    (List.init (View.Flat.view_size store) Fun.id)

let prop_install_rule =
  QCheck.Test.make ~name:"install rule: even, bounded, anchored, fresh" ~count:500
    (QCheck.make ~print:print_install_case install_case)
    (fun (s, dl, owner, donor, row, stale, dead, world) ->
      let store, u, from, from_row =
        if world then begin
          let w = View.Flat.create ~nodes:40 ~view_size:s in
          fill w donor row;
          (w, owner, w, donor)
        end
        else begin
          let from = View.create s in
          fill from 0 row;
          (View.create s, 0, from, 0)
        end
      in
      fill store u stale;
      let next = ref 1000 in
      let mint () = incr next; !next in
      let live id = not (List.mem id dead) in
      let installed =
        Protocol.install_copy store u ~owner ~donor ~from ~from_row ~dl ~live ~born:7
          ~mint
      in
      let entries = row_entries store u in
      let eligible =
        List.filter (fun id -> id >= 0 && id <> owner && live id) (Array.to_list row)
      in
      let target = max 2 dl in
      let copied = List.filteri (fun k _ -> k < target - 1) eligible in
      let expected =
        let ids = donor :: copied in
        ids @ List.init (target - List.length ids) (fun _ -> donor)
      in
      let serials = List.map (fun (_, _, serial, _) -> serial) entries in
      installed = List.length entries
      && installed land 1 = 0
      && installed <= s
      && installed = target
      && List.map (fun (_, id, _, _) -> id) entries = expected
      && List.for_all (fun (_, id, _, anchor) -> id <> owner && anchor = donor) entries
      (* Slot order: the entries fill slots 0, 1, 2, ... *)
      && List.map (fun (k, _, _, _) -> k) entries = List.init installed Fun.id
      && List.sort_uniq compare serials = List.init installed (fun k -> 1001 + k)
      && List.for_all (fun (k, _, _, _) -> View.Flat.born_at store u k = 7) entries
      (* The donor's row is only read. *)
      && List.map (fun (_, id, _, _) -> id) (row_entries from from_row)
         = List.filter (fun id -> id >= 0) (Array.to_list row)
      (* An id install writes its ids unanchored, in slot order, and
         refuses one id more than the view has slots, changing nothing. *)
      && (let before = row_entries store u in
          match Protocol.install_ids store u (Array.init (s + 1) Fun.id) ~born:7 ~mint with
          | () -> false
          | exception Invalid_argument _ ->
            row_entries store u = before
            && (Protocol.install_ids store u (Array.of_list expected) ~born:7 ~mint;
                List.map (fun (_, id, _, anchor) -> (id, anchor)) (row_entries store u)
                = List.map (fun id -> (id, -1)) expected)))

(* A donor with fewer than dL - 1 eligible ids still gives the joiner
   max(2, dL) entries: its own id pads the copy. *)
let test_install_copy_pads_to_dl () =
  let store = View.create_rows ~nodes:2 12 in
  List.iteri
    (fun k id -> View.Flat.set store 1 k ~id ~serial:k ~anchor:(-1) ~born:0)
    [ 5; 0; 6 ];
  let next = ref 100 in
  let mint () = incr next; !next in
  let installed =
    Protocol.install_copy store 0 ~owner:0 ~donor:1 ~from:store ~from_row:1 ~dl:6
      ~live:(fun _ -> true) ~born:0 ~mint
  in
  Alcotest.(check int) "max(2, dL) entries" 6 installed;
  Alcotest.(check (list int)) "the donor, its ids, then the donor as padding"
    [ 1; 5; 6; 1; 1; 1 ] (View.ids (View.copy_row store 0))

let suite =
  [
    Alcotest.test_case "view create" `Quick test_view_create;
    Alcotest.test_case "view set/get/clear" `Quick test_view_set_get_clear;
    Alcotest.test_case "view insert and remove" `Quick test_view_insert_remove;
    Alcotest.test_case "view insert order uniformity" `Quick test_view_insert_uniform;
    Alcotest.test_case "view queries" `Quick test_view_queries;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "initiate on empty view" `Quick test_initiate_empty_view_is_self_loop;
    Alcotest.test_case "self-loop rate" `Quick test_initiate_sparse_view_can_self_loop;
    Alcotest.test_case "Fig 5.2(b): normal transformation" `Quick test_fig_5_2_normal_transformation;
    Alcotest.test_case "Fig 5.2(c): duplication" `Quick test_fig_5_2_duplication;
    Alcotest.test_case "Fig 5.2(d): deletion" `Quick test_fig_5_2_deletion;
    Alcotest.test_case "receive into empty slots" `Quick test_receive_places_in_empty_slots;
    Alcotest.test_case "instance conservation" `Quick test_instance_conservation_without_loss;
    QCheck_alcotest.to_alcotest prop_degree_parity_invariant;
    Alcotest.test_case "receive bounded by the live s" `Quick test_receive_bounded_by_live_s;
    Alcotest.test_case "action clock past 2^31" `Quick test_action_clock_past_2_31;
    Alcotest.test_case "receive refuses an unfit message atomically" `Quick
      test_receive_refuses_unfit_atomically;
    QCheck_alcotest.to_alcotest prop_install_rule;
    Alcotest.test_case "install copy pads a thin donor to dL" `Quick
      test_install_copy_pads_to_dl;
    Alcotest.test_case "view random occupied slot" `Quick test_view_random_occupied_slot;
  ]
