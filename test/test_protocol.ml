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
  Alcotest.(check int) "free" 6 (View.free_slots v);
  Alcotest.(check bool) "not full" false (View.is_full v)

let test_view_set_get_clear () =
  let v = View.create 4 in
  View.set v 2 (entry 7);
  Alcotest.(check int) "degree" 1 (View.degree v);
  (match View.get v 2 with
  | Some e -> Alcotest.(check int) "stored id" 7 e.View.id
  | None -> Alcotest.fail "expected entry");
  View.set v 2 (entry 8);
  Alcotest.(check int) "overwrite keeps degree" 1 (View.degree v);
  View.clear v 2;
  Alcotest.(check int) "cleared" 0 (View.degree v);
  View.clear v 2;
  Alcotest.(check int) "double clear harmless" 0 (View.degree v)

let test_view_random_empty_slot () =
  let v = View.create 4 in
  let rng = Sf_prng.Rng.create 1 in
  View.set v 0 (entry 1);
  View.set v 2 (entry 2);
  for _ = 1 to 100 do
    match View.random_empty_slot v rng with
    | Some i -> Alcotest.(check bool) "empty slot" true (i = 1 || i = 3)
    | None -> Alcotest.fail "expected empty slot"
  done;
  View.set v 1 (entry 3);
  View.set v 3 (entry 4);
  Alcotest.(check bool) "full view" true (View.random_empty_slot v rng = None)

let test_view_random_empty_slot_uniform () =
  let v = View.create 4 in
  let rng = Sf_prng.Rng.create 2 in
  View.set v 1 (entry 9);
  let counts = Array.make 4 0 in
  for _ = 1 to 30_000 do
    match View.random_empty_slot v rng with
    | Some i -> counts.(i) <- counts.(i) + 1
    | None -> ()
  done;
  Alcotest.(check int) "occupied never chosen" 0 counts.(1);
  List.iter
    (fun i ->
      let frac = float_of_int counts.(i) /. 30_000. in
      Alcotest.(check bool) "near 1/3" true (Float.abs (frac -. (1. /. 3.)) < 0.02))
    [ 0; 2; 3 ]

let test_view_queries () =
  let v = View.create 6 in
  View.set v 0 (entry 5);
  View.set v 1 (entry 5);
  View.set v 2 (entry 9);
  Alcotest.(check (list int)) "ids in slot order" [ 5; 5; 9 ] (View.ids v);
  Alcotest.(check bool) "mem" true (View.mem v 5);
  Alcotest.(check bool) "not mem" false (View.mem v 6);
  Alcotest.(check int) "count 5" 2 (View.count_id v 5);
  Alcotest.(check int) "entries" 3 (List.length (View.entries v));
  View.clear_all v;
  Alcotest.(check int) "clear_all" 0 (View.degree v)

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

(* --- Protocol steps --- *)

let make_node ?(view_size = 8) ?(lower_threshold = 2) ids =
  let config = Protocol.make_config ~view_size ~lower_threshold in
  let node = Protocol.create_node ~config ~node_id:100 in
  List.iteri (fun i id -> View.set node.Protocol.view i (entry ~serial:(1000 + i) id)) ids;
  (config, node)

let serial_counter () =
  let c = ref 10_000 in
  fun () ->
    incr c;
    !c

let run_initiate config node =
  let rng = Sf_prng.Rng.create 5 in
  Protocol.initiate config rng ~fresh_serial:(serial_counter ()) ~clock:0 node

let test_initiate_empty_view_is_self_loop () =
  let config, node = make_node [] in
  (match run_initiate config node with
  | Protocol.Self_loop -> ()
  | Protocol.Send _ -> Alcotest.fail "empty view must not send");
  Alcotest.(check int) "self loop counted" 1 node.Protocol.self_loop_actions

let test_initiate_sparse_view_can_self_loop () =
  (* With 2 of 8 slots filled, most selections hit an empty slot. *)
  let config, node = make_node [ 1; 2 ] in
  let self_loops = ref 0 and sends = ref 0 in
  let rng = Sf_prng.Rng.create 6 in
  let fresh = serial_counter () in
  for _ = 1 to 2000 do
    (* Refill to keep the state constant. *)
    View.clear_all node.Protocol.view;
    View.set node.Protocol.view 0 (entry 1);
    View.set node.Protocol.view 1 (entry 2);
    match Protocol.initiate config rng ~fresh_serial:fresh ~clock:0 node with
    | Protocol.Self_loop -> incr self_loops
    | Protocol.Send _ -> incr sends
  done;
  (* P(both nonempty) = d(d-1)/(s(s-1)) = 2/56. *)
  let rate = float_of_int !sends /. 2000. in
  Alcotest.(check bool) "send rate near 2/56" true (Float.abs (rate -. (2. /. 56.)) < 0.02)

(* Figure 5.2(b): no duplication, no deletion. *)
let test_fig_5_2_normal_transformation () =
  (* A full view guarantees the slot pair is non-empty, so the action always
     sends. *)
  let config, sender = make_node ~lower_threshold:2 [ 1; 2; 3; 4; 5; 6; 7; 9 ] in
  match run_initiate config sender with
  | Protocol.Self_loop -> Alcotest.fail "full view must send"
  | Protocol.Send { destination; message; duplicated } ->
    Alcotest.(check bool) "no duplication above dL" false duplicated;
    Alcotest.(check int) "sender cleared two entries" 6 (Protocol.degree sender);
    Alcotest.(check int) "reinforcement is sender id" 100
      message.Protocol.reinforcement.View.id;
    let initial_ids = [ 1; 2; 3; 4; 5; 6; 7; 9 ] in
    Alcotest.(check bool) "destination was in view" true (List.mem destination initial_ids);
    Alcotest.(check bool) "payload was in view" true
      (List.mem message.Protocol.mixing.View.id initial_ids);
    (* The moved instance keeps its serial and stays unanchored. *)
    Alcotest.(check bool) "moved instance keeps serial" true
      (message.Protocol.mixing.View.serial >= 1000
      && message.Protocol.mixing.View.serial < 1010);
    Alcotest.(check bool) "unanchored" true (message.Protocol.mixing.View.anchor = None);
    (* Receiver with room accepts both (Fig 5.2(b) right side). *)
    let receiver = Protocol.create_node ~config ~node_id:destination in
    let rng = Sf_prng.Rng.create 7 in
    (match Protocol.receive config rng receiver message with
    | Protocol.Accepted -> ()
    | Protocol.Deleted -> Alcotest.fail "receiver had room");
    Alcotest.(check int) "receiver gained two" 2 (Protocol.degree receiver);
    Alcotest.(check bool) "receiver knows sender" true (View.mem receiver.Protocol.view 100)

(* Figure 5.2(c): duplication at the sender. *)
let test_fig_5_2_duplication () =
  let config, sender = make_node ~lower_threshold:2 [ 1; 2 ] in
  (* With only 2 of 8 slots filled, selections often hit an empty slot —
     keep drawing from one rng until the action sends. *)
  let rng = Sf_prng.Rng.create 5 in
  let fresh = serial_counter () in
  let rec attempt k =
    if k = 0 then Alcotest.fail "no send in 1000 tries"
    else
      match Protocol.initiate config rng ~fresh_serial:fresh ~clock:0 sender with
      | Protocol.Self_loop -> attempt (k - 1)
      | Protocol.Send { message; duplicated; _ } ->
        Alcotest.(check bool) "duplicated at threshold" true duplicated;
        Alcotest.(check int) "entries kept" 2 (Protocol.degree sender);
        Alcotest.(check bool) "copies anchored at sender" true
          (message.Protocol.mixing.View.anchor = Some 100
          && message.Protocol.reinforcement.View.anchor = Some 100);
        Alcotest.(check bool) "copy got a fresh serial" true
          (message.Protocol.mixing.View.serial >= 10_000)
  in
  attempt 1000

(* Figure 5.2(d): deletion at a full receiver. *)
let test_fig_5_2_deletion () =
  let config, receiver = make_node [ 1; 2; 3; 4; 5; 6; 7; 9 ] in
  Alcotest.(check bool) "receiver full" true (View.is_full receiver.Protocol.view);
  let rng = Sf_prng.Rng.create 8 in
  let message = { Protocol.reinforcement = entry 50; mixing = entry 51 } in
  (match Protocol.receive config rng receiver message with
  | Protocol.Deleted -> ()
  | Protocol.Accepted -> Alcotest.fail "full receiver must delete");
  Alcotest.(check int) "degree unchanged" 8 (Protocol.degree receiver);
  Alcotest.(check int) "deletion counted" 1 receiver.Protocol.deletions;
  Alcotest.(check bool) "ids not installed" true
    ((not (View.mem receiver.Protocol.view 50)) && not (View.mem receiver.Protocol.view 51))

let test_receive_places_in_empty_slots () =
  let config, receiver = make_node [ 1; 2 ] in
  let rng = Sf_prng.Rng.create 9 in
  let message = { Protocol.reinforcement = entry 50; mixing = entry 51 } in
  (match Protocol.receive config rng receiver message with
  | Protocol.Accepted -> ()
  | Protocol.Deleted -> Alcotest.fail "room available");
  Alcotest.(check int) "degree +2" 4 (Protocol.degree receiver);
  Alcotest.(check bool) "originals untouched" true
    (View.mem receiver.Protocol.view 1 && View.mem receiver.Protocol.view 2)

(* Observation 5.1: outdegree stays even through random protocol activity. *)
let prop_degree_parity_invariant =
  QCheck.Test.make ~name:"Observation 5.1: outdegree parity and bounds" ~count:50
    QCheck.(small_int)
    (fun seed ->
      let config = Protocol.make_config ~view_size:10 ~lower_threshold:2 in
      let rng = Sf_prng.Rng.create seed in
      let nodes =
        Array.init 5 (fun node_id ->
            let node = Protocol.create_node ~config ~node_id in
            (* Even initial degree at every node. *)
            View.set node.Protocol.view 0 (entry ((node_id + 1) mod 5));
            View.set node.Protocol.view 1 (entry ((node_id + 2) mod 5));
            node)
      in
      let serial = ref 0 in
      let fresh () = incr serial; !serial in
      let ok = ref true in
      for clock = 1 to 500 do
        let u = nodes.(Sf_prng.Rng.int rng 5) in
        (match Protocol.initiate config rng ~fresh_serial:fresh ~clock u with
        | Protocol.Self_loop -> ()
        | Protocol.Send { destination; message; _ } ->
          (* Deliver unconditionally (loss handled elsewhere). *)
          ignore (Protocol.receive config rng nodes.(destination) message));
        Array.iter
          (fun node -> if not (Protocol.invariant_holds config node) then ok := false)
          nodes
      done;
      !ok)

(* The serial-tracking discipline: a no-duplication send conserves the
   number of live instances (sender clears 2, receiver gains 2). *)
let test_instance_conservation_without_loss () =
  let config, sender = make_node ~lower_threshold:2 [ 1; 2; 3; 4; 5; 6; 7; 9 ] in
  let receiver = Protocol.create_node ~config ~node_id:1 in
  let rng = Sf_prng.Rng.create 10 in
  let total () = Protocol.degree sender + Protocol.degree receiver in
  let before = total () in
  (match run_initiate config sender with
  | Protocol.Send { message; duplicated; _ } ->
    Alcotest.(check bool) "no dup" false duplicated;
    ignore (Protocol.receive config rng receiver message)
  | Protocol.Self_loop -> Alcotest.fail "expected send");
  Alcotest.(check int) "instances conserved" before (total ())

(* M1 under a retune: a node with 5 ids in an 8-slot view, clamped to
   s = 6.  Both received ids must fit within the live s, so the receive
   deletes rather than end at outdegree 7 > s — the same rule the sharded
   engine applies. *)
let test_receive_bounded_by_live_s () =
  let config = Protocol.clamped_config ~capacity:8 ~degree:5 (0, 6) in
  Alcotest.(check int) "retuned s" 6 config.Protocol.view_size;
  let allocated = Protocol.make_config ~view_size:8 ~lower_threshold:2 in
  let node = Protocol.create_node ~config:allocated ~node_id:100 in
  List.iteri (fun slot id -> View.set node.Protocol.view slot (entry id)) [ 1; 2; 3; 4; 5 ];
  let message = { Protocol.reinforcement = entry 50; mixing = entry 51 } in
  (match Protocol.receive config (Sf_prng.Rng.create 11) node message with
  | Protocol.Deleted -> ()
  | Protocol.Accepted -> Alcotest.fail "accepted two ids with one slot left under s");
  Alcotest.(check int) "outdegree stays within s" 5 (Protocol.degree node);
  Alcotest.(check int) "deletion counted" 1 node.Protocol.deletions

(* The sequential runner and the UDP driver stamp born with their
   cumulative action count, which passes 2^31 on long runs (a million
   nodes for 2200 rounds; a node host after about two days).  A single
   view stores any born: the whole step, at a node whose clock is past
   2^31, installs both instances with their stamps intact. *)
let test_action_clock_past_2_31 () =
  let clock = (1 lsl 31) + 17 in
  let config = Protocol.make_config ~view_size:8 ~lower_threshold:2 in
  let sender = Protocol.create_node ~config ~node_id:1 in
  (* Two entries, degree 2 <= dL: the send duplicates, so both instances
     are fresh and born at [clock]. *)
  View.set sender.Protocol.view 0 (entry ~born:max_int 2);
  View.set sender.Protocol.view 1 (entry ~born:clock 3);
  Alcotest.(check (list int)) "max_int born round-trips" [ max_int; clock ]
    (List.map (fun e -> e.View.born) (View.entries sender.Protocol.view));
  let serial = ref 0 in
  let fresh_serial () = incr serial; !serial in
  let rng = Sf_prng.Rng.create 5 in
  let rec send () =
    match Protocol.initiate config rng ~fresh_serial ~clock sender with
    | Protocol.Self_loop -> send ()
    | Protocol.Send { message; duplicated; _ } ->
      Alcotest.(check bool) "duplicated" true duplicated;
      message
  in
  let message = send () in
  let receiver = Protocol.create_node ~config ~node_id:2 in
  (match Protocol.receive config rng receiver message with
  | Protocol.Accepted -> ()
  | Protocol.Deleted -> Alcotest.fail "an empty view deleted");
  Alcotest.(check (list int)) "both stamped at the clock" [ clock; clock ]
    (List.map (fun e -> e.View.born) (View.entries receiver.Protocol.view))

(* An instance no lane can hold is refused before anything changes: the
   reinforcement fits, the mixing id does not, and neither is written —
   the view keeps its even degree and the counters do not move (the
   seen-id cache is [Runner]'s, so [receive] leaves it empty either way).
   The kernel refuses the same way on a world store, where born is a
   32-bit round lane too. *)
let test_receive_refuses_unfit_atomically () =
  let config = Protocol.make_config ~view_size:8 ~lower_threshold:2 in
  let node = Protocol.create_node ~config ~node_id:0 in
  View.set node.Protocol.view 0 (entry 4);
  View.set node.Protocol.view 5 (entry 6);
  let snapshot () =
    ( View.entries node.Protocol.view,
      node.Protocol.messages_received,
      node.Protocol.deletions,
      node.Protocol.seen_ids )
  in
  let before = snapshot () in
  let refused what message =
    (match Protocol.receive config (Sf_prng.Rng.create 3) node message with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ());
    if snapshot () <> before then Alcotest.failf "%s: node changed" what
  in
  refused "mixing id 2^31" { Protocol.reinforcement = entry 9; mixing = entry (1 lsl 31) };
  refused "negative mixing id" { Protocol.reinforcement = entry 9; mixing = entry (-3) };
  refused "mixing anchor 2^40"
    { Protocol.reinforcement = entry 9; mixing = entry ~anchor:(Some (1 lsl 40)) 7 };
  refused "reinforcement anchor -2"
    { Protocol.reinforcement = entry ~anchor:(Some (-2)) 9; mixing = entry 7 };
  Alcotest.(check bool) "View.fits agrees" false
    (View.fits node.Protocol.view (entry (1 lsl 31)));
  Alcotest.(check bool) "any born fits a single view" true
    (View.fits node.Protocol.view (entry ~born:(1 lsl 40) 1));
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
  Alcotest.(check int) "and its slots" 2 (View.Flat.recount_degree store 1)

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

(* Writes [ids] (-1 = empty) into row [u] with serials below 1000. *)
let fill store u ids =
  Array.iteri
    (fun k id ->
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
        if List.length ids land 1 = 1 then ids @ [ donor ] else ids
      in
      let serials = List.map (fun (_, _, serial, _) -> serial) entries in
      installed = List.length entries
      && installed land 1 = 0
      && installed <= s
      && (1 + List.length eligible < target || installed = target)
      && List.map (fun (_, id, _, _) -> id) entries = expected
      && List.for_all (fun (_, id, _, anchor) -> id <> owner && anchor = donor) entries
      (* Slot order: the entries fill slots 0, 1, 2, ... *)
      && List.map (fun (k, _, _, _) -> k) entries = List.init installed Fun.id
      && List.sort_uniq compare serials = List.init installed (fun k -> 1001 + k)
      && List.for_all (fun (k, _, _, _) -> View.Flat.born_at store u k = 7) entries
      (* The donor's row is only read. *)
      && List.map (fun (k, id, _, _) -> (k, id)) (row_entries from from_row)
         = List.filter_map
             (fun k -> if row.(k) >= 0 then Some (k, row.(k)) else None)
             (List.init s Fun.id)
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

let suite =
  [
    Alcotest.test_case "view create" `Quick test_view_create;
    Alcotest.test_case "view set/get/clear" `Quick test_view_set_get_clear;
    Alcotest.test_case "view random empty slot" `Quick test_view_random_empty_slot;
    Alcotest.test_case "view empty slot uniformity" `Quick test_view_random_empty_slot_uniform;
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
  ]
