(* Tests for the discrete-event engine: the event queue and the simulator. *)

module Event_queue = Sf_engine.Event_queue
module Sim = Sf_engine.Sim

(* --- Event queue --- *)

let test_queue_orders_by_time () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3. "c";
  Event_queue.push q ~time:1. "a";
  Event_queue.push q ~time:2. "b";
  let pop () = match Event_queue.pop q with Some (_, x) -> x | None -> "?" in
  (* Bind sequentially: list literals evaluate right to left in OCaml. *)
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] [ first; second; third ]

let test_queue_fifo_on_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.push q ~time:5. i
  done;
  let order = List.init 10 (fun _ -> match Event_queue.pop q with Some (_, x) -> x | None -> -1) in
  Alcotest.(check (list int)) "insertion order on equal times" (List.init 10 Fun.id) order

let test_queue_interleaved () =
  let q = Event_queue.create () in
  let rng = Sf_prng.Rng.create 4 in
  for i = 0 to 999 do
    Event_queue.push q ~time:(Sf_prng.Rng.float rng) i
  done;
  let last = ref neg_infinity in
  let ok = ref true in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (t, _) ->
      if t < !last then ok := false;
      last := t;
      drain ()
  in
  drain ();
  Alcotest.(check bool) "nondecreasing pops" true !ok;
  Alcotest.(check bool) "empty after drain" true (Event_queue.peek q = None)

let test_queue_peek () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:2. "later";
  Event_queue.push q ~time:1. "sooner";
  (match Event_queue.peek q with
  | Some (t, x) ->
    Alcotest.(check string) "peek payload" "sooner" x;
    Alcotest.(check bool) "peek time" true (t = 1.)
  | None -> Alcotest.fail "expected peek");
  let popped = List.filter_map (fun _ -> Event_queue.pop q) [ (); (); () ] in
  Alcotest.(check int) "peek does not remove" 2 (List.length popped)

(* --- Simulator --- *)

let test_sim_runs_in_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:2. (fun () -> log := "b" :: !log);
  Sim.schedule sim ~delay:1. (fun () -> log := "a" :: !log);
  Sim.schedule sim ~delay:3. (fun () -> log := "c" :: !log);
  let outcome = Sim.run sim in
  Alcotest.(check (list string)) "executed in order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check bool) "drained" true (outcome = Sim.Drained);
  Alcotest.(check bool) "clock at last event" true (Sim.now sim = 3.)

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then Sim.schedule sim ~delay:1. tick
  in
  Sim.schedule sim ~delay:1. tick;
  ignore (Sim.run sim);
  Alcotest.(check int) "recursive events" 5 !count;
  Alcotest.(check bool) "time advanced" true (Sim.now sim = 5.)

let test_sim_horizon () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Sim.schedule sim ~delay:1. tick
  in
  Sim.schedule sim ~delay:1. tick;
  let outcome = Sim.run ~horizon:10.5 sim in
  Alcotest.(check bool) "horizon outcome" true (outcome = Sim.Reached_horizon);
  Alcotest.(check int) "ten events" 10 !count;
  Alcotest.(check bool) "clock at horizon" true (Sim.now sim = 10.5);
  (* Resume cleanly past the first horizon. *)
  let outcome = Sim.run ~horizon:15.5 sim in
  Alcotest.(check bool) "resumed" true (outcome = Sim.Reached_horizon);
  Alcotest.(check int) "five more" 15 !count

let test_sim_event_budget () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Sim.schedule sim ~delay:1. tick
  in
  Sim.schedule sim ~delay:1. tick;
  let outcome = Sim.run ~max_events:7 sim in
  Alcotest.(check bool) "budget outcome" true (outcome = Sim.Budget_exhausted);
  Alcotest.(check int) "counted" 7 !count

let test_sim_rejects_negative_delay () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Sim.schedule: negative delay")
    (fun () -> Sim.schedule sim ~delay:(-1.) (fun () -> ()))

let suite =
  [
    Alcotest.test_case "queue time order" `Quick test_queue_orders_by_time;
    Alcotest.test_case "queue FIFO ties" `Quick test_queue_fifo_on_ties;
    Alcotest.test_case "queue interleaved" `Quick test_queue_interleaved;
    Alcotest.test_case "queue peek" `Quick test_queue_peek;
    Alcotest.test_case "sim order" `Quick test_sim_runs_in_order;
    Alcotest.test_case "sim nested scheduling" `Quick test_sim_nested_scheduling;
    Alcotest.test_case "sim horizon" `Quick test_sim_horizon;
    Alcotest.test_case "sim event budget" `Quick test_sim_event_budget;
    Alcotest.test_case "sim negative delay" `Quick test_sim_rejects_negative_delay;
  ]
