(* Fault-window state and the one per-message verdict every engine
   judges through.  The queries on the verdict path are plain loops over
   the window array: a closure would cost an allocation per message. *)

type slot = { window : Scenario.window; mutable active : bool }

type t = {
  n : int;
  slots : slot array;
  mutable transitions : int;
  mutable log : string list;  (* flips not yet drained, newest first *)
}

let create ~n windows =
  if n <= 0 then invalid_arg "Windows.create: need a positive population";
  List.iter Scenario.validate_window windows;
  {
    n;
    slots = Array.of_list (List.map (fun window -> { window; active = false }) windows);
    transitions = 0;
    log = [];
  }

let refresh t ~now =
  for k = 0 to Array.length t.slots - 1 do
    let s = t.slots.(k) in
    let active = s.window.Scenario.start <= now && now < s.window.Scenario.stop in
    if active <> s.active then begin
      s.active <- active;
      t.transitions <- t.transitions + 1;
      t.log <-
        Fmt.str "%s:%s"
          (if active then "fault-start" else "fault-end")
          (Scenario.fault_kind s.window.Scenario.fault)
        :: t.log
    end
  done

let transitions t = t.transitions

let drain t =
  let drained = List.rev t.log in
  t.log <- [];
  drained

let equal a b =
  a.transitions = b.transitions
  && Array.length a.slots = Array.length b.slots
  && Array.for_all2 (fun x y -> x.active = y.active) a.slots b.slots

let block ~n ~parts id =
  let id = ((id mod n) + n) mod n in
  min (parts - 1) (id * parts / n)

let crashed t id =
  let hit = ref false in
  for k = 0 to Array.length t.slots - 1 do
    let s = t.slots.(k) in
    if s.active then
      match s.window.Scenario.fault with
      | Scenario.Crash { first; last } -> if first <= id && id <= last then hit := true
      | Scenario.Partition _ | Scenario.Delay _ | Scenario.Corrupt _ -> ()
  done;
  !hit

let partitioned t ~src ~dst =
  let split = ref false in
  if src >= 0 then
    for k = 0 to Array.length t.slots - 1 do
      let s = t.slots.(k) in
      if s.active then
        match s.window.Scenario.fault with
        | Scenario.Partition { parts } ->
          if block ~n:t.n ~parts src <> block ~n:t.n ~parts dst then split := true
        | Scenario.Crash _ | Scenario.Delay _ | Scenario.Corrupt _ -> ()
    done;
  !split

type fate = Pass | Crashed | Partitioned | Lost

let judge t loss rng ~chance ~src ~dst =
  if crashed t dst then Crashed
  else if partitioned t ~src ~dst then Partitioned
  else if Loss.drop loss rng ~chance ~src ~dst then Lost
  else Pass

(* Returns a bool, not the rate: a float result would be boxed on every
   delivered verdict. *)
let corrupts t rng =
  let rate = ref 0. in
  for k = 0 to Array.length t.slots - 1 do
    let s = t.slots.(k) in
    if s.active then
      match s.window.Scenario.fault with
      | Scenario.Corrupt { rate = r } -> rate := Float.max !rate r
      | Scenario.Crash _ | Scenario.Partition _ | Scenario.Delay _ -> ()
  done;
  !rate > 0. && Sf_prng.Rng.bernoulli rng !rate

let is_crash s =
  match s.window.Scenario.fault with
  | Scenario.Crash _ -> true
  | Scenario.Partition _ | Scenario.Delay _ | Scenario.Corrupt _ -> false

let crash_active t = Array.exists (fun s -> s.active && is_crash s) t.slots

let delay_factor t =
  Array.fold_left
    (fun acc s ->
      match s.window.Scenario.fault with
      | Scenario.Delay { factor } when s.active -> acc *. factor
      | Scenario.Delay _ | Scenario.Crash _ | Scenario.Partition _ | Scenario.Corrupt _ ->
        acc)
    1. t.slots
