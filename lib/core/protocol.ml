(* Send & Forget (S&F), Figure 5.1 of the paper.

   An *action* is split into two *steps*, each atomic at one node:

   - [initiate] at u: select two distinct view slots uniformly at random; if
     either is empty nothing happens (a self-loop transformation).
     Otherwise, with v and w the ids in the slots, send the message [u, w]
     to v, then clear both slots unless d(u) has reached the lower threshold
     [dL], in which case the entries are *duplicated* (kept).
   - [receive] at v: place both received ids into uniformly chosen empty
     slots, unless the view is full, in which case both are *deleted*.

   The sender never learns whether its message arrived: loss sits between
   the two steps, exactly as in the paper's non-atomic action model. *)

type config = {
  view_size : int;        (* s: number of view slots, even, >= 6 *)
  lower_threshold : int;  (* dL: outdegree at/below which sends duplicate *)
}

let make_config ~view_size ~lower_threshold =
  if view_size < 6 then invalid_arg "Protocol.make_config: view size must be >= 6";
  if view_size mod 2 <> 0 then invalid_arg "Protocol.make_config: view size must be even";
  if lower_threshold < 0 || lower_threshold > view_size - 6 then
    invalid_arg "Protocol.make_config: need 0 <= dL <= s - 6";
  if lower_threshold mod 2 <> 0 then
    invalid_arg "Protocol.make_config: dL must be even";
  { view_size; lower_threshold }

let clamped_config ~capacity ~degree (dl, s) =
  let even_up x = if x land 1 = 0 then x else x + 1 in
  let s = min capacity (max s (max 6 (even_up degree))) in
  let dl = max 0 (min dl (s - 6)) in
  let dl = if dl land 1 = 0 then dl else dl - 1 in
  make_config ~view_size:s ~lower_threshold:dl

type message = {
  reinforcement : View.entry;  (* the sender's own id, [u] in [u, w] *)
  mixing : View.entry;         (* the forwarded id, [w] in [u, w] *)
}

(* Bound on the per-node cache of previously seen ids (used only by the
   reconnection path of section 5, never by regular protocol actions). *)
let seen_cache_capacity = 32

type node = {
  node_id : int;
  view : View.t;
  mutable initiated_actions : int;
  mutable self_loop_actions : int;
  mutable messages_sent : int;
  mutable duplications : int;
  mutable messages_received : int;
  mutable deletions : int;
  (* Recently received ids, newest first, deduplicated and bounded.  The
     paper's joining rule lets a reconnecting node probe "previously seen
     ids"; this cache is that memory. *)
  mutable seen_ids : int list;
}

let create_node ~config ~node_id =
  {
    node_id;
    view = View.create config.view_size;
    initiated_actions = 0;
    self_loop_actions = 0;
    messages_sent = 0;
    duplications = 0;
    messages_received = 0;
    deletions = 0;
    seen_ids = [];
  }

let remember_seen node id =
  if id <> node.node_id then begin
    let rest = List.filter (fun x -> x <> id) node.seen_ids in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: tl -> x :: take (k - 1) tl
    in
    node.seen_ids <- id :: take (seen_cache_capacity - 1) rest
  end

let degree node = View.degree node.view

type initiate_result =
  | Self_loop                      (* an empty slot was selected; no effect *)
  | Send of { destination : int; message : message; duplicated : bool }

(* The initiate step.  [fresh_serial] mints instance numbers; [clock] stamps
   creation times. *)
let initiate config rng ~fresh_serial ~clock node =
  node.initiated_actions <- node.initiated_actions + 1;
  (* Slot selection ranges over the *allocated* view, not the configured
     view size: the two coincide at creation, but adaptive retuning
     (lib/resilience) can lower a node's effective s below its allocated
     capacity, and entries parked in high slots must stay reachable. *)
  let size = View.size node.view in
  let i = Sf_prng.Rng.int rng size in
  let j = Sf_prng.Rng.other rng size i in
  match (View.get node.view i, View.get node.view j) with
  | None, _ | _, None ->
    node.self_loop_actions <- node.self_loop_actions + 1;
    Self_loop
  | Some target_entry, Some forwarded_entry ->
    let duplicated = degree node <= config.lower_threshold in
    if not duplicated then begin
      View.clear node.view i;
      View.clear node.view j
    end
    else node.duplications <- node.duplications + 1;
    (* Reinforcement instance: always a brand-new, independent instance of
       the sender's own id. *)
    let reinforcement =
      { View.id = node.node_id; serial = fresh_serial (); anchor = None; born = clock }
    in
    (* Mixing instance: moves (same serial) when the slots were cleared;
       when duplicated, the receiver gets a fresh copy anchored at the
       sender, whose own copy stays behind — this is exactly the spatial
       dependence the paper's edge labelling charges to duplication. *)
    let mixing =
      if duplicated then
        {
          View.id = forwarded_entry.View.id;
          serial = fresh_serial ();
          anchor = Some node.node_id;
          born = clock;
        }
      else
        (* Forwarded without duplication: the dependence MC (Fig 7.1)
           transitions the instance to the independent state. *)
        { forwarded_entry with View.anchor = None }
    in
    let reinforcement =
      if duplicated then { reinforcement with View.anchor = Some node.node_id }
      else reinforcement
    in
    node.messages_sent <- node.messages_sent + 1;
    Send { destination = target_entry.View.id; message = { reinforcement; mixing }; duplicated }

type receive_result = Accepted | Deleted

(* The receive step. *)
let receive config rng node message =
  node.messages_received <- node.messages_received + 1;
  remember_seen node message.reinforcement.View.id;
  remember_seen node message.mixing.View.id;
  if View.free_slots node.view >= 2 && degree node < config.view_size then begin
    (match View.random_empty_slot node.view rng with
    | Some slot -> View.set node.view slot message.reinforcement
    | None -> assert false);
    (match View.random_empty_slot node.view rng with
    | Some slot -> View.set node.view slot message.mixing
    | None -> assert false);
    Accepted
  end
  else begin
    node.deletions <- node.deletions + 1;
    Deleted
  end

(* Observation 5.1: outdegree stays within [dL, s] (starting states included)
   and even. *)
let invariant_holds config node =
  let d = degree node in
  d mod 2 = 0 && d >= 0 && d <= config.view_size
