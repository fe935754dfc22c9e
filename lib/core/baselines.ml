(* Baseline gossip-membership protocols from the paper's taxonomy
   (section 3.1), holding their views as rows of one view store (row =
   node id) like the S&F engines, and read by the same census and
   overlay probe, so their behaviour under message loss can be
   contrasted with S&F:

   - [Shuffle] (flipper style, delete-on-send with a bidirectional
     exchange): creates no spatial dependence, but every lost request or
     reply destroys the ids it carried, so the edge count bleeds away under
     loss — the failure mode S&F's duplication mechanism repairs.
   - [Cyclon] (Voulgaris, Gavidia, van Steen): shuffle with age-based
     target selection — entries carry a birth stamp and each exchange
     targets the *oldest* entry, which doubles as failure detection:
     entries pointing at dead nodes are the ones that age, so they are
     purged first.  Measurable with [kill]/[revive] churn.
   - [Push_pull] (Lpbcast/Allavena style, keep-on-send): immune to loss —
     only copies travel — but every transfer leaves a correlated copy
     behind, accumulating exactly the spatial dependence S&F avoids.
   - [Push_only] (reinforcement-only): loss-immune and dependence-free, but
     it has no mixing component, so views stagnate; it is the "impractical"
     straw man the paper mentions.

   All baselines run in the sequential-action model (a uniformly random node
   initiates per action), matching how S&F is analyzed. *)

type kind =
  | Shuffle of { exchange_size : int }
  | Cyclon of { exchange_size : int }
  | Push_pull of { gossip_size : int }
  | Push_only

type t = {
  kind : kind;
  loss_rate : float;
  rng : Sf_prng.Rng.t;
  store : View.Flat.t;  (* row u is node u's view *)
  dead : bool array;  (* killed nodes drop all traffic; their rows are empty *)
  mutable next_serial : int;
  mutable actions : int;
}

let fresh_serial t =
  let s = t.next_serial in
  t.next_serial <- s + 1;
  s

let create ~seed ~n ~view_size ~loss_rate ~kind ~topology =
  let rng = Sf_prng.Rng.create seed in
  let t =
    {
      kind;
      loss_rate;
      rng;
      store = View.create_rows ~nodes:n view_size;
      dead = Array.make n false;
      next_serial = 0;
      actions = 0;
    }
  in
  for u = 0 to n - 1 do
    List.iter
      (fun v ->
        if View.Flat.degree t.store u = view_size then
          invalid_arg "Baselines.create: topology exceeds view size";
        View.Flat.insert t.store u t.rng ~id:v ~serial:(fresh_serial t) ~anchor:(-1) ~born:0)
      (topology u)
  done;
  t

let node_count t = Array.length t.dead

(* A message to [dst] survives the lossy channel with probability 1 - loss
   and only if the destination is alive. *)
let transmit t ~dst = not (Sf_prng.Rng.bernoulli t.rng t.loss_rate || t.dead.(dst))

(* Remove and return up to [k] uniformly chosen entries from row [u],
   one uniform draw over the remaining entries each. *)
let extract_random_entries t u k =
  let out = ref [] in
  for _ = 1 to min k (View.Flat.degree t.store u) do
    let slot = Sf_prng.Rng.int t.rng (View.Flat.degree t.store u) in
    out := View.entry_at t.store u slot :: !out;
    View.Flat.remove t.store u slot
  done;
  !out

(* Copy up to [k] uniformly chosen entries (without removing them). *)
let copy_random_entries t u k =
  let entries = Array.of_list (View.row_entries t.store u) in
  Sf_prng.Rng.shuffle t.rng entries;
  Array.to_list (Array.sub entries 0 (min k (Array.length entries)))

(* Install entries into empty slots, dropping the excess (shuffle semantics:
   the receiver freed slots by extracting its reply first). *)
let install_into_empty t u entries =
  List.iter
    (fun e ->
      if View.Flat.degree t.store u < View.Flat.view_size t.store then
        View.insert_entry t.store u t.rng e)
    entries

(* Install entries, overwriting uniformly random occupied slots when the
   view is full (push-pull merge semantics). *)
let install_with_replacement t u entries =
  List.iter
    (fun e ->
      let s = View.Flat.view_size t.store in
      if View.Flat.degree t.store u < s then View.insert_entry t.store u t.rng e
      else View.set_entry t.store u (Sf_prng.Rng.int t.rng s) e)
    entries

(* A uniformly random occupied slot of row [u], or -1. *)
let random_neighbor t u = View.Flat.random_occupied_slot t.store u t.rng ~except:(-1)

let own_instance t u = { View.id = u; serial = fresh_serial t; anchor = None; born = t.actions }

(* Mark a transferred copy as anchored at the sender, who retains the
   original — the dependence labelling shared with S&F's duplication. *)
let anchored_copy t sender entry =
  { entry with View.serial = fresh_serial t; anchor = Some sender; born = t.actions }

(* The slot of the oldest entry in row [u] (smallest birth stamp, the
   first in slot order on a tie), or -1 — Cyclon's target rule and
   failure detector. *)
let oldest_neighbor t u =
  let best = ref (-1) in
  for slot = 0 to View.Flat.degree t.store u - 1 do
    if !best < 0 || View.Flat.born_at t.store u slot < View.Flat.born_at t.store u !best
    then best := slot
  done;
  !best

let shuffle_action ?(oldest_first = false) t ~exchange_size initiator =
  let slot = if oldest_first then oldest_neighbor t initiator else random_neighbor t initiator in
  if slot >= 0 then begin
    let peer = View.Flat.id_at t.store initiator slot in
    if peer <> initiator then begin
      (* The initiator removes the target entry plus exchange_size - 1 other
         entries, and offers them together with its own id. *)
      View.Flat.remove t.store initiator slot;
      let extras = extract_random_entries t initiator (exchange_size - 1) in
      let request = own_instance t initiator :: extras in
      if transmit t ~dst:peer then begin
        (* Peer extracts its reply first, then installs the request. *)
        let reply = extract_random_entries t peer exchange_size in
        install_into_empty t peer request;
        if transmit t ~dst:initiator then install_into_empty t initiator reply
        (* Reply lost: the peer's extracted entries are gone and the
           initiator's freed slots stay empty — the id bleed of
           delete-on-send protocols under loss. *)
      end
      (* Request lost: the initiator's extracted entries are gone. *)
    end
  end

let push_pull_action t ~gossip_size initiator =
  let slot = random_neighbor t initiator in
  if slot >= 0 then begin
    let peer = View.Flat.id_at t.store initiator slot in
    if peer <> initiator then begin
      let offer =
        own_instance t initiator
        :: List.map (anchored_copy t initiator) (copy_random_entries t initiator gossip_size)
      in
      if transmit t ~dst:peer then begin
        install_with_replacement t peer offer;
        let reply =
          own_instance t peer
          :: List.map (anchored_copy t peer) (copy_random_entries t peer gossip_size)
        in
        if transmit t ~dst:initiator then install_with_replacement t initiator reply
      end
    end
  end

let push_only_action t initiator =
  let slot = random_neighbor t initiator in
  if slot >= 0 then begin
    let peer = View.Flat.id_at t.store initiator slot in
    if peer <> initiator && transmit t ~dst:peer then
      install_with_replacement t peer [ own_instance t initiator ]
  end

(* One sequential action by a uniformly random node. *)
let step t =
  t.actions <- t.actions + 1;
  let initiator = Sf_prng.Rng.int t.rng (node_count t) in
  if t.dead.(initiator) then ()
  else
    match t.kind with
    | Shuffle { exchange_size } -> shuffle_action t ~exchange_size initiator
    | Cyclon { exchange_size } -> shuffle_action ~oldest_first:true t ~exchange_size initiator
    | Push_pull { gossip_size } -> push_pull_action t ~gossip_size initiator
    | Push_only -> push_only_action t initiator

let run_rounds t rounds =
  for _ = 1 to rounds do
    for _ = 1 to node_count t do
      step t
    done
  done

(* --- Churn --- *)

(* A dead node's row is never read: it initiates nothing, a message to
   it is dropped before its view is touched, and [revive] refills it. *)
let kill t id =
  if id < 0 || id >= node_count t then invalid_arg "Baselines.kill";
  t.dead.(id) <- true;
  ignore (View.Flat.clear_row t.store id)

(* Revive a previously killed node as a fresh incarnation: empty view
   re-seeded with up to [bootstrap] entries copied from a random live
   node. *)
let revive t id ~bootstrap =
  if id < 0 || id >= node_count t then invalid_arg "Baselines.revive";
  t.dead.(id) <- false;
  ignore (View.Flat.clear_row t.store id);
  let live =
    List.init (node_count t) Fun.id
    |> List.filter (fun u -> (not t.dead.(u)) && u <> id && View.Flat.degree t.store u > 0)
  in
  match live with
  | [] -> ()
  | _ ->
    let donor = Sf_prng.Rng.choose t.rng (Array.of_list live) in
    List.iteri
      (fun i (e : View.entry) ->
        if i < bootstrap then
          View.insert_entry t.store id t.rng
            { e with View.serial = fresh_serial t; born = t.actions })
      (View.row_entries t.store donor)

let is_dead t id = t.dead.(id)

(* Fraction of view entries across live nodes that point at dead nodes —
   the staleness Cyclon's age rule is designed to purge. *)
let dead_entry_fraction t =
  let total = ref 0 and stale = ref 0 in
  for u = 0 to node_count t - 1 do
    for slot = 0 to View.Flat.degree t.store u - 1 do
      incr total;
      if t.dead.(View.Flat.id_at t.store u slot) then incr stale
    done
  done;
  if !total = 0 then 0. else float_of_int !stale /. float_of_int !total

(* --- Measurement: {!Properties} reads the store, row u = node u --- *)

let total_instances t = View.Flat.total_edges t.store
let store t = t.store
