(* The protocol optimizations sketched (and deferred) at the end of the
   paper's section 5, implemented as a parameterized S&F so their effect can
   be measured:

   1. *Mark-and-undelete*: instead of clearing sent entries, mark them; a
      marked entry does not count toward the outdegree and may be
      overwritten by received ids, but when the outdegree hits dL the node
      *undeletes* marked entries instead of duplicating.  Undeletion
      resurrects original instances, so it compensates loss without
      creating anchored copies — the dependence cost of duplication
      disappears.
   2. *Replace-when-full*: a full receiver overwrites two uniformly chosen
      occupied slots instead of deleting the received ids, trading deletion
      loss for faster mixing.
   3. *Batching*: each message carries the sender's id plus [batch] ids
      from the view (clearing or marking batch + 1 entries), reducing the
      message count per exchanged id.

   With all options off and batch = 1, the dynamics coincide with the
   standard S&F of {!Protocol} (a qcheck test enforces this).  The
   simulator is sequential-action and holds its world as rows of a view
   store, row = node id, mirroring {!Baselines}; the census and the
   overlay probe read that store directly. *)

type options = {
  mark_and_undelete : bool;
  replace_when_full : bool;
  batch : int;  (* forwarded ids per message, >= 1 *)
}

let standard = { mark_and_undelete = false; replace_when_full = false; batch = 1 }

(* Unmarked instances live in [store], so its degree is the outdegree;
   marked ones move to [marked], a second store of the same shape.  Both
   are packed, and a row's unmarked and marked entries together fit its
   [s] slots: the marked ones stand for the slots they were sent from. *)
type t = {
  options : options;
  lower_threshold : int;
  loss_rate : float;
  rng : Sf_prng.Rng.t;
  store : View.Flat.t;   (* row u: node u's unmarked instances *)
  marked : View.Flat.t;  (* row u: node u's marked instances *)
  slots : int array;  (* a permutation of the slot indices; [initiate]
                         draws its slots into the prefix *)
  mutable next_serial : int;
  mutable actions : int;
  mutable sends : int;
  mutable losses : int;
  mutable duplications : int;
  mutable undeletions : int;
  mutable deletions : int;
}

let fresh_serial t =
  let s = t.next_serial in
  t.next_serial <- s + 1;
  s

let create ~seed ~n ~view_size ~lower_threshold ~loss_rate ~options ~topology =
  if options.batch < 1 then invalid_arg "Variants.create: batch must be >= 1";
  let rng = Sf_prng.Rng.create seed in
  let t =
    {
      options;
      lower_threshold;
      loss_rate;
      rng;
      store = View.create_rows ~nodes:n view_size;
      marked = View.create_rows ~nodes:n view_size;
      slots = Array.init view_size Fun.id;
      next_serial = 0;
      actions = 0;
      sends = 0;
      losses = 0;
      duplications = 0;
      undeletions = 0;
      deletions = 0;
    }
  in
  for u = 0 to n - 1 do
    Protocol.install_ids t.store u (Array.of_list (topology u)) ~born:0
      ~mint:(fun () -> fresh_serial t)
  done;
  t

let node_count t = View.Flat.node_count t.store
let view_size t = View.Flat.view_size t.store
let degree t u = View.Flat.degree t.store u

(* Install one entry at the receiver, honoring the replace-when-full
   option, or delete it. *)
let install t u entry =
  let free = view_size t - degree t u in
  if free > 0 then begin
    (* A marked entry is logically deleted, and its slot may be
       overwritten: the entry lands on one of the [free] slots not
       holding an unmarked id, so it evicts a uniform marked entry when
       that slot is one of the marked ones. *)
    let k = Sf_prng.Rng.int t.rng free in
    if k < View.Flat.degree t.marked u then View.Flat.remove t.marked u k;
    View.insert_entry t.store u t.rng entry
  end
  else if t.options.replace_when_full then
    View.set_entry t.store u (Sf_prng.Rng.int t.rng (view_size t)) entry
  else t.deletions <- t.deletions + 1

let initiate t u =
  let needed = t.options.batch + 1 in
  (* The action needs a target plus [batch] payload ids; drawing any empty
     slot aborts the action, which for batch = 1 reproduces the standard
     two-slot selection (slot pairs are drawn without replacement, so
     drawing "needed" distinct slots and requiring all non-empty matches
     S&F when needed = 2). *)
  let chosen = min needed (view_size t) and slots = t.slots in
  (* A partial Fisher-Yates shuffle: [chosen] distinct uniform slots,
     drawn into the prefix of the slot permutation. *)
  let all_occupied = ref true in
  for i = 0 to chosen - 1 do
    let j = i + Sf_prng.Rng.int t.rng (view_size t - i) in
    let slot = slots.(j) in
    slots.(j) <- slots.(i);
    slots.(i) <- slot;
    if View.Flat.id_at t.store u slot < 0 then all_occupied := false
  done;
  if (not !all_occupied) || degree t u < needed then ()
  else begin
    let target = View.Flat.id_at t.store u slots.(0) in
    let payload = List.init t.options.batch (fun k -> View.entry_at t.store u slots.(k + 1)) in
    let at_threshold = degree t u <= t.lower_threshold in
    let compensated =
      if at_threshold && t.options.mark_and_undelete then begin
        (* Undelete: recover marked originals instead of duplicating. *)
        for slot = 0 to View.Flat.degree t.marked u - 1 do
          View.set_entry t.store u (degree t u) (View.entry_at t.marked u slot)
        done;
        t.undeletions <- t.undeletions + View.Flat.clear_row t.marked u;
        (* After undeletion the entries are still sent; clear or keep per
           the refreshed degree. *)
        degree t u <= t.lower_threshold
      end
      else at_threshold
    in
    let sent_payload =
      if compensated then begin
        t.duplications <- t.duplications + 1;
        (* Duplication: the receiver gets anchored copies. *)
        List.map
          (fun (e : View.entry) -> { e with View.serial = fresh_serial t; anchor = Some u })
          payload
      end
      else begin
        (* Clear (or mark) the sent entries, the highest slot first. *)
        let sent = Array.sub slots 0 chosen in
        Array.sort (fun a b -> compare b a) sent;
        Array.iter
          (fun i ->
            if t.options.mark_and_undelete then
              View.set_entry t.marked u (View.Flat.degree t.marked u)
                (View.entry_at t.store u i);
            View.Flat.remove t.store u i)
          sent;
        List.map (fun (e : View.entry) -> { e with View.anchor = None }) payload
      end
    in
    let reinforcement =
      let anchor = if compensated then Some u else None in
      { View.id = u; serial = fresh_serial t; anchor; born = t.actions }
    in
    t.sends <- t.sends + 1;
    if Sf_prng.Rng.bernoulli t.rng t.loss_rate then t.losses <- t.losses + 1
    else List.iter (install t target) (reinforcement :: sent_payload)
  end

let step t =
  t.actions <- t.actions + 1;
  initiate t (Sf_prng.Rng.int t.rng (node_count t))

let run_rounds t rounds =
  for _ = 1 to rounds do
    for _ = 1 to node_count t do
      step t
    done
  done

(* --- Measurement: the main store holds exactly the unmarked entries --- *)

let store t = t.store

type counters = {
  actions : int;
  sends : int;
  losses : int;
  duplications : int;
  undeletions : int;
  deletions : int;
}

let counters (t : t) =
  {
    actions = t.actions;
    sends = t.sends;
    losses = t.losses;
    duplications = t.duplications;
    undeletions = t.undeletions;
    deletions = t.deletions;
  }
