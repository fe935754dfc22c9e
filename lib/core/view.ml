(* A local view: a fixed array of [s] slots, each empty or holding one id
   instance (section 2 of the paper).  Duplicate ids are allowed — the
   membership graph is a multigraph — and are accounted as dependencies.

   Each stored instance carries bookkeeping that realizes the paper's
   analysis concepts mechanically:
   - [serial]: a unique instance number, preserved when the instance is
     forwarded and fresh when an instance is created (reinforcement or
     duplication).  Instance decay (Lemma 6.9, Fig 6.4) and temporal
     independence (Property M5) are measured by following serials.
   - [anchor]: [Some a] when the instance was created by a duplication at
     node [a] and is therefore spatially dependent on [a]'s view (Property
     M4).  Forwarding an instance without duplication clears the anchor,
     matching the dependence MC of Fig 7.1.
   - [born]: creation stamp, for age statistics: the global action count
     in a single view or an action-stamped store ([create_rows]), the
     round number in a world store ([Flat.create]).

   Representation: one layout for every engine.  [Flat] packs the views
   of a whole world into contiguous columns; a single view is row 0 of a
   one-node [Flat] store, so the slot encoding (empty = id -1, anchor -1 =
   none), the cached degree and the empty-slot scan exist once. *)

type entry = {
  id : int;
  serial : int;
  anchor : int option;
  born : int;
}

(* --- Packed whole-world views ---

   The million-node simulation path cannot afford one heap object per
   node, let alone per entry.  [Flat] packs every view of an n-node world
   into contiguous columns of length [n * view_size], indexed by
   [node * view_size + slot], plus a per-node cached degree array.  A slot
   is empty when its id is -1; an anchor of -1 encodes "no anchor".

   Ids, anchors and born stamps are 32-bit lanes (int32 Bigarrays, 4 bytes
   a slot): ids and anchors are node slots below the store's capacity,
   born stamps are round numbers.  Serials stay a 63-bit [int array]: they
   are shard-strided mint counters that would overflow 32 bits within a
   few thousand rounds at 10^6 nodes.  An action-stamped store (a single
   view, or the UDP driver's owned nodes) keeps its born stamps, the
   unbounded action count of the sequential runner and the driver, in a
   63-bit [int array] too.  Every accessor takes and
   returns [int]; [set] range-checks before it writes, so nothing is
   truncated. *)

module Flat = struct
  (* A fully known lane type is what lets ocamlopt compile the accesses
     to inline, unboxed int32 loads and stores rather than calls into the
     generic Bigarray primitives. *)
  type lane = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  let lane len fill : lane =
    let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len in
    Bigarray.Array1.fill a (Int32.of_int fill);
    a

  let lane_get (a : lane) i = Int32.to_int (Bigarray.Array1.get a i)
  let lane_set (a : lane) i v = Bigarray.Array1.set a i (Int32.of_int v)

  (* Largest value a lane holds: 2^31 - 1. *)
  let lane_max = 0x7fffffff

  type store = {
    nodes : int;
    view_size : int;
    f_ids : lane;           (* nodes * view_size; -1 = empty *)
    f_serials : int array;
    f_anchors : lane;       (* -1 = no anchor *)
    f_born : lane;          (* round stamps; empty when action-stamped *)
    f_born_actions : int array;  (* action stamps *)
    degrees : int array;    (* per-node cached occupied-slot counts *)
    actions : bool;         (* born lives in [f_born_actions] *)
  }

  type t = store

  (* [actions]: the wide born column of action stamps in place of the
     lane. *)
  let alloc ~nodes ~view_size ~actions =
    let slots = nodes * view_size in
    {
      nodes;
      view_size;
      f_ids = lane slots (-1);
      f_serials = Array.make slots 0;
      f_anchors = lane slots (-1);
      f_born = lane (if actions then 0 else slots) 0;
      f_born_actions = Array.make (if actions then slots else 0) 0;
      degrees = Array.make nodes 0;
      actions;
    }

  let create ~nodes ~view_size =
    if nodes < 1 then invalid_arg "View.Flat.create: need at least one node";
    if nodes > lane_max then
      invalid_arg "View.Flat.create: node ids must fit a 32-bit lane";
    if view_size < 2 then invalid_arg "View.Flat.create: view_size must be at least 2";
    alloc ~nodes ~view_size ~actions:false

  let node_count t = t.nodes
  let view_size t = t.view_size
  let degree t u = t.degrees.(u)

  let id_at t u slot = lane_get t.f_ids ((u * t.view_size) + slot)
  let serial_at t u slot = t.f_serials.((u * t.view_size) + slot)
  let anchor_at t u slot = lane_get t.f_anchors ((u * t.view_size) + slot)
  let born_at t u slot =
    let i = (u * t.view_size) + slot in
    if t.actions then t.f_born_actions.(i) else lane_get t.f_born i

  let[@inline] fits t ~id ~anchor ~born =
    id >= 0 && id <= lane_max && anchor >= -1 && anchor <= lane_max
    && ((born >= 0 && born <= lane_max) || t.actions)

  let set t u slot ~id ~serial ~anchor ~born =
    if not (fits t ~id ~anchor ~born) then
      invalid_arg "View.Flat.set: instance outside its 32-bit lanes";
    let i = (u * t.view_size) + slot in
    if lane_get t.f_ids i < 0 then t.degrees.(u) <- t.degrees.(u) + 1;
    lane_set t.f_ids i id;
    t.f_serials.(i) <- serial;
    lane_set t.f_anchors i anchor;
    if t.actions then t.f_born_actions.(i) <- born else lane_set t.f_born i born

  let clear t u slot =
    let i = (u * t.view_size) + slot in
    if lane_get t.f_ids i >= 0 then begin
      lane_set t.f_ids i (-1);
      t.degrees.(u) <- t.degrees.(u) - 1
    end

  let clear_row t u =
    let d = t.degrees.(u) in
    if d > 0 then
      for slot = 0 to t.view_size - 1 do
        clear t u slot
      done;
    d

  (* Uniformly random empty slot of node [u]; -1 when the view is full.
     The receive step of S&F places ids in uniformly chosen empty
     entries. *)
  let random_empty_slot t u rng =
    let free = t.view_size - t.degrees.(u) in
    if free = 0 then -1
    else begin
      let base = u * t.view_size in
      (* A loop, not a local recursive function: its closure would be
         allocated on every receive. *)
      let slot = ref 0 and remaining = ref (Sf_prng.Rng.int rng free) in
      while lane_get t.f_ids (base + !slot) >= 0 || !remaining > 0 do
        if lane_get t.f_ids (base + !slot) < 0 then decr remaining;
        incr slot
      done;
      !slot
    end

  (* Uniformly random occupied slot of node [u] whose id is not
     [except], counted in ascending slot order; -1 when there is none.
     Two passes, count then pick: one [Rng.int] on success, none on
     failure, and no allocation. *)
  let random_occupied_slot t u rng ~except =
    let base = u * t.view_size in
    let count = ref 0 in
    for k = 0 to t.view_size - 1 do
      let id = lane_get t.f_ids (base + k) in
      if id >= 0 && id <> except then incr count
    done;
    if !count = 0 then -1
    else begin
      (* As in [random_empty_slot]: a loop allocates no closure. *)
      let remaining = ref (Sf_prng.Rng.int rng !count) and found = ref (-1) in
      let slot = ref 0 in
      while !found < 0 do
        let id = lane_get t.f_ids (base + !slot) in
        if id >= 0 && id <> except then
          if !remaining = 0 then found := !slot else decr remaining;
        incr slot
      done;
      !found
    end

  (* Recount of the occupied slots — the audit cross-check for the cached
     degree array. *)
  let recount_degree t u =
    let base = u * t.view_size in
    let occupied = ref 0 in
    for slot = 0 to t.view_size - 1 do
      if lane_get t.f_ids (base + slot) >= 0 then incr occupied
    done;
    !occupied

  let total_edges t = Array.fold_left ( + ) 0 t.degrees

  (* Structural equality compares Bigarrays element by element. *)
  let equal a b =
    a.nodes = b.nodes && a.view_size = b.view_size && a.f_ids = b.f_ids
    && a.f_serials = b.f_serials && a.f_anchors = b.f_anchors
    && a.f_born = b.f_born && a.f_born_actions = b.f_born_actions
    && a.degrees = b.degrees
end

(* --- A single view: row 0 of a one-node store --- *)

type t = Flat.t

let create_rows ~nodes size =
  if nodes < 1 then invalid_arg "View.create_rows: need at least one row";
  if size < 2 then invalid_arg "View.create: size must be at least 2";
  Flat.alloc ~nodes ~view_size:size ~actions:true

let create size = create_rows ~nodes:1 size

let grow_rows store ~nodes =
  let open Flat in
  if nodes < store.nodes then invalid_arg "View.grow_rows: a store cannot shrink";
  let g = alloc ~nodes ~view_size:store.view_size ~actions:store.actions in
  let slots = store.nodes * store.view_size in
  let copy_lane (src : lane) (dst : lane) =
    Bigarray.Array1.blit src (Bigarray.Array1.sub dst 0 (Bigarray.Array1.dim src))
  in
  copy_lane store.f_ids g.f_ids;
  copy_lane store.f_anchors g.f_anchors;
  copy_lane store.f_born g.f_born;
  Array.blit store.f_serials 0 g.f_serials 0 slots;
  Array.blit store.f_born_actions 0 g.f_born_actions 0
    (Array.length store.f_born_actions);
  Array.blit store.degrees 0 g.degrees 0 store.nodes;
  g

let copy_row store u =
  let v = create (Flat.view_size store) in
  for slot = 0 to Flat.view_size store - 1 do
    let id = Flat.id_at store u slot in
    if id >= 0 then
      Flat.set v 0 slot ~id ~serial:(Flat.serial_at store u slot)
        ~anchor:(Flat.anchor_at store u slot) ~born:(Flat.born_at store u slot)
  done;
  v

let size = Flat.view_size

(* d(u): the node's outdegree. *)
let degree t = Flat.degree t 0

let is_full t = degree t = size t

let id_at t i = Flat.id_at t 0 i

let anchor_int = function None -> -1 | Some a -> a

let entry_at store u slot =
  {
    id = Flat.id_at store u slot;
    serial = Flat.serial_at store u slot;
    anchor = (let a = Flat.anchor_at store u slot in if a < 0 then None else Some a);
    born = Flat.born_at store u slot;
  }

let set_entry store u slot entry =
  Flat.set store u slot ~id:entry.id ~serial:entry.serial
    ~anchor:(anchor_int entry.anchor) ~born:entry.born

let row_entries store u =
  let acc = ref [] in
  for slot = Flat.view_size store - 1 downto 0 do
    if Flat.id_at store u slot >= 0 then acc := entry_at store u slot :: !acc
  done;
  !acc

let get t i = if id_at t i < 0 then None else Some (entry_at t 0 i)

let set t i entry = set_entry t 0 i entry

let clear t i = Flat.clear t 0 i

let iter f t =
  for i = 0 to size t - 1 do
    match get t i with Some e -> f i e | None -> ()
  done

let fold f init t =
  let acc = ref init in
  iter (fun _ e -> acc := f !acc e) t;
  !acc

let ids t = List.rev (fold (fun acc e -> e.id :: acc) [] t)

let mem t id = fold (fun acc e -> acc || e.id = id) false t

let entries t = row_entries t 0

let clear_all t = ignore (Flat.clear_row t 0)
