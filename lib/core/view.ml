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
   - [born]: global action count at creation, for age statistics.

   Representation: four parallel unboxed int arrays (ids, serials, anchors,
   born stamps) instead of the former [entry option array].  A slot is
   empty when its id is -1; an anchor of -1 encodes [None].  Nothing is
   boxed per entry, so a view of s slots is exactly four s-word arrays —
   the same encoding {!Flat} packs contiguously for whole worlds. *)

type entry = {
  id : int;
  serial : int;
  anchor : int option;
  born : int;
}

type t = {
  ids : int array;      (* -1 = empty slot *)
  serials : int array;
  anchors : int array;  (* -1 = no anchor *)
  born : int array;
  mutable filled : int;  (* cached count of non-empty slots *)
}

let create size =
  if size < 2 then invalid_arg "View.create: size must be at least 2";
  {
    ids = Array.make size (-1);
    serials = Array.make size 0;
    anchors = Array.make size (-1);
    born = Array.make size 0;
    filled = 0;
  }

let size t = Array.length t.ids

let degree t = t.filled
(* d(u): the node's outdegree. *)

let is_full t = t.filled = Array.length t.ids

let id_at t i = t.ids.(i)

let get t i =
  let id = t.ids.(i) in
  if id < 0 then None
  else
    Some
      {
        id;
        serial = t.serials.(i);
        anchor = (let a = t.anchors.(i) in if a < 0 then None else Some a);
        born = t.born.(i);
      }

let set t i entry =
  if entry.id < 0 then invalid_arg "View.set: negative id";
  if t.ids.(i) < 0 then t.filled <- t.filled + 1;
  t.ids.(i) <- entry.id;
  t.serials.(i) <- entry.serial;
  t.anchors.(i) <- (match entry.anchor with None -> -1 | Some a -> a);
  t.born.(i) <- entry.born

let clear t i =
  if t.ids.(i) >= 0 then begin
    t.ids.(i) <- -1;
    t.filled <- t.filled - 1
  end

let free_slots t = Array.length t.ids - t.filled

(* Uniformly random empty slot; the receive step of S&F places ids in
   uniformly chosen empty entries. *)
let random_empty_slot t rng =
  let free = free_slots t in
  if free = 0 then None
  else begin
    let target = Sf_prng.Rng.int rng free in
    let rec scan i remaining =
      if t.ids.(i) < 0 then
        if remaining = 0 then i else scan (i + 1) (remaining - 1)
      else scan (i + 1) remaining
    in
    Some (scan 0 target)
  end

let iter f t =
  for i = 0 to Array.length t.ids - 1 do
    match get t i with Some e -> f i e | None -> ()
  done

let fold f init t =
  let acc = ref init in
  iter (fun _ e -> acc := f !acc e) t;
  !acc

let ids t = List.rev (fold (fun acc e -> e.id :: acc) [] t)

let mem t id = fold (fun acc e -> acc || e.id = id) false t

let count_id t id = fold (fun acc e -> if e.id = id then acc + 1 else acc) 0 t

let entries t = List.rev (fold (fun acc e -> e :: acc) [] t)

let clear_all t =
  Array.fill t.ids 0 (Array.length t.ids) (-1);
  t.filled <- 0

let pp ppf t =
  Fmt.pf ppf "[";
  for i = 0 to size t - 1 do
    if i > 0 then Fmt.pf ppf " ";
    if t.ids.(i) < 0 then Fmt.pf ppf "." else Fmt.pf ppf "%d" t.ids.(i)
  done;
  Fmt.pf ppf "]"

(* --- Packed whole-world views ---

   The million-node simulation path (ROADMAP item 1) cannot afford one
   heap object per node, let alone per entry.  [Flat] packs every view of
   an n-node world into contiguous columns of length [n * view_size],
   indexed by [node * view_size + slot], plus a per-node cached degree
   array.  The encoding matches the single-view layout above: id -1 =
   empty slot, anchor -1 = no anchor.

   Ids, anchors and born stamps are 32-bit lanes (int32 Bigarrays, 4 bytes
   a slot): ids and anchors are node slots below the store's capacity,
   born stamps are round numbers.  Serials stay a 63-bit [int array]: they
   are shard-strided mint counters that would overflow 32 bits within a
   few thousand rounds at 10^6 nodes.  Every accessor takes and returns
   [int]; [set] range-checks before it writes, so nothing is truncated. *)

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
    f_born : lane;
    degrees : int array;    (* per-node cached occupied-slot counts *)
  }

  type t = store

  let create ~nodes ~view_size =
    if nodes < 1 then invalid_arg "View.Flat.create: need at least one node";
    if nodes > lane_max then
      invalid_arg "View.Flat.create: node ids must fit a 32-bit lane";
    if view_size < 2 then invalid_arg "View.Flat.create: view_size must be at least 2";
    {
      nodes;
      view_size;
      f_ids = lane (nodes * view_size) (-1);
      f_serials = Array.make (nodes * view_size) 0;
      f_anchors = lane (nodes * view_size) (-1);
      f_born = lane (nodes * view_size) 0;
      degrees = Array.make nodes 0;
    }

  let node_count t = t.nodes
  let view_size t = t.view_size
  let degree t u = t.degrees.(u)

  let id_at t u slot = lane_get t.f_ids ((u * t.view_size) + slot)
  let serial_at t u slot = t.f_serials.((u * t.view_size) + slot)
  let anchor_at t u slot = lane_get t.f_anchors ((u * t.view_size) + slot)
  let born_at t u slot = lane_get t.f_born ((u * t.view_size) + slot)

  let set t u slot ~id ~serial ~anchor ~born =
    if id < 0 || id > lane_max then
      invalid_arg "View.Flat.set: id outside [0, 2^31)";
    if anchor < -1 || anchor > lane_max then
      invalid_arg "View.Flat.set: anchor outside [-1, 2^31)";
    if born < 0 || born > lane_max then
      invalid_arg "View.Flat.set: born outside [0, 2^31)";
    let i = (u * t.view_size) + slot in
    if lane_get t.f_ids i < 0 then t.degrees.(u) <- t.degrees.(u) + 1;
    lane_set t.f_ids i id;
    t.f_serials.(i) <- serial;
    lane_set t.f_anchors i anchor;
    lane_set t.f_born i born

  let clear t u slot =
    let i = (u * t.view_size) + slot in
    if lane_get t.f_ids i >= 0 then begin
      lane_set t.f_ids i (-1);
      t.degrees.(u) <- t.degrees.(u) - 1
    end

  (* Uniformly random empty slot of node [u]; -1 when the view is full.
     Allocation-free: same selection law as {!random_empty_slot}. *)
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
    && a.f_born = b.f_born && a.degrees = b.degrees
end
