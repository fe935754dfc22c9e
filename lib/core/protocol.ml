(* Send & Forget (S&F), Figure 5.1 of the paper.

   An *action* is split into two *steps*, each atomic at one node:

   - [initiate] at u: select two distinct view slots uniformly at random; if
     either is empty nothing happens (a self-loop transformation).
     Otherwise, with v and w the ids in the slots, send the message [u, w]
     to v, then clear both slots unless d(u) has reached the lower threshold
     [dL], in which case the entries are *duplicated* (kept).
   - [receive] at v: place both received ids into uniformly chosen empty
     slots, unless they do not both fit within the view size s, in which
     case both are *deleted*.  Rows are packed ([View.Flat.insert]): an
     id takes a uniform position among the entries, which is the same
     law, because initiate draws its slot pair uniformly.

   The sender never learns whether its message arrived: loss sits between
   the two steps, exactly as in the paper's non-atomic action model.

   The rule is written once, as a kernel over one row of a [View.Flat]
   store ([initiate_row], [receive_row]): the sequential runner and the
   sharded engine run it on their world stores, the UDP driver on its
   owned rows. *)

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

let start_degree config ~n =
  let d = min (n - 1) ((config.view_size + config.lower_threshold) / 2) in
  max 2 (d land lnot 1)

type message = {
  reinforcement : View.entry;  (* the sender's own id, [u] in [u, w] *)
  mixing : View.entry;         (* the forwarded id, [w] in [u, w] *)
}

(* --- The step kernel over one row of a View.Flat store ---

   Every engine runs these two functions: [Runner] and [Runner.Sharded]
   on their world stores, the UDP driver on its owned rows.  Both are
   allocation-free. *)

type row_message = {
  mutable duplicated : bool;
  mutable r_id : int;
  mutable r_serial : int;
  mutable r_anchor : int;
  mutable r_born : int;
  mutable m_id : int;
  mutable m_serial : int;
  mutable m_anchor : int;
  mutable m_born : int;
}

let row_message () =
  { duplicated = false; r_id = -1; r_serial = 0; r_anchor = -1; r_born = 0;
    m_id = -1; m_serial = 0; m_anchor = -1; m_born = 0 }

let initiate_row rng store u ~owner ~dl ~born ~mint msg =
  let size = View.Flat.view_size store in
  let i = Sf_prng.Rng.int rng size in
  let j = Sf_prng.Rng.other rng size i in
  let target = View.Flat.id_at store u i in
  let forwarded = View.Flat.id_at store u j in
  if target < 0 || forwarded < 0 then -1
  else begin
    let duplicated = View.Flat.degree store u <= dl in
    msg.duplicated <- duplicated;
    msg.m_id <- forwarded;
    (* The forwarded instance moves with its serial and born stamp; read
       them before the slots are cleared. *)
    msg.m_serial <- View.Flat.serial_at store u j;
    msg.m_born <- View.Flat.born_at store u j;
    if not duplicated then begin
      (* The higher slot first, so the lower one's entry does not move. *)
      View.Flat.remove store u (max i j);
      View.Flat.remove store u (min i j)
    end;
    (* Reinforcement instance: always a brand-new instance of the
       sender's own id. *)
    msg.r_id <- owner;
    msg.r_serial <- mint ();
    msg.r_born <- born;
    if duplicated then begin
      (* The receiver gets a fresh copy of the forwarded id while the
         sender keeps its own, and both instances are anchored at the
         sender: exactly the spatial dependence the paper's edge
         labelling charges to duplication. *)
      msg.m_serial <- mint ();
      msg.m_born <- born;
      msg.r_anchor <- owner;
      msg.m_anchor <- owner
    end
    else begin
      (* Forwarded without duplication, the instance loses its anchor:
         the dependence MC (Fig 7.1) moves it to the independent state. *)
      msg.r_anchor <- -1;
      msg.m_anchor <- -1
    end;
    target
  end

let row_fits store msg =
  View.Flat.fits store ~id:msg.r_id ~anchor:msg.r_anchor ~born:msg.r_born
  && View.Flat.fits store ~id:msg.m_id ~anchor:msg.m_anchor ~born:msg.m_born

let receive_row rng store u msg =
  (* Check both before writing either, or a refusal could leave odd degree. *)
  if not (row_fits store msg) then
    invalid_arg "Protocol.receive_row: instance outside the store's lanes";
  (* Both ids must fit within s. *)
  if View.Flat.view_size store - View.Flat.degree store u >= 2 then begin
    View.Flat.insert store u rng ~id:msg.r_id ~serial:msg.r_serial ~anchor:msg.r_anchor
      ~born:msg.r_born;
    View.Flat.insert store u rng ~id:msg.m_id ~serial:msg.m_serial ~anchor:msg.m_anchor
      ~born:msg.m_born;
    true
  end
  else false

(* --- The install rule: every view filled from ids rather than by a
   receive, appended in order (the interface says why that loses
   nothing) --- *)

(* Not a local closure: joins are hot on the sharded engine. *)
let put store u k ~id ~anchor ~born ~mint =
  View.Flat.set store u k ~id ~serial:(mint ()) ~anchor ~born

let install_ids store u ids ~born ~mint =
  if Array.length ids > View.Flat.view_size store then
    invalid_arg "Protocol.install_ids: more ids than view slots";
  ignore (View.Flat.clear_row store u);
  for k = 0 to Array.length ids - 1 do
    put store u k ~id:ids.(k) ~anchor:(-1) ~born ~mint
  done

let install_copy store u ~owner ~donor ~from ~from_row ~dl ~live ~born ~mint =
  ignore (View.Flat.clear_row store u);
  let target = min (max 2 dl) (View.Flat.view_size store land lnot 1) in
  put store u 0 ~id:donor ~anchor:donor ~born ~mint;
  let installed = ref 1 and k = ref 0 in
  while !installed < target && !k < View.Flat.view_size from do
    let id = View.Flat.id_at from from_row !k in
    if id >= 0 && id <> owner && live id then begin
      put store u !installed ~id ~anchor:donor ~born ~mint;
      incr installed
    end;
    incr k
  done;
  (* Section 6.5's joiner starts at outdegree dL: a thin donor is padded
     with its own id, to an even count (Observation 5.1). *)
  while !installed < target do
    put store u !installed ~id:donor ~anchor:donor ~born ~mint;
    incr installed
  done;
  !installed
