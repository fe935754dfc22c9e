(* Peer-sampling service facade: the application-facing use of local views
   (paper, section 1) — applications continuously draw node-id samples for
   data dissemination, aggregation, or cache placement.  A sample is a
   uniformly random non-empty entry of the caller's current view; because
   S&F views are uniform and evolving, repeated samples approach fresh
   i.i.d. uniform ids (Properties M3-M5). *)

(* One random peer id from the node's view, excluding (by default) the node
   itself: self-samples are useless to applications.  The row draw
   allocates nothing: one [Rng.int] over the candidates. *)
let sample ?(allow_self = false) runner rng ~node_id =
  if not (Runner.is_live runner node_id) then None
  else begin
    let store = Runner.store runner in
    let slot =
      View.Flat.random_occupied_slot store node_id rng
        ~except:(if allow_self then -1 else node_id)
    in
    if slot < 0 then None else Some (View.Flat.id_at store node_id slot)
  end

(* [k] samples with replacement: exactly [k] independent draws.  A [None]
   draw (unknown node, or a view with no eligible id) contributes nothing
   but does not abort the remaining attempts — the historical behaviour
   returned early on the first failed draw, silently truncating the
   result below [k] with no signal. *)
let sample_many ?allow_self runner rng ~node_id ~k =
  let rec go remaining acc =
    if remaining <= 0 then acc
    else
      let acc =
        match sample ?allow_self runner rng ~node_id with
        | None -> acc
        | Some id -> id :: acc
      in
      go (remaining - 1) acc
  in
  go k []
