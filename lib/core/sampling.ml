(* Peer-sampling service facade: the application-facing use of local views
   (paper, section 1) — applications continuously draw node-id samples for
   data dissemination, aggregation, or cache placement.  A sample is a
   uniformly random non-empty entry of the caller's current view; because
   S&F views are uniform and evolving, repeated samples approach fresh
   i.i.d. uniform ids (Properties M3-M5). *)

(* One random peer id from the node's view, excluding (by default) the node
   itself: self-samples are useless to applications.

   Allocation-free two-pass scan over the view slots: count the candidates,
   draw one index, walk to it.  This replaces a list-then-array build per
   draw — an allocation storm on the facade a traffic harness hammers with
   millions of requests.  The scan walks slots from
   the highest down and the single [Rng.int] draw has the same bound as
   the old [Rng.choose] over the fold-reversed candidate list, so the RNG
   stream and the returned ids are bit-for-bit those of the historical
   implementation (asserted by an equal-seed test). *)
let sample ?(allow_self = false) runner rng ~node_id =
  if not (Runner.is_live runner node_id) then None
  else begin
    let store = Runner.store runner in
    let last = View.Flat.view_size store - 1 in
    let candidates = ref 0 in
    for i = 0 to last do
      let id = View.Flat.id_at store node_id i in
      if id >= 0 && (allow_self || id <> node_id) then incr candidates
    done;
    if !candidates = 0 then None
    else begin
      let skip = ref (Sf_prng.Rng.int rng !candidates) in
      let result = ref (-1) in
      let i = ref last in
      while !result < 0 do
        let id = View.Flat.id_at store node_id !i in
        if id >= 0 && (allow_self || id <> node_id) then
          if !skip = 0 then result := id else decr skip;
        decr i
      done;
      Some !result
    end
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

(* Samples interleaved with protocol progress: draw one sample per node per
   [rounds_between] rounds, accumulating per-id counts over the whole
   system.  This is the workload of statistics-gathering applications, and
   the distribution of the counts measures sampling uniformity end-to-end. *)
let sampling_census runner rng ~samples_per_node ~rounds_between =
  let counts = Hashtbl.create 1024 in
  for _ = 1 to samples_per_node do
    Runner.run_rounds runner rounds_between;
    Array.iter
      (fun node_id ->
        match sample runner rng ~node_id with
        | None -> ()
        | Some id ->
          Hashtbl.replace counts id (1 + Option.value ~default:0 (Hashtbl.find_opt counts id)))
      (Runner.live_ids runner)
  done;
  counts
