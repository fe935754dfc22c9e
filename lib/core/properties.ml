(* Monitors for the membership-service properties of section 2.

   M1 (small views) is a configuration fact; the monitors here measure the
   behavioural properties on live systems:

   - M2 load balance: the variance of node indegrees.
   - M3 uniformity: appearance counts of each id across views, accumulated
     over well-spaced snapshots, tested against uniformity by chi-square.
   - M4 spatial independence: a census of dependent view entries.  An entry
     is counted dependent when it is a self-edge, an instance anchored by a
     duplication (see {!View}), or a redundant parallel instance (the
     second and later copies of the same id in a view).  This is the
     mechanical union of the paper's dependence labels, so the resulting
     fraction is a conservative over-estimate of dependence.
   - M5 temporal independence: the fraction of instances surviving from a
     reference snapshot, which decays as views evolve. *)

(* [f owner id serial] for every entry of every live view: live ids in
   increasing order, then slot order. *)
let iter_entries runner f =
  let store = Runner.store runner in
  Array.iter
    (fun u ->
      for slot = 0 to View.Flat.view_size store - 1 do
        let id = View.Flat.id_at store u slot in
        if id >= 0 then f u id (View.Flat.serial_at store u slot)
      done)
    (Runner.live_ids runner)

(* Instances of each id (the store's row index) across live views. *)
let indegrees runner =
  let counts = Array.make (View.Flat.node_count (Runner.store runner)) 0 in
  iter_entries runner (fun _ id _ -> counts.(id) <- counts.(id) + 1);
  counts

(* M2: summary of live-node indegrees; the load-balance property holds when
   the variance stays bounded as the system runs. *)
let indegree_summary runner =
  let counts = indegrees runner in
  let summary = Sf_stats.Summary.create () in
  Array.iter
    (fun u -> Sf_stats.Summary.add_int summary counts.(u))
    (Runner.live_ids runner);
  summary

let outdegree_samples runner =
  Array.map (View.Flat.degree (Runner.store runner)) (Runner.live_ids runner)

let outdegree_summary runner =
  let summary = Sf_stats.Summary.create () in
  Array.iter (Sf_stats.Summary.add_int summary) (outdegree_samples runner);
  summary

let indegree_samples runner =
  let counts = indegrees runner in
  Array.map (fun u -> counts.(u)) (Runner.live_ids runner)

(* M3: accumulate per-id appearance counts over [snapshots] spaced
   [actions_between] global actions apart, then chi-square them against the
   uniform expectation.  Self-appearances are excluded: Lemma 7.6 proves
   uniformity only over v <> u.  Counts are indexed by position among the
   ids live at the start. *)
let uniformity_test runner ~snapshots ~actions_between =
  let live = Runner.live_ids runner in
  let index = Array.make (View.Flat.node_count (Runner.store runner)) (-1) in
  Array.iteri (fun i u -> index.(u) <- i) live;
  let counts = Array.make (Array.length live) 0. in
  for _ = 1 to snapshots do
    Runner.run_actions runner actions_between;
    iter_entries runner (fun u id _ ->
        if id <> u && id < Array.length index && index.(id) >= 0 then
          counts.(index.(id)) <- counts.(index.(id)) +. 1.)
  done;
  (counts, Sf_stats.Hypothesis.chi_square_uniform counts)

(* M4: dependence census, delegated to the generic {!Census} so the same
   labelling applies to baseline protocols.  Row [u] of the store is node
   [u]'s view, and departed nodes' rows are empty. *)
let independence_census runner = Census.of_flat (Runner.store runner)

(* M5: snapshot the serial numbers of all current instances, then report the
   fraction still present after each block of rounds.  Under temporal
   independence this decays geometrically; Lemma 6.9 bounds the per-round
   survival by 1 - (1-loss-delta) dL / s^2. *)
let overlap_decay runner ~blocks ~rounds_per_block =
  let snapshot = Hashtbl.create 4096 in
  iter_entries runner (fun _ _ serial -> Hashtbl.replace snapshot serial ());
  let initial = Hashtbl.length snapshot in
  let fraction_surviving () =
    if initial = 0 then 0.
    else begin
      let surviving = ref 0 in
      iter_entries runner (fun _ _ serial ->
          if Hashtbl.mem snapshot serial then incr surviving);
      float_of_int !surviving /. float_of_int initial
    end
  in
  let points = ref [ (0, 1.) ] in
  for b = 1 to blocks do
    Runner.run_rounds runner rounds_per_block;
    points := (b * rounds_per_block, fraction_surviving ()) :: !points
  done;
  List.rev !points

(* Weak connectivity of the live overlay (edges to departed ids are
   ignored: they cannot carry messages). *)
let is_weakly_connected runner = Overlay.connected (Runner.probe runner)
