(* Monitors for the membership-service properties of section 2.

   M1 (small views) is a configuration fact; the monitors here measure the
   behavioural properties on live systems:

   - M2 load balance: the variance of node indegrees.
   - M3 uniformity: appearance counts of each id across views, accumulated
     over well-spaced snapshots, tested against uniformity by chi-square.
   - M4 spatial independence: {!Census.of_flat} over the same store.
   - M5 temporal independence: the fraction of instances surviving from a
     reference snapshot, which decays as views evolve.

   The snapshot monitors take an engine's store and its liveness, row u
   = node u; M3 and M5 drive a runner. *)

(* [f owner id serial] for every entry of every live row: rows in
   increasing order, then slot order. *)
let iter_entries store ~live f =
  for u = 0 to View.Flat.node_count store - 1 do
    if live u then
      for slot = 0 to View.Flat.degree store u - 1 do
        f u (View.Flat.id_at store u slot) (View.Flat.serial_at store u slot)
      done
  done

(* [f u] of each live row [u], in row order. *)
let map_live store ~live f =
  Seq.init (View.Flat.node_count store) Fun.id |> Seq.filter live |> Seq.map f
  |> Array.of_seq

let outdegree_samples store ~live = map_live store ~live (View.Flat.degree store)

(* Instances of each row's id across live rows. *)
let indegree_samples store ~live =
  let counts = Array.make (View.Flat.node_count store) 0 in
  iter_entries store ~live (fun _ id _ ->
      if id < Array.length counts then counts.(id) <- counts.(id) + 1);
  map_live store ~live (fun u -> counts.(u))

let outdegree_summary store ~live =
  Sf_stats.Summary.of_int_array (outdegree_samples store ~live)

(* M2: the load-balance property holds when the variance stays bounded
   as the system runs. *)
let indegree_summary store ~live =
  Sf_stats.Summary.of_int_array (indegree_samples store ~live)

(* Edges to rows that are not live cannot carry messages. *)
let is_weakly_connected store ~live =
  let forest = Overlay.forest (View.Flat.node_count store) in
  Overlay.connected (Overlay.probe forest store ~live)

let runner_entries runner =
  iter_entries (Runner.store runner) ~live:(Runner.is_live runner)

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
    runner_entries runner (fun u id _ ->
        if id <> u && id < Array.length index && index.(id) >= 0 then
          counts.(index.(id)) <- counts.(index.(id)) +. 1.)
  done;
  (counts, Sf_stats.Hypothesis.chi_square_uniform counts)

(* M5: snapshot the serial numbers of all current instances, then report the
   fraction still present after each block of rounds.  Under temporal
   independence this decays geometrically; Lemma 6.9 bounds the per-round
   survival by 1 - (1-loss-delta) dL / s^2. *)
let overlap_decay runner ~blocks ~rounds_per_block =
  let snapshot = Hashtbl.create 4096 in
  runner_entries runner (fun _ _ serial -> Hashtbl.replace snapshot serial ());
  let initial = Hashtbl.length snapshot in
  let fraction_surviving () =
    if initial = 0 then 0.
    else begin
      let surviving = ref 0 in
      runner_entries runner (fun _ _ serial ->
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
