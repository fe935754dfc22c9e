(* Churn experiments (paper, section 6.5): how fast do ids of departed nodes
   decay out of views (Lemma 6.10, Fig 6.4), and how fast does a joiner
   build representation (Lemmas 6.11-6.13, Corollary 6.14)? *)

(* Remove [victim] (or a random live node) and track the number of instances
   of its id remaining in live views after each round.  Returns the trace
   including round 0 (the count at the instant of departure). *)
let leave_decay runner ?victim ~rounds () =
  let victim_id =
    match victim with
    | Some id -> id
    | None -> Runner.random_live_id runner
  in
  if not (Runner.remove_node runner victim_id) then
    invalid_arg "Churn.leave_decay: victim not live";
  let trace = Array.make (rounds + 1) 0 in
  trace.(0) <- Runner.count_id_instances runner victim_id;
  for r = 1 to rounds do
    Runner.run_rounds runner 1;
    trace.(r) <- Runner.count_id_instances runner victim_id
  done;
  (victim_id, trace)

(* Average several independent leave-decay traces into survival fractions
   (instances remaining / instances at departure), resampling a fresh victim
   per repetition from the same running system. *)
let leave_decay_fractions runner ~repetitions ~rounds =
  let sums = Array.make (rounds + 1) 0. in
  let used = ref 0 in
  for _ = 1 to repetitions do
    let _, trace = leave_decay runner ~rounds () in
    if trace.(0) > 0 then begin
      incr used;
      let base = float_of_int trace.(0) in
      Array.iteri (fun i c -> sums.(i) <- sums.(i) +. (float_of_int c /. base)) trace
    end
  done;
  if !used = 0 then invalid_arg "Churn.leave_decay_fractions: no usable victims";
  Array.map (fun x -> x /. float_of_int !used) sums

type join_trace = {
  joiner : int;
  instances : int array;   (* instances of the joiner's id, per round *)
  out_degrees : int array; (* the joiner's outdegree, per round *)
}

(* Add a node by the paper's joining rule ([Runner.add_node]: a copy of a
   live donor's view) and track its integration. *)
let join_integration runner ~rounds =
  let joiner = Runner.add_node runner in
  let instances = Array.make (rounds + 1) 0 in
  let out_degrees = Array.make (rounds + 1) 0 in
  let record r =
    instances.(r) <- Runner.count_id_instances runner joiner;
    out_degrees.(r) <-
      (if Runner.is_live runner joiner then
         View.Flat.degree (Runner.store runner) joiner
       else 0)
  in
  record 0;
  for r = 1 to rounds do
    Runner.run_rounds runner 1;
    record r
  done;
  { joiner; instances; out_degrees }

(* Continuous-churn driver: every round, [leaves] random nodes depart and
   [joins] new nodes arrive (each copying a live donor's view).  Used to check
   that the protocol keeps the graph connected and balanced under sustained
   membership change.  With [recover] set, isolated nodes (whose neighbors
   have all departed) run the section 5 reconnection rule each round
   ([Runner.reconnect_isolated]); the return value counts the reconnection
   attempts made. *)
let run_with_churn ?(recover = false) runner ~rounds ~joins ~leaves =
  let attempts =
    Sf_obs.Metrics.counter
      (Sf_obs.Obs.metrics (Runner.obs runner))
      "churn_recovery_attempts"
  in
  let reconnections = ref 0 in
  for _ = 1 to rounds do
    for _ = 1 to leaves do
      if Runner.live_count runner > 2 * (joins + leaves) then begin
        ignore (Runner.remove_node runner (Runner.random_live_id runner))
      end
    done;
    for _ = 1 to joins do
      ignore (Runner.add_node runner)
    done;
    if recover then begin
      let repaired = Runner.reconnect_isolated runner in
      reconnections := !reconnections + repaired;
      Sf_obs.Metrics.add attempts repaired
    end;
    Runner.run_rounds runner 1
  done;
  !reconnections

(* After a long partition the overlay can split permanently: cross-partition
   view entries decay to nothing while the cut holds, and the section 5
   reconnection rule cannot bridge it afterwards — the seen-ids cache is
   small and recency-ordered, so by then it only holds same-side ids.  The
   paper's remedy is the other half of the joining rule: an out-of-band
   rendezvous ("copy another node's view").  Each round this driver runs
   [Runner.rebootstrap_minorities], then one protocol round to spread the
   new edges. *)
let recover_connectivity ?(max_rounds = 50) runner =
  let rec go rounds rebootstraps =
    if Sf_graph.Digraph.is_weakly_connected (Runner.membership_graph runner) then
      Some (rounds, rebootstraps)
    else if rounds >= max_rounds then None
    else begin
      let rebootstrapped = Runner.rebootstrap_minorities runner in
      Runner.run_rounds runner 1;
      go (rounds + 1) (rebootstraps + rebootstrapped)
    end
  in
  go 0 0
