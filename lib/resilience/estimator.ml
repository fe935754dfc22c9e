(* Online loss estimation from node-visible protocol signals.

   The paper's Lemma 6.6 balances the three per-send rates of a steady
   S&F system: duplication = loss + deletion.  Duplications and deletions
   are both *local* events — the sender knows when it duplicated (its
   outdegree sat at or below dL), the receiver knows when it deleted (its
   view was full) — while loss itself is invisible to everyone (the
   network model gives no feedback).  Inverting the balance therefore
   turns the two observable rates into a loss estimate:

     loss  ~=  duplications/sends - deletions/sends

   over a window of sends.  The estimator accumulates raw counter deltas
   until a window's worth of sends has been seen, folds the window's
   inverted rate into an EWMA, and exposes the smoothed estimate plus a
   confidence flag (at least one full window observed).  It consumes no
   randomness and performs O(1) work per observation, so attaching it to
   a driver cannot perturb an RNG stream.

   The churn correction — sends to departed slots and the out-of-band
   edge flux of joins, leaves and rebootstraps — and its derivation from
   the round-granular edge ledger are in estimator.mli; with every
   correction term zero the inversion is the bare Lemma 6.6 form. *)

type t = {
  window : int;       (* sends per estimation window *)
  smoothing : float;  (* EWMA weight of a fresh window in (0, 1] *)
  mutable acc_sends : int;
  mutable acc_duplications : int;
  mutable acc_deletions : int;
  mutable acc_to_dead : int;
  mutable acc_edges_added : int;
  mutable acc_edges_removed : int;
  mutable acc_edge_delta : int;  (* signed: overlays shrink in transients *)
  mutable estimate : float;
  mutable windows : int;  (* completed windows folded so far *)
}

let create ?(window = 2000) ?(smoothing = 0.3) () =
  if window <= 0 then invalid_arg "Estimator.create: window must be positive";
  if smoothing <= 0. || smoothing > 1. then
    invalid_arg "Estimator.create: smoothing must lie in (0, 1]";
  {
    window;
    smoothing;
    acc_sends = 0;
    acc_duplications = 0;
    acc_deletions = 0;
    acc_to_dead = 0;
    acc_edges_added = 0;
    acc_edges_removed = 0;
    acc_edge_delta = 0;
    estimate = 0.;
    windows = 0;
  }

(* A raw window inversion can stray outside [0, 1) through sampling noise
   (more deletions than duplications in a quiet window); the clamp keeps
   the estimate a valid loss probability. *)
let clamp x = Float.max 0. (Float.min 0.99 x)

let fold_window t =
  let sends = float_of_int t.acc_sends in
  (* The edge-flux terms enter halved: the ledger counts every edge
     twice per send-side event (a send moves edges in pairs). *)
  let churn_flux =
    float_of_int (t.acc_edges_added - t.acc_edges_removed - t.acc_edge_delta)
    /. 2.
  in
  let raw =
    clamp
      ((float_of_int (t.acc_duplications - t.acc_deletions - t.acc_to_dead)
       +. churn_flux)
      /. sends)
  in
  t.estimate <-
    (if t.windows = 0 then raw
     else ((1. -. t.smoothing) *. t.estimate) +. (t.smoothing *. raw));
  t.windows <- t.windows + 1;
  t.acc_sends <- 0;
  t.acc_duplications <- 0;
  t.acc_deletions <- 0;
  t.acc_to_dead <- 0;
  t.acc_edges_added <- 0;
  t.acc_edges_removed <- 0;
  t.acc_edge_delta <- 0

(* Feed counter *deltas* (not absolute totals) since the previous call.
   Several windows can complete in one large delta; each full window folds
   separately so the EWMA time constant is independent of the feeding
   cadence.  Every argument is required: an optional one would box on
   each call, and [Loop.tick] runs this once per driver firing. *)
let observe t ~sends ~duplications ~deletions ~to_dead ~churn_edges_added
    ~churn_edges_removed ~edge_delta =
  if sends < 0 || duplications < 0 || deletions < 0 || to_dead < 0
     || churn_edges_added < 0 || churn_edges_removed < 0
  then invalid_arg "Estimator.observe: negative delta";
  t.acc_sends <- t.acc_sends + sends;
  t.acc_duplications <- t.acc_duplications + duplications;
  t.acc_deletions <- t.acc_deletions + deletions;
  t.acc_to_dead <- t.acc_to_dead + to_dead;
  t.acc_edges_added <- t.acc_edges_added + churn_edges_added;
  t.acc_edges_removed <- t.acc_edges_removed + churn_edges_removed;
  t.acc_edge_delta <- t.acc_edge_delta + edge_delta;
  while t.acc_sends >= t.window do
    (* Attribute the overflow proportionally: fold the full window with a
       pro-rata share of the event deltas, keep the remainder accumulating.
       For the driver cadences in this tree (many small deltas per window)
       the remainder is tiny and the split is exact in expectation. *)
    let over = t.acc_sends - t.window in
    if over = 0 then fold_window t
    else begin
      let share x =
        if x >= 0 then x * t.window / t.acc_sends
        else -(-x * t.window / t.acc_sends)
      in
      let keep_dup = t.acc_duplications - share t.acc_duplications in
      let keep_del = t.acc_deletions - share t.acc_deletions in
      let keep_dead = t.acc_to_dead - share t.acc_to_dead in
      let keep_add = t.acc_edges_added - share t.acc_edges_added in
      let keep_rem = t.acc_edges_removed - share t.acc_edges_removed in
      let keep_edge = t.acc_edge_delta - share t.acc_edge_delta in
      t.acc_sends <- t.window;
      t.acc_duplications <- t.acc_duplications - keep_dup;
      t.acc_deletions <- t.acc_deletions - keep_del;
      t.acc_to_dead <- t.acc_to_dead - keep_dead;
      t.acc_edges_added <- t.acc_edges_added - keep_add;
      t.acc_edges_removed <- t.acc_edges_removed - keep_rem;
      t.acc_edge_delta <- t.acc_edge_delta - keep_edge;
      fold_window t;
      t.acc_sends <- over;
      t.acc_duplications <- keep_dup;
      t.acc_deletions <- keep_del;
      t.acc_to_dead <- keep_dead;
      t.acc_edges_added <- keep_add;
      t.acc_edges_removed <- keep_rem;
      t.acc_edge_delta <- keep_edge
    end
  done

let estimate t = t.estimate

let confident t = t.windows > 0

let windows t = t.windows
