(* The two-dimensional degree Markov chain of section 6.2.

   The chain tracks the (outdegree d, indegree din) of one tagged node u as
   global S&F actions execute.  Three event families touch u's state; their
   rates (per global action, dropping the common 1/n factor) and effects:

   A. u initiates and draws two non-empty slots — rate d(d-1) / (s(s-1)).
      The entries are cleared (d -= 2) unless d = dL (duplication, d
      unchanged); if the message survives loss (prob 1 - loss) and the
      receiver is not full (prob 1 - p_full), the receiver adds u's own id
      (din += 1).

   B. An in-neighbor v initiates and draws u's entry as the message target
      (plus another non-empty slot) — rate din * r_edge, where r_edge is
      the per-in-edge probability that its holder fires it as a target.
      The edge (v,u) is cleared (din -= 1) unless v duplicated (prob
      q_dup); if the message survives loss, u installs both carried ids
      (d += 2) unless u's view is full (d = s: deletion, d unchanged).

   C. An in-neighbor v initiates and draws u's entry as the forwarded id —
      rate din * r_edge again by symmetry.  The edge (v,u) is cleared
      (din -= 1) unless v duplicated; a new edge (z,u) appears (din += 1)
      if the message survives loss and the destination z is not full.

   The transition probabilities depend on the stationary degree
   distribution itself — p_full, q_dup and r_edge are functionals of it —
   so, exactly as the paper prescribes, we iterate: guess a distribution,
   build the chain, solve for its stationary distribution (sparse power
   iteration rather than the paper's dense matrix squaring — the same fixed
   point, much cheaper), and repeat until the distributions agree.

   Sender statistics are size-biased: a random in-edge of u lives at a node
   sampled with probability proportional to its outdegree, and fires with
   probability proportional to (outdegree - 1).  The paper makes the same
   observation in Lemma 6.9.  The [`Uniform] weighting disables this for
   the ablation bench.

   Following the paper, sum degrees are capped at [sum_degree_cap] (default
   3s) — transitions that would exceed the cap become self-loops — and
   transitions into the isolated state (0,0) also become self-loops, the
   treatment section 7.1 applies to partitioned states. *)

type weighting = Size_biased | Uniform

type params = {
  view_size : int;       (* s *)
  lower_threshold : int; (* dL *)
  loss : float;          (* message loss probability *)
  sum_degree_cap : int;  (* states with d + 2 din above this are removed *)
  weighting : weighting;
}

let make_params ?(sum_degree_cap = -1) ?(weighting = Size_biased) ~view_size
    ~lower_threshold ~loss () =
  if view_size < 2 || view_size mod 2 <> 0 then
    invalid_arg "Degree_mc.make_params: view_size must be even and >= 2";
  if lower_threshold < 0 || lower_threshold mod 2 <> 0 || lower_threshold > view_size
  then invalid_arg "Degree_mc.make_params: bad lower threshold";
  if loss < 0. || loss >= 1. then
    invalid_arg "Degree_mc.make_params: loss must lie in [0,1)";
  let sum_degree_cap = if sum_degree_cap <= 0 then 3 * view_size else sum_degree_cap in
  { view_size; lower_threshold; loss; sum_degree_cap; weighting }

(* --- State indexing ---------------------------------------------------- *)

type state_space = {
  p : params;
  states : (int * int) array;  (* index -> (d, din) *)
  index : (int * int, int) Hashtbl.t;
  count : int;
}

let build_state_space p =
  let states = ref [] in
  let d = ref p.lower_threshold in
  while !d <= p.view_size do
    let max_din = (p.sum_degree_cap - !d) / 2 in
    for din = 0 to max_din do
      if not (!d = 0 && din = 0) then states := (!d, din) :: !states
    done;
    d := !d + 2
  done;
  let states = Array.of_list (List.rev !states) in
  let index = Hashtbl.create (2 * Array.length states) in
  Array.iteri (fun i st -> Hashtbl.replace index st i) states;
  { p; states; index; count = Array.length states }

(* --- Distribution-dependent inputs ------------------------------------- *)

type chain_inputs = {
  p_full : float;   (* probability a message's receiver has a full view *)
  q_dup : float;    (* probability the holder of a fired in-edge duplicates *)
  r_edge : float;   (* per-in-edge firing rate (as target; same as forwarded) *)
}

(* Compute the inputs from a joint distribution over the state space. *)
let inputs_of_distribution space dist =
  let p = space.p in
  let s = float_of_int p.view_size in
  (* Outdegree moments under the plain marginal. *)
  let e_d = ref 0. and e_dd1 = ref 0. and mass_dup_fire = ref 0. in
  (* In-edge-weighted receiver statistics: a message's receiver is reached
     through one of its in-edges, so weight states by din. *)
  let in_mass = ref 0. and in_mass_full = ref 0. in
  Array.iteri
    (fun i (d, din) ->
      let w = dist.(i) in
      let fd = float_of_int d in
      e_d := !e_d +. (w *. fd);
      e_dd1 := !e_dd1 +. (w *. fd *. (fd -. 1.));
      if d = p.lower_threshold then
        mass_dup_fire := !mass_dup_fire +. (w *. fd *. (fd -. 1.));
      let fdin = float_of_int din in
      in_mass := !in_mass +. (w *. fdin);
      if d = p.view_size then in_mass_full := !in_mass_full +. (w *. fdin))
    space.states;
  match p.weighting with
  | Size_biased ->
    let r_edge =
      if !e_d <= 0. then 0. else !e_dd1 /. (!e_d *. s *. (s -. 1.))
    in
    let q_dup = if !e_dd1 <= 0. then 0. else !mass_dup_fire /. !e_dd1 in
    let p_full = if !in_mass <= 0. then 0. else !in_mass_full /. !in_mass in
    { p_full; q_dup; r_edge }
  | Uniform ->
    (* Naive model: senders and receivers distributed as a uniformly random
       node, ignoring the edge-weighted selection bias. *)
    let mass_d = Array.make (p.view_size + 1) 0. in
    Array.iteri (fun i (d, _) -> mass_d.(d) <- mass_d.(d) +. dist.(i)) space.states;
    let total = Array.fold_left ( +. ) 0. mass_d in
    let norm x = if total <= 0. then 0. else x /. total in
    let e_d1 = ref 0. in
    Array.iteri (fun d m -> e_d1 := !e_d1 +. (norm m *. float_of_int (max 0 (d - 1)))) mass_d;
    {
      p_full = norm mass_d.(p.view_size);
      q_dup = norm mass_d.(p.lower_threshold);
      r_edge = !e_d1 /. (s *. (s -. 1.));
    }

(* --- Chain construction ------------------------------------------------ *)

(* Sparse transition structure in CSR form plus per-state self-loop mass. *)
type chain = {
  offsets : int array;       (* length count+1 *)
  targets : int array;
  probs : float array;
  self : float array;        (* P(x,x) *)
}

let build_chain space inputs =
  let p = space.p in
  let s = float_of_int p.view_size in
  let loss = p.loss in
  let count = space.count in
  (* First pass: collect (target, rate) lists per state. *)
  let rows = Array.make count [] in
  let total_rate = Array.make count 0. in
  let add_transition i (d', din') rate =
    if rate > 0. then begin
      let target =
        if d' + (2 * din') > p.sum_degree_cap then i       (* cap: self-loop *)
        else if d' = 0 && din' = 0 then i                  (* isolated: self-loop *)
        else
          match Hashtbl.find_opt space.index (d', din') with
          | Some j -> j
          | None -> i
      in
      rows.(i) <- (target, rate) :: rows.(i);
      total_rate.(i) <- total_rate.(i) +. rate
    end
  in
  Array.iteri
    (fun i (d, din) ->
      let fd = float_of_int d and fdin = float_of_int din in
      (* Case A: u initiates with two non-empty slots. *)
      let w_a = fd *. (fd -. 1.) /. (s *. (s -. 1.)) in
      if w_a > 0. then begin
        let dup = d = p.lower_threshold in
        let p_gain = (1. -. loss) *. (1. -. inputs.p_full) in
        let d' = if dup then d else d - 2 in
        add_transition i (d', din + 1) (w_a *. p_gain);
        add_transition i (d', din) (w_a *. (1. -. p_gain))
      end;
      (* Cases B and C: one of u's din in-edges fires. *)
      let w_edge = fdin *. inputs.r_edge in
      if w_edge > 0. then begin
        let q = inputs.q_dup in
        (* B: u is the message target. *)
        let d_recv = if d < p.view_size then d + 2 else d (* full: deletion *) in
        add_transition i (d_recv, din - 1) (w_edge *. (1. -. loss) *. (1. -. q));
        add_transition i (d_recv, din) (w_edge *. (1. -. loss) *. q);
        add_transition i (d, din - 1) (w_edge *. loss *. (1. -. q));
        add_transition i (d, din) (w_edge *. loss *. q);
        (* C: u's id is the forwarded payload. *)
        let p_arrive = (1. -. loss) *. (1. -. inputs.p_full) in
        add_transition i (d, din) (w_edge *. p_arrive *. (1. -. q));
        add_transition i (d, din + 1) (w_edge *. p_arrive *. q);
        add_transition i (d, din - 1) (w_edge *. (1. -. p_arrive) *. (1. -. q));
        add_transition i (d, din) (w_edge *. (1. -. p_arrive) *. q)
      end)
    space.states;
  (* Uniformize: divide all rates by the maximal total rate, putting the
     remainder on the diagonal.  This preserves the stationary distribution
     while making rows stochastic. *)
  let lambda = Array.fold_left Float.max 1e-9 total_rate in
  let self = Array.make count 0. in
  let sizes = Array.map List.length rows in
  let offsets = Array.make (count + 1) 0 in
  for i = 0 to count - 1 do
    offsets.(i + 1) <- offsets.(i) + sizes.(i)
  done;
  let nnz = offsets.(count) in
  let targets = Array.make nnz 0 in
  let probs = Array.make nnz 0. in
  Array.iteri
    (fun i cells ->
      let base = ref offsets.(i) in
      let off_diagonal = ref 0. in
      List.iter
        (fun (j, rate) ->
          let pr = rate /. lambda in
          if j = i then self.(i) <- self.(i) +. pr
          else begin
            targets.(!base) <- j;
            probs.(!base) <- pr;
            incr base;
            off_diagonal := !off_diagonal +. pr
          end)
        cells;
      (* Remainder of the uniformization mass stays put. *)
      self.(i) <- self.(i) +. (1. -. (total_rate.(i) /. lambda));
      (* Unused tail of the row (self-loop cells skipped): shrink by leaving
         zero-probability placeholders pointing at i. *)
      for k = !base to offsets.(i + 1) - 1 do
        targets.(k) <- i;
        probs.(k) <- 0.
      done)
    rows;
  { offsets; targets; probs; self }

let chain_step chain src dst =
  let count = Array.length chain.self in
  Array.fill dst 0 count 0.;
  for i = 0 to count - 1 do
    let pi = src.(i) in
    if pi > 0. then begin
      dst.(i) <- dst.(i) +. (pi *. chain.self.(i));
      for k = chain.offsets.(i) to chain.offsets.(i + 1) - 1 do
        let pr = chain.probs.(k) in
        if pr > 0. then begin
          let j = chain.targets.(k) in
          dst.(j) <- dst.(j) +. (pi *. pr)
        end
      done
    end
  done

let solve_stationary ?(tolerance = 1e-12) ?(max_iterations = 400_000) chain initial =
  let count = Array.length chain.self in
  let a = Array.copy initial in
  let b = Array.make count 0. in
  let rec go src dst k =
    chain_step chain src dst;
    let delta = ref 0. in
    for i = 0 to count - 1 do
      delta := !delta +. Float.abs (dst.(i) -. src.(i))
    done;
    if !delta < tolerance || k >= max_iterations then (dst, k, !delta)
    else go dst src (k + 1)
  in
  (* Check distributions every step; swap buffers. *)
  let dist, iters, residual = go a b 1 in
  (dist, iters, residual)

(* --- Fixed point ------------------------------------------------------- *)

type result = {
  params : params;
  states : (int * int) array;
  joint : float array;
  outdegree : Sf_stats.Pmf.t;
  indegree : Sf_stats.Pmf.t;
  inputs : chain_inputs;
  duplication_probability : float;  (* per send, in the fixed point *)
  deletion_probability : float;     (* per send *)
  outer_iterations : int;
  converged : bool;
}

let marginals space dist =
  let p = space.p in
  let out_mass = Array.make (p.view_size + 1) 0. in
  let max_din =
    Array.fold_left (fun acc (_, din) -> max acc din) 0 space.states
  in
  let in_mass = Array.make (max_din + 1) 0. in
  Array.iteri
    (fun i (d, din) ->
      out_mass.(d) <- out_mass.(d) +. dist.(i);
      in_mass.(din) <- in_mass.(din) +. dist.(i))
    space.states;
  ( Sf_stats.Pmf.create ~offset:0 out_mass |> Sf_stats.Pmf.normalize,
    Sf_stats.Pmf.create ~offset:0 in_mass |> Sf_stats.Pmf.normalize )

(* Duplication probability per send: the share of case-A firings that occur
   at d = dL, under the converged joint distribution. *)
let duplication_probability_of space dist =
  let p = space.p in
  let fire_total = ref 0. and fire_dup = ref 0. in
  Array.iteri
    (fun i (d, _) ->
      let fd = float_of_int d in
      let w = dist.(i) *. fd *. (fd -. 1.) in
      fire_total := !fire_total +. w;
      if d = p.lower_threshold then fire_dup := !fire_dup +. w)
    space.states;
  if !fire_total <= 0. then 0. else !fire_dup /. !fire_total

let solve ?(initial_state : (int * int) option) ?(outer_tolerance = 1e-10)
    ?(max_outer_iterations = 300) ?(stationary_tolerance = 1e-12) params =
  let space = build_state_space params in
  let initial =
    let dist = Array.make space.count 0. in
    let st =
      match initial_state with
      | Some st -> st
      | None ->
        (* A mid-range starting state: outdegree between dL and s, indegree
           equal to it (sum degree 3d). *)
        let d =
          let mid = (params.lower_threshold + params.view_size) / 2 in
          if mid mod 2 = 0 then mid else mid + 1
        in
        (d, d)
    in
    (match Hashtbl.find_opt space.index st with
    | Some i -> dist.(i) <- 1.
    | None -> invalid_arg "Degree_mc.solve: initial state outside state space");
    dist
  in
  (* Damped fixed-point iteration: the raw map dist -> stationary(chain(dist))
     oscillates between regimes (the duplication and deletion feedbacks have
     opposite signs), so successive iterates are averaged, which is a
     standard stabilization and preserves the fixed point. *)
  let damping = 0.5 in
  let rec iterate dist k =
    let inputs = inputs_of_distribution space dist in
    let chain = build_chain space inputs in
    let solved, _, _ = solve_stationary ~tolerance:stationary_tolerance chain dist in
    let delta = ref 0. in
    Array.iteri (fun i x -> delta := !delta +. Float.abs (x -. dist.(i))) solved;
    if !delta < outer_tolerance || k >= max_outer_iterations then
      (solved, inputs, k, !delta < outer_tolerance)
    else begin
      let mixed =
        Array.mapi (fun i x -> (damping *. x) +. ((1. -. damping) *. dist.(i))) solved
      in
      iterate mixed (k + 1)
    end
  in
  let joint, _, outer_iterations, converged = iterate initial 1 in
  (* Recompute inputs at the fixed point for reporting. *)
  let inputs = inputs_of_distribution space joint in
  let outdegree, indegree = marginals space joint in
  {
    params;
    states = space.states;
    joint;
    outdegree;
    indegree;
    inputs;
    duplication_probability = duplication_probability_of space joint;
    deletion_probability = (1. -. params.loss) *. inputs.p_full;
    outer_iterations;
    converged;
  }

(* Export the fixed-point chain as a generic [Sf_markov.Chain.t] so the
   mixing diagnostics can run on it. *)
let to_chain result =
  let space = build_state_space result.params in
  let chain = build_chain space result.inputs in
  Sf_markov.Chain.of_rows ~size:space.count (fun i ->
      let cells = ref [ (i, chain.self.(i)) ] in
      for k = chain.offsets.(i) to chain.offsets.(i + 1) - 1 do
        if chain.probs.(k) > 0. then cells := (chain.targets.(k), chain.probs.(k)) :: !cells
      done;
      !cells)

(* Restrict the outdegree marginal to its even support (the odd slots carry
   zero mass; removing them makes TVD comparisons against the analytic
   distribution meaningful). *)
let even_outdegree result =
  Sf_stats.Pmf.condition result.outdegree (fun d -> d mod 2 = 0)
