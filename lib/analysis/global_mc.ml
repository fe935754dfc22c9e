(* The global Markov chain on membership graphs (paper, section 7.1),
   constructed exactly for small systems.

   States are global view assignments: node i's view is a sorted multiset
   of ids (slot positions are irrelevant to the dynamics because slots are
   selected uniformly).  Transitions enumerate every S&F transformation:
   the initiator, the ordered pair of ids drawn (weighted by multiplicity),
   the duplication decision, the loss branch, and the receiver's
   accept/delete step.  Following section 7.1, transitions into partitioned
   membership graphs are redirected to self-loops.

   On this exact chain the paper's structural results can be checked
   mechanically:
   - Lemma 7.1 / A.2: the reachable chain is strongly connected (ergodic).
   - Lemma 7.5: with no loss and dL = 0 the stationary distribution is
     uniform over the reachable sum-degree class.
   - Lemma 7.6: in the steady state every id v <> u is equally likely to
     appear in u's view.
   State counts grow brutally with n and s; n = 3, s = 6 is comfortable. *)

type params = {
  n : int;
  view_size : int;
  lower_threshold : int;
  loss : float;
}

(* A state: per node, the sorted list of ids in its view. *)
type state = int list list

(* --- Multiset operations on sorted id lists --- *)

let rec remove_one id = function
  | [] -> invalid_arg "Global_mc.remove_one: id not present"
  | x :: rest -> if x = id then rest else x :: remove_one id rest

let rec insert_sorted id = function
  | [] -> [ id ]
  | x :: rest as l -> if id <= x then id :: l else x :: insert_sorted id rest

let count_id id view = List.length (List.filter (( = ) id) view)

(* --- Connectivity of a state --- *)

let is_weakly_connected_state ~n state =
  let g = Sf_graph.Digraph.create () in
  for u = 0 to n - 1 do
    Sf_graph.Digraph.ensure_vertex g u
  done;
  List.iteri (fun u view -> List.iter (fun v -> Sf_graph.Digraph.add_edge g u v) view) state;
  Sf_graph.Digraph.is_weakly_connected g

(* --- Transition enumeration --- *)

(* All (successor, probability) pairs from [state]; probabilities sum to 1
   (noop selections contribute an explicit self-loop mass).  [connected]
   decides whether a successor is weakly connected; partitioned successors
   are folded into the self-loop. *)
let transitions_with ~connected p (state : state) =
  let s = float_of_int p.view_size in
  let pair_denominator = s *. (s -. 1.) in
  let successors = Hashtbl.create 32 in
  let add st prob =
    if prob > 0. then
      Hashtbl.replace successors st
        (prob +. Option.value ~default:0. (Hashtbl.find_opt successors st))
  in
  let state_array = Array.of_list state in
  let per_initiator = 1. /. float_of_int p.n in
  Array.iteri
    (fun u view ->
      let d = List.length view in
      (* Probability that the two selected slots are both non-empty and hold
         (target = a, forwarded = b), summed over slot choices. *)
      let distinct_ids = List.sort_uniq compare view in
      let nonempty_pair_mass = ref 0. in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let ca = count_id a view and cb = count_id b view in
              let ways =
                if a = b then float_of_int (ca * (ca - 1)) else float_of_int (ca * cb)
              in
              let p_select = ways /. pair_denominator in
              if p_select > 0. then begin
                nonempty_pair_mass := !nonempty_pair_mass +. p_select;
                let duplicated = d <= p.lower_threshold in
                let sender_view =
                  if duplicated then view else remove_one a (remove_one b view)
                in
                let with_sender =
                  Array.mapi (fun i w -> if i = u then sender_view else w) state_array
                in
                (* Loss branch: the message vanishes. *)
                let lost_state = Array.to_list with_sender in
                add lost_state (per_initiator *. p_select *. p.loss);
                (* Delivery branch: receiver a installs [u; b] or deletes. *)
                let recv_view = with_sender.(a) in
                let delivered_state =
                  if List.length recv_view <= p.view_size - 2 then begin
                    let recv_view' = insert_sorted u (insert_sorted b recv_view) in
                    Array.to_list
                      (Array.mapi
                         (fun i w -> if i = a then recv_view' else w)
                         with_sender)
                  end
                  else Array.to_list with_sender (* full view: deletion *)
                in
                add delivered_state (per_initiator *. p_select *. (1. -. p.loss))
              end)
            distinct_ids)
        distinct_ids;
      (* Self-loop from selections touching an empty slot. *)
      add state (per_initiator *. (1. -. !nonempty_pair_mass)))
    state_array;
  (* Redirect transitions into partitioned states to the self-loop (paper,
     section 7.1), summed into its one entry so no successor is listed
     twice.  [connected] memoizes the connectivity predicate — BFS
     exploration reaches the same successor states many times. *)
  let self = ref 0. in
  let moves =
    Hashtbl.fold
      (fun st prob acc ->
        if st <> state && connected st then (st, prob) :: acc
        else begin
          self := !self +. prob;
          acc
        end)
      successors []
  in
  if !self > 0. then (state, !self) :: moves else moves

let transitions p state =
  transitions_with ~connected:(is_weakly_connected_state ~n:p.n) p state

(* --- Exploration --- *)

type result = {
  params : params;
  states : state array;
  chain : Sf_markov.Chain.t;
  stationary : float array;
  is_ergodic : bool;
  stationary_max_min_ratio : float;
  (* edge_probability.(u).(v) = P(v in u.lv) under the stationary
     distribution, counting presence (not multiplicity). *)
  edge_probability : float array array;
  mean_entries : float;           (* expected total non-empty entries *)
  self_edge_fraction : float;     (* expected self-edge share of entries *)
  parallel_fraction : float;      (* expected parallel-surplus share *)
}

exception Too_many_states of int

let explore ?(max_states = 500_000) p ~initial =
  if List.length initial <> p.n then invalid_arg "Global_mc.explore: bad initial state";
  List.iter
    (fun view ->
      if List.length view > p.view_size then
        invalid_arg "Global_mc.explore: initial view too large";
      List.iter
        (fun v ->
          if v < 0 || v >= p.n then invalid_arg "Global_mc.explore: bad id in view")
        view)
    initial;
  let initial = List.map (List.sort compare) initial in
  if not (is_weakly_connected_state ~n:p.n initial) then
    invalid_arg "Global_mc.explore: initial state not weakly connected";
  (* BFS over reachable states. *)
  let index = Hashtbl.create 4096 in
  let states = ref [] in
  let count = ref 0 in
  let edges = ref [] in
  let queue = Queue.create () in
  let intern st =
    match Hashtbl.find_opt index st with
    | Some i -> i
    | None ->
      let i = !count in
      if i >= max_states then raise (Too_many_states i);
      Hashtbl.replace index st i;
      states := st :: !states;
      incr count;
      Queue.push (st, i) queue;
      i
  in
  let connectivity_cache = Hashtbl.create 4096 in
  let connected st =
    match Hashtbl.find_opt connectivity_cache st with
    | Some b -> b
    | None ->
      let b = is_weakly_connected_state ~n:p.n st in
      Hashtbl.replace connectivity_cache st b;
      b
  in
  ignore (intern initial);
  while not (Queue.is_empty queue) do
    let st, i = Queue.pop queue in
    List.iter
      (fun (st', prob) ->
        let j = intern st' in
        edges := (i, j, prob) :: !edges)
      (transitions_with ~connected p st)
  done;
  let states = Array.of_list (List.rev !states) in
  let chain = Sf_markov.Chain.of_weighted_edges ~size:(Array.length states) !edges in
  let is_ergodic = Sf_markov.Chain.is_ergodic chain in
  let { Sf_markov.Chain.distribution = stationary; _ } =
    Sf_markov.Chain.stationary ~tolerance:1e-13 chain
  in
  let ratio =
    let mx = Array.fold_left Float.max neg_infinity stationary in
    let mn = Array.fold_left Float.min infinity stationary in
    if mn <= 0. then infinity else mx /. mn
  in
  (* Stationary-averaged edge probabilities and dependence fractions. *)
  let edge_probability = Array.make_matrix p.n p.n 0. in
  let mean_entries = ref 0. in
  let self_edges = ref 0. in
  let parallel = ref 0. in
  Array.iteri
    (fun i st ->
      let w = stationary.(i) in
      List.iteri
        (fun u view ->
          mean_entries := !mean_entries +. (w *. float_of_int (List.length view));
          self_edges := !self_edges +. (w *. float_of_int (count_id u view));
          let distinct = List.sort_uniq compare view in
          List.iter
            (fun v ->
              edge_probability.(u).(v) <- edge_probability.(u).(v) +. w;
              let c = count_id v view in
              if c > 1 then parallel := !parallel +. (w *. float_of_int (c - 1)))
            distinct)
        st)
    states;
  {
    params = p;
    states;
    chain;
    stationary;
    is_ergodic;
    stationary_max_min_ratio = ratio;
    edge_probability;
    mean_entries = !mean_entries;
    self_edge_fraction = (if !mean_entries > 0. then !self_edges /. !mean_entries else 0.);
    parallel_fraction = (if !mean_entries > 0. then !parallel /. !mean_entries else 0.);
  }

(* Lemma 7.5 refined.  On the exact chain, the stationary distribution is
   uniform over membership graphs with *distinguishable* id instances: the
   probability of a multigraph is proportional to the number of distinct
   orderings of its edge multiset, i.e. 1 / prod_(u,v) m_uv! up to the
   global factor.  (The paper's Lemma 7.5 counts transformations per slot
   pair, which is exactly instance-labeled counting; projecting onto
   unlabeled multigraphs weights each state by its realization count.)
   [labeled_uniformity_ratio] is max/min over states of
   pi(G) * prod m_uv! — exactly 1 when the refined law holds. *)
let multiplicity_correction (st : state) =
  let factorial k =
    let rec go acc k = if k <= 1 then acc else go (acc *. float_of_int k) (k - 1) in
    go 1. k
  in
  List.fold_left
    (fun acc view ->
      let distinct = List.sort_uniq compare view in
      List.fold_left (fun acc v -> acc *. factorial (count_id v view)) acc distinct)
    1. st

let labeled_uniformity_ratio result =
  let mx = ref neg_infinity and mn = ref infinity in
  Array.iteri
    (fun i st ->
      let x = result.stationary.(i) *. multiplicity_correction st in
      if x > !mx then mx := x;
      if x < !mn then mn := x)
    result.states;
  if !mn <= 0. then infinity else !mx /. !mn

(* Spread of off-diagonal edge probabilities: max/min over u <> v — Lemma
   7.6 predicts a ratio of 1 (exact uniformity). *)
let edge_probability_spread result =
  let n = result.params.n in
  let mx = ref neg_infinity and mn = ref infinity in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then begin
        let x = result.edge_probability.(u).(v) in
        if x > !mx then mx := x;
        if x < !mn then mn := x
      end
    done
  done;
  if !mn <= 0. then infinity else !mx /. !mn
