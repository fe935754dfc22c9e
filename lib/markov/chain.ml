(* Finite Markov chains with sparse row-stochastic transition matrices.

   The paper's analyses are all phrased as Markov chains: the global MC on
   membership graphs (section 7.1), the 2-D degree MC (section 6.2) and the
   two-state dependence MC (section 7.4).  This module provides the generic
   machinery: construction from weighted edges, ergodicity checks
   (irreducibility via Tarjan, aperiodicity via the cycle-gcd criterion),
   stationary distributions by power iteration, and step-distance
   diagnostics used for temporal-independence measurements. *)

type t = {
  size : int;
  (* rows.(i) lists (j, p) with p > 0; each row sums to 1. *)
  rows : (int * float) array array;
}

let size t = t.size

(* Build from possibly-duplicated weighted edges; rows are accumulated and
   normalized. Rows with no outgoing weight get a self-loop (absorbing). *)
let of_weighted_edges ~size edges =
  let tables = Array.init size (fun _ -> Hashtbl.create 8) in
  List.iter
    (fun (i, j, w) ->
      if i < 0 || i >= size || j < 0 || j >= size then
        invalid_arg "Chain.of_weighted_edges: vertex out of range";
      if w < 0. then invalid_arg "Chain.of_weighted_edges: negative weight";
      if w > 0. then
        let tbl = tables.(i) in
        Hashtbl.replace tbl j (w +. Option.value ~default:0. (Hashtbl.find_opt tbl j)))
    edges;
  let rows =
    Array.mapi
      (fun i tbl ->
        let total = Hashtbl.fold (fun _ w acc -> acc +. w) tbl 0. in
        if total <= 0. then [| (i, 1.) |]
        else begin
          let cells =
            Hashtbl.fold (fun j w acc -> (j, w /. total) :: acc) tbl []
          in
          let arr = Array.of_list cells in
          Array.sort (fun (a, _) (b, _) -> compare a b) arr;
          arr
        end)
      tables
  in
  { size; rows }

(* Build from a row generator: [f i] returns the weighted successors of i. *)
let of_rows ~size f =
  let rows =
    Array.init size (fun i ->
        let cells = f i in
        let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. cells in
        if total <= 0. then [| (i, 1.) |]
        else begin
          let arr = Array.of_list (List.map (fun (j, w) -> (j, w /. total)) cells) in
          Array.sort (fun (a, _) (b, _) -> compare a b) arr;
          arr
        end)
  in
  { size; rows }

let successors t i = Array.to_list (Array.map fst t.rows.(i))

let is_irreducible t =
  Scc.is_strongly_connected ~n:t.size ~successors:(successors t)

(* Period of an irreducible chain: gcd over all edges (u,v) of
   depth(u) + 1 - depth(v) where depth is BFS distance from vertex 0.
   The chain is aperiodic iff the period is 1. *)
let period t =
  let depth = Array.make t.size (-1) in
  depth.(0) <- 0;
  let queue = Queue.create () in
  Queue.push 0 queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun (v, _) ->
        if depth.(v) = -1 then begin
          depth.(v) <- depth.(u) + 1;
          Queue.push v queue
        end)
      t.rows.(u)
  done;
  let g = ref 0 in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  for u = 0 to t.size - 1 do
    if depth.(u) >= 0 then
      Array.iter
        (fun (v, _) ->
          if depth.(v) >= 0 then g := gcd !g (abs (depth.(u) + 1 - depth.(v))))
        t.rows.(u)
  done;
  if !g = 0 then 1 else !g

let is_aperiodic t = period t = 1

let is_ergodic t = is_irreducible t && is_aperiodic t

(* One step of the (left) action: p' = p P.  Works for any vector, not just
   distributions — the mixing diagnostics feed signed vectors — so only
   exact zeros are skipped. *)
let step t p =
  let p' = Array.make t.size 0. in
  Array.iteri
    (fun i pi ->
      if pi <> 0. then
        Array.iter (fun (j, w) -> p'.(j) <- p'.(j) +. (pi *. w)) t.rows.(i))
    p;
  p'

let l1_distance a b =
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. Float.abs (x -. b.(i))) a;
  !acc

let tv_distance a b = 0.5 *. l1_distance a b

let uniform_distribution n = Array.make n (1. /. float_of_int n)

let point_distribution ~size i =
  let p = Array.make size 0. in
  p.(i) <- 1.;
  p

type stationary_result = {
  distribution : float array;
  iterations : int;
  residual : float;  (* final l1 step distance *)
}

(* Power iteration to the stationary distribution.  For periodic chains the
   raw iteration oscillates, so we iterate the lazy chain (I+P)/2, which has
   the same stationary distribution and is always aperiodic. *)
let stationary ?(tolerance = 1e-12) ?(max_iterations = 200_000) ?initial t =
  let p0 =
    match initial with
    | Some p ->
      if Array.length p <> t.size then invalid_arg "Chain.stationary: bad initial";
      Array.copy p
    | None -> uniform_distribution t.size
  in
  let lazy_step p =
    let q = step t p in
    Array.mapi (fun i x -> 0.5 *. (x +. p.(i))) q
  in
  let rec go p k =
    let p' = lazy_step p in
    let r = l1_distance p p' in
    if r < tolerance || k + 1 >= max_iterations then
      { distribution = p'; iterations = k + 1; residual = r }
    else go p' (k + 1)
  in
  go p0 0

(* Expected hitting time of [target] from [source] by solving the linear
   system with Gauss-Seidel sweeps; adequate for the small chains we
   diagnose. Returns nan if it fails to converge. *)
let expected_hitting_time ?(tolerance = 1e-10) ?(max_sweeps = 100_000) t ~source ~target =
  if source = target then 0.
  else begin
    let h = Array.make t.size 0. in
    let converged = ref false in
    let sweeps = ref 0 in
    while (not !converged) && !sweeps < max_sweeps do
      incr sweeps;
      let delta = ref 0. in
      for i = 0 to t.size - 1 do
        if i <> target then begin
          let acc = ref 1. in
          let self = ref 0. in
          Array.iter
            (fun (j, p) ->
              if j = i then self := !self +. p
              else if j <> target then acc := !acc +. (p *. h.(j)))
            t.rows.(i);
          let v = if !self >= 1. then infinity else !acc /. (1. -. !self) in
          delta := Float.max !delta (Float.abs (v -. h.(i)));
          h.(i) <- v
        end
      done;
      if !delta < tolerance then converged := true
    done;
    if !converged then h.(source) else Float.nan
  end

(* Sample a trajectory using an external uniform source in [0,1). *)
let sample_step t ~uniform i =
  let x = uniform () in
  let cells = t.rows.(i) in
  let n = Array.length cells in
  let rec go k acc =
    if k >= n - 1 then fst cells.(n - 1)
    else
      let j, p = cells.(k) in
      let acc = acc +. p in
      if x < acc then j else go (k + 1) acc
  in
  go 0 0.
