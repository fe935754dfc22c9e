(* Convergence-speed diagnostics for finite Markov chains: the distance-to-
   stationarity profile, relaxation time, and a power-method estimate of the
   second eigenvalue modulus.  Used to quantify how fast the degree MC and
   the exact global MC forget their starting states — the computational
   counterpart of the paper's temporal-independence analysis (section 7.5). *)

type profile = {
  steps : int array;
  tv_distances : float array;  (* TVD to stationarity after steps.(i) *)
}

(* TVD to [stationary] after each checkpoint, starting from [initial]. *)
let distance_profile chain ~initial ~stationary ~checkpoints =
  let sorted = List.sort_uniq compare checkpoints in
  let distances = ref [] in
  let current = ref (Array.copy initial) in
  let position = ref 0 in
  List.iter
    (fun target ->
      while !position < target do
        current := Chain.step chain !current;
        incr position
      done;
      distances := Chain.tv_distance !current stationary :: !distances)
    sorted;
  {
    steps = Array.of_list sorted;
    tv_distances = Array.of_list (List.rev !distances);
  }

(* Steps until TVD to stationarity first drops below [threshold], starting
   from [initial]; None if not within [max_steps]. *)
let steps_to_distance ?(max_steps = 1_000_000) chain ~initial ~stationary ~threshold =
  let rec go p step =
    if Chain.tv_distance p stationary < threshold then Some step
    else if step >= max_steps then None
    else go (Chain.step chain p) (step + 1)
  in
  go (Array.copy initial) 0

(* Worst-case mixing time over point-mass starting states drawn from
   [sources] (all states when omitted): the paper's tau_eps bounds refer to
   a random start; this measures the harder worst case for comparison. *)
let mixing_time ?(threshold = 0.25) ?max_steps ?sources chain ~stationary =
  let n = Chain.size chain in
  let sources = Option.value ~default:(List.init n Fun.id) sources in
  List.fold_left
    (fun worst source ->
      let initial = Chain.point_distribution ~size:n source in
      match (worst, steps_to_distance ?max_steps chain ~initial ~stationary ~threshold) with
      | None, _ | _, None -> None
      | Some w, Some s -> Some (max w s))
    (Some 0) sources

(* Second-eigenvalue-modulus estimate by the deflated power method: for a
   row-stochastic P with stationary pi, the operator
     A(v) = v P - (sum v) pi
   kills the leading eigenvector, and ||A^t v||_1 decays like |lambda_2|^t.
   The returned estimate is the geometric mean of the last few per-step
   ratios.  (For non-diagonalizable or complex-spectrum chains this is an
   estimate of the spectral radius of the deflated operator, which is what
   governs asymptotic convergence anyway.) *)
let second_eigenvalue_estimate ?(iterations = 400) ?(tail = 50) chain ~stationary
    ~uniform =
  let n = Chain.size chain in
  if n < 2 then 0.
  else begin
    let v = Array.init n (fun _ -> uniform () -. 0.5) in
    (* Remove the stationary component once; the deflation keeps it out. *)
    let norm1 a = Array.fold_left (fun acc x -> acc +. Float.abs x) 0. a in
    let deflate a =
      let mass = Array.fold_left ( +. ) 0. a in
      Array.mapi (fun i x -> x -. (mass *. stationary.(i))) a
    in
    let v = ref (deflate v) in
    let ratios = ref [] in
    for it = 1 to iterations do
      let next = deflate (Chain.step chain !v) in
      let n0 = norm1 !v and n1 = norm1 next in
      if n0 > 1e-280 && n1 > 1e-280 then begin
        if it > iterations - tail then ratios := (n1 /. n0) :: !ratios;
        (* Renormalize to dodge under/overflow. *)
        v := Array.map (fun x -> x /. n1) next
      end
      else v := next
    done;
    match !ratios with
    | [] -> 0.
    | rs ->
      let log_sum = List.fold_left (fun acc r -> acc +. log (Float.max r 1e-300)) 0. rs in
      exp (log_sum /. float_of_int (List.length rs))
  end
