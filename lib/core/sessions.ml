(* Session-based churn models.

   The simple churn driver in {!Churn} removes and adds fixed counts per
   round.  Real peer-to-peer populations behave differently: nodes arrive
   as a Poisson process and stay for a random *session* whose length
   distribution is typically heavy-tailed (Pareto), producing a stable core
   of long-lived nodes plus a fast-churning fringe.  This module drives a
   {!Runner} with such arrival/lifetime processes so membership behaviour
   can be studied under realistic churn. *)

type lifetime =
  | Exponential of float  (* mean lifetime in rounds *)
  | Pareto of { shape : float; minimum : float }
      (* heavy-tailed; mean = shape * minimum / (shape - 1) for shape > 1 *)

let sample_lifetime rng = function
  | Exponential mean ->
    if mean <= 0. then invalid_arg "Sessions: mean lifetime must be positive";
    Sf_prng.Rng.exponential rng (1. /. mean)
  | Pareto { shape; minimum } ->
    if shape <= 0. || minimum <= 0. then invalid_arg "Sessions: bad Pareto parameters";
    (* Inverse-CDF sampling: X = minimum / U^(1/shape). *)
    let u = 1. -. Sf_prng.Rng.float rng in
    minimum /. (u ** (1. /. shape))

type t = {
  runner : Runner.t;
  rng : Sf_prng.Rng.t;
  lifetime : lifetime;
  arrival_rate : float;      (* expected arrivals per round *)
  recover : bool;            (* run the section 5 repair pass *)
  mutable round : int;
  (* (expiry round, node id), kept as a sorted-by-expiry list; populations
     are small enough that a heap is unnecessary. *)
  mutable departures : (float * int) list;
  mutable total_joins : int;
  mutable total_leaves : int;
  mutable total_reconnections : int;
}

let create ?(recover = true) ~runner ~seed ~lifetime ~arrival_rate () =
  if arrival_rate < 0. then invalid_arg "Sessions.create: negative arrival rate";
  let rng = Sf_prng.Rng.create seed in
  let t =
    {
      runner;
      rng;
      lifetime;
      arrival_rate;
      recover;
      round = 0;
      departures = [];
      total_joins = 0;
      total_leaves = 0;
      total_reconnections = 0;
    }
  in
  (* Give the initial population lifetimes too (memorylessly for the
     exponential; for Pareto this under-represents the long-lived core the
     process converges to, which the run then builds up naturally). *)
  Array.iter
    (fun id ->
      let expiry = float_of_int t.round +. sample_lifetime rng lifetime in
      t.departures <- (expiry, id) :: t.departures)
    (Runner.live_ids runner);
  t.departures <- List.sort compare t.departures;
  t

let insert_departure t expiry id =
  let rec insert = function
    | [] -> [ (expiry, id) ]
    | ((e, _) as head) :: rest when e <= expiry -> head :: insert rest
    | rest -> (expiry, id) :: rest
  in
  t.departures <- insert t.departures

(* Poisson arrivals per round, by counting exponential interarrival times. *)
let sample_arrivals t =
  if t.arrival_rate <= 0. then 0
  else begin
    let count = ref 0 in
    let budget = ref (Sf_prng.Rng.exponential t.rng t.arrival_rate) in
    while !budget <= 1. do
      incr count;
      budget := !budget +. Sf_prng.Rng.exponential t.rng t.arrival_rate
    done;
    !count
  end

let run_round t =
  t.round <- t.round + 1;
  let now = float_of_int t.round in
  (* Departures due this round. *)
  let due, rest = List.partition (fun (e, _) -> e <= now) t.departures in
  t.departures <- rest;
  List.iter
    (fun (_, id) ->
      if Runner.live_count t.runner > 4 then
        if Runner.remove_node t.runner id then t.total_leaves <- t.total_leaves + 1)
    due;
  (* Arrivals. *)
  for _ = 1 to sample_arrivals t do
    let id = Runner.add_node t.runner in
    t.total_joins <- t.total_joins + 1;
    insert_departure t (now +. sample_lifetime t.rng t.lifetime) id
  done;
  if t.recover then
    t.total_reconnections <- t.total_reconnections + Runner.repair t.runner;
  Runner.run_rounds t.runner 1

let run t ~rounds =
  for _ = 1 to rounds do
    run_round t
  done

type statistics = {
  rounds : int;
  population : int;
  joins : int;
  leaves : int;
  reconnections : int;
}

let statistics t =
  {
    rounds = t.round;
    population = Runner.live_count t.runner;
    joins = t.total_joins;
    leaves = t.total_leaves;
    reconnections = t.total_reconnections;
  }
