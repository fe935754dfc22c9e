(* Random-walk sampling, the non-local alternative the paper argues against
   in section 3.1: a node obtains a fresh id by walking the membership
   graph and sampling the endpoint.

   Two of the paper's three objections are directly measurable here:

   - Each hop is a message, so a walk of length L succeeds only if all L
     hops survive: success probability (1 - loss)^L, decaying exponentially
     with the walk length (S&F actions, by contrast, involve one message
     each and never "fail" — views are updated after every step).
   - An unweighted walk samples nodes proportionally to their (in-)degree,
     so endpoint uniformity depends on the topology; on imbalanced graphs
     the sample is far from uniform. *)

type walk_result =
  | Completed of int   (* endpoint id *)
  | Lost_at_hop of int (* a hop message was lost *)
  | Dead_end of int    (* reached a node with an effectively empty view *)

let walk runner rng ~start ~length ~loss_rate =
  let rec hop current remaining =
    if remaining = 0 then Completed current
    else if not (Runner.is_live runner current) then Dead_end (length - remaining)
    else
      let store = Runner.store runner in
      let slot = View.Flat.random_occupied_slot store current rng ~except:(-1) in
      if slot < 0 then Dead_end (length - remaining)
      else if Sf_prng.Rng.bernoulli rng loss_rate then
        Lost_at_hop (length - remaining + 1)
      else hop (View.Flat.id_at store current slot) (remaining - 1)
  in
  hop start length

type statistics = {
  attempts : int;
  completed : int;
  lost : int;
  dead_ends : int;
  success_rate : float;
  endpoint_counts : (int, int) Hashtbl.t;
}

(* Run [attempts] walks of the given length from uniformly random live
   starting nodes, tallying outcomes and endpoint frequencies. *)
let sample_statistics runner rng ~attempts ~length ~loss_rate =
  let endpoint_counts = Hashtbl.create 256 in
  let completed = ref 0 and lost = ref 0 and dead_ends = ref 0 in
  for _ = 1 to attempts do
    let start = Runner.random_live_id runner in
    match walk runner rng ~start ~length ~loss_rate with
    | Completed endpoint ->
      incr completed;
      Hashtbl.replace endpoint_counts endpoint
        (1 + Option.value ~default:0 (Hashtbl.find_opt endpoint_counts endpoint))
    | Lost_at_hop _ -> incr lost
    | Dead_end _ -> incr dead_ends
  done;
  {
    attempts;
    completed = !completed;
    lost = !lost;
    dead_ends = !dead_ends;
    success_rate = float_of_int !completed /. float_of_int (max 1 attempts);
    endpoint_counts;
  }

(* The analytic success probability per walk: every hop must survive. *)
let success_probability ~length ~loss_rate = (1. -. loss_rate) ** float_of_int length
