(* Dynamics of joining and leaving nodes (paper, section 6.5).

   Lemma 6.9/6.10: each instance of a departed node's id survives a round
   with probability at most 1 - (1 - loss - delta) dL / s^2, so the
   survival probability after i rounds is bounded by that quantity to the
   power i (Figure 6.4).

   Lemmas 6.11-6.13 and Corollary 6.14 bound the integration speed of a
   joiner: a veteran node creates new instances of its id at expected rate
   at least Delta >= (1 - loss - delta) dL Din / s^2 per round; a fresh
   joiner with outdegree dL is slower by at most (dL / s)^2, and within
   s^2 / ((1 - loss - delta) dL) rounds creates at least (dL / s)^2 Din
   instances — Din / 4 within 2s rounds when s = 2 dL and loss is small. *)

type params = {
  loss : float;
  delta : float;           (* duplication budget of the configuration *)
  lower_threshold : int;   (* dL *)
  view_size : int;         (* s *)
}

let make_params ~loss ~delta ~lower_threshold ~view_size =
  if loss < 0. || loss >= 1. then invalid_arg "Decay.make_params: bad loss";
  if delta < 0. || delta >= 1. then invalid_arg "Decay.make_params: bad delta";
  if lower_threshold <= 0 then
    invalid_arg "Decay.make_params: dL must be positive for decay bounds";
  if view_size < lower_threshold then invalid_arg "Decay.make_params: s < dL";
  { loss; delta; lower_threshold; view_size }

(* Per-round survival factor 1 - (1 - loss - delta) dL / s^2 (Lemma 6.9). *)
let per_round_survival p =
  let s = float_of_int p.view_size in
  let removal = (1. -. p.loss -. p.delta) *. float_of_int p.lower_threshold /. (s *. s) in
  1. -. removal

(* Upper bound on the survival probability of one id instance after
   [rounds] rounds (Lemma 6.10). *)
let survival_bound p ~rounds = per_round_survival p ** float_of_int rounds

(* The full curve of Figure 6.4: bound at rounds 0, 1, ..., rounds. *)
let survival_curve p ~rounds =
  let factor = per_round_survival p in
  let out = Array.make (rounds + 1) 1. in
  for i = 1 to rounds do
    out.(i) <- out.(i - 1) *. factor
  done;
  out

(* Smallest number of rounds after which the bound drops to [fraction]. *)
let rounds_to_fraction p ~fraction =
  if fraction <= 0. || fraction >= 1. then
    invalid_arg "Decay.rounds_to_fraction: fraction must lie in (0,1)";
  let factor = per_round_survival p in
  if factor >= 1. then max_int
  else int_of_float (Float.ceil (log fraction /. log factor))

(* Lemma 6.13: within this many rounds a joiner is expected to create at
   least (dL / s)^2 * Din instances. *)
let joiner_integration_rounds p =
  let s = float_of_int p.view_size in
  int_of_float
    (Float.ceil (s *. s /. ((1. -. p.loss -. p.delta) *. float_of_int p.lower_threshold)))

let joiner_integration_instances p ~expected_indegree =
  let ratio = float_of_int p.lower_threshold /. float_of_int p.view_size in
  ratio *. ratio *. expected_indegree
