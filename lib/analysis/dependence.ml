(* Spatial independence (paper, section 7.4).

   A non-empty view entry is modelled by the two-state dependence MC of
   Figure 7.1.  Per non-self-loop transformation involving the entry:

   - independent -> dependent with probability at most
       (3/2) (loss + delta):
     the entry becomes dependent when it is duplicated (probability at most
     loss + delta, Lemma 6.7), and the arrival rate of *returning*
     dependent entries adds at most half of that again (Lemma 7.8 bounds
     the return probability by 1/2 under Assumption 7.7, alpha >= 2/3).

   - dependent -> independent with probability at least
       (5/6) (1 - (loss + delta)):
     the entry is shipped away without duplication (1 - (loss + delta))
     to a target other than the initiator (self-edge probability at most
     beta = 1/6).

   The stationary dependent fraction of this chain is bounded by
   2 (loss + delta) — Lemma 7.9 — so the expected independent fraction
   alpha is at least 1 - 2 (loss + delta). *)

let x_of ~loss ~delta =
  let x = loss +. delta in
  if x < 0. || x >= 1. then invalid_arg "Dependence: loss + delta must lie in [0,1)";
  x

(* Transition probability bounds of the dependence MC. *)
let to_dependent_probability ~loss ~delta = 1.5 *. x_of ~loss ~delta

let to_independent_probability ~loss ~delta =
  5. /. 6. *. (1. -. x_of ~loss ~delta)

(* Exact stationary dependent fraction of the bounding chain — the paper's
   intermediate expression (loss+delta) / (5/9 + (4/9)(loss+delta)). *)
let stationary_dependent_fraction ~loss ~delta =
  let x = x_of ~loss ~delta in
  x /. ((5. /. 9.) +. (4. /. 9. *. x))

(* Lemma 7.9: alpha >= 1 - 2 (loss + delta). *)
let alpha_lower_bound ~loss ~delta =
  Float.max 0. (1. -. (2. *. x_of ~loss ~delta))
