(* Temporal independence (paper, section 7.5).

   Starting from a random state distributed according to the stationary
   distribution pi, how many transformations until the membership graph is
   eps-independent of the start?  The paper bounds the *expected
   conductance* of the global MC graph and applies the standard
   conductance-to-mixing machinery:

     Phi(G) >= dE (dE - 1) alpha / (2 s (s - 1))                (Lemma 7.14)

     tau_eps <= 16 s^2 (s-1)^2 / (dE^2 (dE-1)^2 alpha^2)
                * (n s ln n + ln (4 / eps))                      (Lemma 7.15)

   For constant-size views this is O(n s log n) transformations — O(s log n)
   actions per node; for s = Theta(log n), O(log^2 n) per node. *)

type params = {
  n : int;             (* number of nodes *)
  view_size : int;     (* s *)
  expected_outdegree : float;  (* dE, from the degree MC *)
  alpha : float;       (* expected independence, >= 1 - 2(loss+delta) *)
}

let make_params ~n ~view_size ~expected_outdegree ~alpha =
  if n < 2 then invalid_arg "Temporal.make_params: need n >= 2";
  if expected_outdegree < 2. then
    invalid_arg "Temporal.make_params: dE must be at least 2";
  if alpha <= 0. || alpha > 1. then invalid_arg "Temporal.make_params: bad alpha";
  { n; view_size; expected_outdegree; alpha }

(* Lemma 7.14. *)
let expected_conductance_bound p =
  let s = float_of_int p.view_size in
  let de = p.expected_outdegree in
  de *. (de -. 1.) *. p.alpha /. (2. *. s *. (s -. 1.))

(* Lemma 7.15: bound on transformations to eps-independence. *)
let tau_epsilon p ~epsilon =
  if epsilon <= 0. || epsilon >= 1. then invalid_arg "Temporal.tau_epsilon: bad epsilon";
  let s = float_of_int p.view_size in
  let de = p.expected_outdegree in
  let n = float_of_int p.n in
  let prefactor =
    16. *. s *. s *. ((s -. 1.) ** 2.)
    /. ((de ** 2.) *. ((de -. 1.) ** 2.) *. (p.alpha ** 2.))
  in
  prefactor *. ((n *. s *. log n) +. log (4. /. epsilon))

(* Actions per node: tau / n — the O(s log n) headline. *)
let actions_per_node p ~epsilon = tau_epsilon p ~epsilon /. float_of_int p.n

(* The headline scaling itself, for table display: s log n. *)
let headline_scaling p = float_of_int p.view_size *. log (float_of_int p.n)
