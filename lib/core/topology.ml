(* Initial membership topologies.  The analysis requires starting from a
   weakly connected graph (section 4); these generators produce the initial
   states used across experiments:

   - [regular]: every node has outdegree d and indegree d, so the sum degree
     ds(u) = 3d is uniform — the initialization assumed by the no-loss
     analysis of section 6.1 (ds(u) = dm with d = dm/3).
   - [uniform_random]: every node picks d distinct random out-neighbors;
     indegrees are binomial.
   - [ring]: node u points at u+1 .. u+d (mod n) — a deliberately poor,
     highly structured starting state for convergence experiments.
   - [star_like]: all nodes point at a small hub set — a pathological
     starting state for load-balance recovery experiments. *)

type t = int -> int list
(* A topology maps each node index in [0, n) to its initial out-neighbor
   ids (with multiplicity). *)

(* A random permutation of [0, n) with no fixed points (swap any fixed point
   with its successor), so the regular topology has no self-edges. *)
let derangement rng n =
  let p = Array.init n (fun i -> i) in
  Sf_prng.Rng.shuffle rng p;
  for i = 0 to n - 1 do
    if p.(i) = i then begin
      let j = (i + 1) mod n in
      let tmp = p.(i) in
      p.(i) <- p.(j);
      p.(j) <- tmp
    end
  done;
  p

let regular rng ~n ~out_degree =
  if out_degree >= n then invalid_arg "Topology.regular: out_degree >= n";
  let perms = Array.init out_degree (fun _ -> derangement rng n) in
  fun u -> Array.to_list (Array.map (fun p -> p.(u)) perms)

let ring ~n ~out_degree =
  if out_degree >= n then invalid_arg "Topology.ring: out_degree >= n";
  fun u -> List.init out_degree (fun k -> (u + k + 1) mod n)
