(* Closed-form approximation of the no-loss degree distributions,
   equation (6.1) of the paper.

   Under no loss, dL = 0 and uniform sum degrees ds(u) = dm, the number of
   ways to assign dm potential neighbors v_1..v_dm of u to
   {out-neighbor, in-neighbor, not-a-neighbor} while realizing outdegree d_star
   (and hence indegree (dm - d_star) / 2) is

     a(d_star) = C(dm, d_star) * C(dm - d_star, (dm - d_star) / 2),

   and, since all membership graphs with the given sum-degree vector are
   equally likely in the steady state (Lemma 7.5),

     Pr(d(u) = d_star) ~ a(d_star) / sum_{d' even} a(d').

   Everything is computed in log space: a(d_star) overflows floats already at
   dm around 200. *)

let log_assignment_count ~dm d =
  if d < 0 || d > dm || (dm - d) mod 2 <> 0 then neg_infinity
  else Sf_stats.Special.log_choose dm d +. Sf_stats.Special.log_choose (dm - d) ((dm - d) / 2)

(* Outdegree pmf on the even support {0, 2, ..., dm}. Requires dm even. *)
let outdegree_distribution ~dm =
  if dm <= 0 || dm mod 2 <> 0 then
    invalid_arg "Analytic.outdegree_distribution: dm must be positive and even";
  let logs = Array.init (dm + 1) (fun d -> log_assignment_count ~dm d) in
  let log_z = Sf_stats.Special.log_sum logs in
  Sf_stats.Pmf.create ~offset:0 (Array.map (fun l -> exp (l -. log_z)) logs)

(* Indegree pmf: din = (dm - d) / 2 with the same assignment counts, so the
   support is {0, 1, ..., dm / 2}. *)
let indegree_distribution ~dm =
  let out = outdegree_distribution ~dm in
  let mass = Array.make ((dm / 2) + 1) 0. in
  Sf_stats.Pmf.iter (fun d p -> if (dm - d) mod 2 = 0 then mass.((dm - d) / 2) <- p) out;
  Sf_stats.Pmf.create ~offset:0 mass

(* The binomial reference curves of Figure 6.1: same expectation dm/3 over
   dm trials (p = 1/3). *)
let binomial_reference ~dm = Sf_stats.Binomial.to_pmf ~n:dm ~p:(1. /. 3.)
