(** Initial membership topologies for experiments. A topology maps each node
    index in [0, n) to its initial out-neighbor ids. *)

type t = int -> int list

val regular : Sf_prng.Rng.t -> n:int -> out_degree:int -> t
(** Outdegree and indegree both equal [out_degree] at every node (built from
    derangements, so no self-edges); the uniform-sum-degree initialization
    of the paper's section 6.1. *)

val ring : n:int -> out_degree:int -> t
(** Node u points at u+1 .. u+out_degree (mod n); a structured, poorly-mixed
    starting state. *)
