(* Stateful loss processes: i.i.d. (the paper's model), Gilbert-Elliott
   bursty loss, and per-link asymmetric loss.  See the .mli for the
   stationary-mean mapping that keeps bursty runs comparable to the paper's
   uniform [loss] parameter. *)

type ge = {
  p_good_to_bad : float;
  p_bad_to_good : float;
  loss_good : float;
  loss_bad : float;
}

type model =
  | Iid
  | Gilbert_elliott of ge
  | Per_link of (int -> int -> float)

let check_probability name p =
  if p < 0. || p > 1. || Float.is_nan p then
    invalid_arg (Fmt.str "Loss.gilbert_elliott: %s = %g outside [0,1]" name p)

let gilbert_elliott ?(loss_good = 0.) ?(loss_bad = 1.) ~mean_loss ~mean_burst () =
  check_probability "loss_good" loss_good;
  check_probability "loss_bad" loss_bad;
  check_probability "mean_loss" mean_loss;
  if not (loss_good <= mean_loss && mean_loss < loss_bad) then
    invalid_arg
      (Fmt.str
         "Loss.gilbert_elliott: need loss_good <= mean_loss < loss_bad, got %g <= %g < %g"
         loss_good mean_loss loss_bad);
  if mean_burst < 1. then
    invalid_arg (Fmt.str "Loss.gilbert_elliott: mean_burst %g < 1" mean_burst);
  let p_bad_to_good = 1. /. mean_burst in
  let p_good_to_bad =
    p_bad_to_good *. (mean_loss -. loss_good) /. (loss_bad -. mean_loss)
  in
  check_probability "implied p_good_to_bad" p_good_to_bad;
  { p_good_to_bad; p_bad_to_good; loss_good; loss_bad }

let stationary_loss g =
  let denom = g.p_good_to_bad +. g.p_bad_to_good in
  if denom <= 0. then g.loss_good
  else
    let pi_bad = g.p_good_to_bad /. denom in
    ((1. -. pi_bad) *. g.loss_good) +. (pi_bad *. g.loss_bad)

let mean_burst_length g =
  if g.p_bad_to_good <= 0. then infinity else 1. /. g.p_bad_to_good

(* The chain's four probabilities are copied out of the all-float [ge]
   record into this mixed record, where each float stays boxed once:
   reading a field of [ge] unboxes it, and passing it to [Rng.bernoulli]
   would box it again on every drop.  They are 0 for the other models. *)
type t = {
  spec : model;
  mutable bad : bool;  (* Gilbert-Elliott chain position; starts Good *)
  to_bad : float;
  to_good : float;
  drop_good : float;
  drop_bad : float;
}

let create spec =
  match spec with
  | Gilbert_elliott g ->
    {
      spec;
      bad = false;
      to_bad = g.p_good_to_bad;
      to_good = g.p_bad_to_good;
      drop_good = g.loss_good;
      drop_bad = g.loss_bad;
    }
  | Iid | Per_link _ ->
    { spec; bad = false; to_bad = 0.; to_good = 0.; drop_good = 0.; drop_bad = 0. }

let model t = t.spec

let drop t rng ~chance ~src ~dst =
  match t.spec with
  | Iid -> Sf_prng.Rng.bernoulli rng chance
  | Per_link f -> Sf_prng.Rng.bernoulli rng (f src dst)
  | Gilbert_elliott _ ->
    let flip = Sf_prng.Rng.bernoulli rng (if t.bad then t.to_good else t.to_bad) in
    if flip then t.bad <- not t.bad;
    Sf_prng.Rng.bernoulli rng (if t.bad then t.drop_bad else t.drop_good)

let in_burst t = t.bad
