(* Min-wise independent sampling layer, after Brahms (Bortnikov, Gurevich,
   Keidar, Kliot, Shraer — cited as [7] in the paper).

   Section 3.1 contrasts S&F's *evolving* uniform views with Brahms-style
   *persistent* samples: each node feeds the stream of ids it observes
   through k independent min-wise samplers; sampler i keeps the id
   minimizing a keyed hash h_i, which converges to a uniform choice among
   all ids ever observed — even if the observation stream is biased.  The
   price is exactly what the paper points out: a converged sampler's output
   never changes, so the samples provide no temporal independence.  The B3
   bench measures both sides of that trade. *)

type sampler = {
  key : int64;
  mutable best_hash : int64;  (* unsigned comparison; max_int64 = empty *)
  mutable best_id : int;
}

type t = { samplers : sampler array }

(* A keyed 64-bit mix (SplitMix64 finalizer over key xor id): behaves as a
   family of min-wise independent hash functions for our purposes. *)
let keyed_hash key id =
  let z = Int64.logxor key (Int64.mul (Int64.of_int (id + 1)) 0x9E3779B97F4A7C15L) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create rng ~k =
  if k <= 0 then invalid_arg "Minwise.create: k must be positive";
  {
    samplers =
      Array.init k (fun _ ->
          { key = Sf_prng.Rng.next_int64 rng; best_hash = Int64.minus_one; best_id = -1 });
  }

let observe t id =
  Array.iter
    (fun s ->
      let h = keyed_hash s.key id in
      if s.best_id = -1 || Int64.unsigned_compare h s.best_hash < 0 then begin
        s.best_hash <- h;
        s.best_id <- id
      end)
    t.samplers

(* Current outputs of the non-empty samplers. *)
let samples t =
  Array.to_list t.samplers
  |> List.filter_map (fun s -> if s.best_id = -1 then None else Some s.best_id)

(* Invalidate samples whose id is reported dead (Brahms re-seeds such
   samplers; here they simply restart from the future stream). *)
let invalidate t ~is_dead =
  Array.iter
    (fun s ->
      if s.best_id <> -1 && is_dead s.best_id then begin
        s.best_id <- -1;
        s.best_hash <- Int64.minus_one
      end)
    t.samplers

(* A fleet of per-node sampler layers fed from each node's evolving view —
   the standard way to drive the layer from a membership protocol. *)
type fleet = { layers : (int, t) Hashtbl.t; rng : Sf_prng.Rng.t; k : int }

let create_fleet rng ~k = { layers = Hashtbl.create 256; rng; k }

let layer fleet ~node_id =
  match Hashtbl.find_opt fleet.layers node_id with
  | Some l -> l
  | None ->
    let l = create fleet.rng ~k:fleet.k in
    Hashtbl.replace fleet.layers node_id l;
    l

(* Feed every live node's layer with its current view contents. *)
let feed_from_views fleet runner =
  let store = Runner.store runner in
  Array.iter
    (fun u ->
      let l = layer fleet ~node_id:u in
      for slot = 0 to View.Flat.degree store u - 1 do
        observe l (View.Flat.id_at store u slot)
      done)
    (Runner.live_ids runner)

(* Fraction of individual samplers whose output is identical to a reference
   snapshot — quantifies the *lack* of temporal independence of persistent
   samples.  (Per sampler, not per node: a single still-converging sampler
   should not mark a node's other seven as changed.) *)
let unchanged_fraction fleet ~reference =
  let total = ref 0 and unchanged = ref 0 in
  Hashtbl.iter
    (fun node_id l ->
      match Hashtbl.find_opt reference node_id with
      | None -> ()
      | Some old ->
        let old = Array.of_list old in
        Array.iteri
          (fun i s ->
            if i < Array.length old then begin
              incr total;
              if s.best_id = old.(i) then incr unchanged
            end)
          l.samplers)
    fleet.layers;
  if !total = 0 then 0. else float_of_int !unchanged /. float_of_int !total

(* Per-node raw outputs including empty samplers (-1), aligned by sampler
   index, for unchanged_fraction snapshots. *)
let raw_snapshot fleet =
  let out = Hashtbl.create (Hashtbl.length fleet.layers) in
  Hashtbl.iter
    (fun node_id l ->
      Hashtbl.replace out node_id
        (Array.to_list (Array.map (fun s -> s.best_id) l.samplers)))
    fleet.layers;
  out

let snapshot fleet =
  let out = Hashtbl.create (Hashtbl.length fleet.layers) in
  Hashtbl.iter (fun node_id l -> Hashtbl.replace out node_id (samples l)) fleet.layers;
  out
