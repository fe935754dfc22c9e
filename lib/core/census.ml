(* Dependence census over a collection of views — the mechanical realization
   of the paper's edge labelling (section 2): an entry is dependent when it
   is a self-edge, an instance anchored by a duplication (the sender
   retained a correlated copy), or a redundant parallel instance (second and
   later copies of an id within one view).  The union of the three labels is
   a conservative over-estimate of the paper's "all but one of mutually
   dependent edges" rule. *)

type t = {
  total_entries : int;
  self_edges : int;
  anchored : int;
  parallel_surplus : int;
  dependent_entries : int;
  alpha : float;  (* measured fraction of independent entries *)
}

(* Label counts, accumulated row by row. *)
type tally = {
  mutable total : int;
  mutable self : int;
  mutable anchor : int;
  mutable parallel : int;
  mutable dependent : int;
}

(* The labelling of row [u] of a packed store, owned by node [owner]: one
   pass over the slots, no entry materialization and no allocation.  An
   entry is a parallel copy when an earlier slot of the same row holds its
   id — a scan of at most s - 1 slots, cheaper than hashing at view
   sizes. *)
let label_row tally store u ~owner =
  for slot = 0 to View.Flat.view_size store - 1 do
    let id = View.Flat.id_at store u slot in
    if id >= 0 then begin
      tally.total <- tally.total + 1;
      let is_self = id = owner in
      let is_anchored = View.Flat.anchor_at store u slot >= 0 in
      let earlier = ref 0 in
      while !earlier < slot && View.Flat.id_at store u !earlier <> id do
        incr earlier
      done;
      let is_parallel = !earlier < slot in
      if is_self then tally.self <- tally.self + 1;
      if is_anchored then tally.anchor <- tally.anchor + 1;
      if is_parallel then tally.parallel <- tally.parallel + 1;
      if is_self || is_anchored || is_parallel then
        tally.dependent <- tally.dependent + 1
    end
  done

let census label =
  let tally = { total = 0; self = 0; anchor = 0; parallel = 0; dependent = 0 } in
  label tally;
  {
    total_entries = tally.total;
    self_edges = tally.self;
    anchored = tally.anchor;
    parallel_surplus = tally.parallel;
    dependent_entries = tally.dependent;
    alpha =
      (if tally.total = 0 then 1.
       else 1. -. (float_of_int tally.dependent /. float_of_int tally.total));
  }

(* A view is row 0 of a one-node store. *)
let of_views views =
  census (fun tally ->
      Seq.iter (fun (owner, view) -> label_row tally view 0 ~owner) views)

(* Row [u] of a world store is owned by node [u]. *)
let of_flat store =
  census (fun tally ->
      for u = 0 to View.Flat.node_count store - 1 do
        label_row tally store u ~owner:u
      done)

let pp ppf t =
  Fmt.pf ppf "entries=%d self=%d anchored=%d parallel=%d dependent=%d alpha=%.4f"
    t.total_entries t.self_edges t.anchored t.parallel_surplus t.dependent_entries
    t.alpha
