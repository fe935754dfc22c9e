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

let summarize ~total ~self_edges ~anchored ~parallel ~dependent =
  let alpha =
    if total = 0 then 1.
    else 1. -. (float_of_int dependent /. float_of_int total)
  in
  {
    total_entries = total;
    self_edges;
    anchored;
    parallel_surplus = parallel;
    dependent_entries = dependent;
    alpha;
  }

let of_views views =
  let total = ref 0 in
  let self_edges = ref 0 in
  let anchored = ref 0 in
  let parallel = ref 0 in
  let dependent = ref 0 in
  let seen = Hashtbl.create 64 in
  Seq.iter
    (fun (owner, view) ->
      Hashtbl.reset seen;
      View.iter
        (fun _ e ->
          incr total;
          let is_self = e.View.id = owner in
          let is_anchored = e.View.anchor <> None in
          let is_parallel = Hashtbl.mem seen e.View.id in
          Hashtbl.replace seen e.View.id ();
          if is_self then incr self_edges;
          if is_anchored then incr anchored;
          if is_parallel then incr parallel;
          if is_self || is_anchored || is_parallel then incr dependent)
        view)
    views;
  summarize ~total:!total ~self_edges:!self_edges ~anchored:!anchored
    ~parallel:!parallel ~dependent:!dependent

(* Same labelling over a packed world: one pass per node over the flat
   slots, no entry materialization and no allocation.  An entry is a
   parallel copy when an earlier slot of the same row holds its id — a
   scan of at most s - 1 slots, cheaper than hashing at view sizes. *)
let of_flat store =
  let n = View.Flat.node_count store in
  let s = View.Flat.view_size store in
  let total = ref 0 in
  let self_edges = ref 0 in
  let anchored = ref 0 in
  let parallel = ref 0 in
  let dependent = ref 0 in
  for u = 0 to n - 1 do
    for slot = 0 to s - 1 do
      let id = View.Flat.id_at store u slot in
      if id >= 0 then begin
        incr total;
        let is_self = id = u in
        let is_anchored = View.Flat.anchor_at store u slot >= 0 in
        let earlier = ref 0 in
        while !earlier < slot && View.Flat.id_at store u !earlier <> id do
          incr earlier
        done;
        let is_parallel = !earlier < slot in
        if is_self then incr self_edges;
        if is_anchored then incr anchored;
        if is_parallel then incr parallel;
        if is_self || is_anchored || is_parallel then incr dependent
      end
    done
  done;
  summarize ~total:!total ~self_edges:!self_edges ~anchored:!anchored
    ~parallel:!parallel ~dependent:!dependent

let pp ppf t =
  Fmt.pf ppf "entries=%d self=%d anchored=%d parallel=%d dependent=%d alpha=%.4f"
    t.total_entries t.self_edges t.anchored t.parallel_surplus t.dependent_entries
    t.alpha
