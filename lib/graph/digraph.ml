(* Directed multigraph representing a membership graph (section 4 of the
   paper): vertices are nodes, and an edge (u,v) with multiplicity m means v
   appears m times in u's local view.  Both adjacency directions are indexed
   so indegree queries are O(1) amortized. *)

module Int_table = Hashtbl.Make (struct
  type t = int
  let equal = Int.equal
  let hash = Sf_prng.Splitmix64.mix_int
end)

type t = {
  (* out.(u) maps v -> multiplicity of edge (u,v). *)
  out_edges : int Int_table.t Int_table.t;
  in_edges : int Int_table.t Int_table.t;
  mutable edge_count : int;
}

let create ?(initial_capacity = 64) () =
  {
    out_edges = Int_table.create initial_capacity;
    in_edges = Int_table.create initial_capacity;
    edge_count = 0;
  }

let ensure_vertex t u =
  if not (Int_table.mem t.out_edges u) then begin
    Int_table.replace t.out_edges u (Int_table.create 8);
    Int_table.replace t.in_edges u (Int_table.create 8)
  end

let vertex_count t = Int_table.length t.out_edges

let edge_count t = t.edge_count

let vertices t = Int_table.fold (fun u _ acc -> u :: acc) t.out_edges []

let bump tbl key delta =
  let v = delta + Option.value ~default:0 (Int_table.find_opt tbl key) in
  if v < 0 then invalid_arg "Digraph: removing a non-existent edge";
  if v = 0 then Int_table.remove tbl key else Int_table.replace tbl key v

let add_edge t u v =
  ensure_vertex t u;
  ensure_vertex t v;
  bump (Int_table.find t.out_edges u) v 1;
  bump (Int_table.find t.in_edges v) u 1;
  t.edge_count <- t.edge_count + 1

let remove_edge t u v =
  match Int_table.find_opt t.out_edges u with
  | None -> invalid_arg "Digraph.remove_edge: no such vertex"
  | Some adj ->
    bump adj v (-1);
    bump (Int_table.find t.in_edges v) u (-1);
    t.edge_count <- t.edge_count - 1

let multiplicity t u v =
  match Int_table.find_opt t.out_edges u with
  | None -> 0
  | Some adj -> Option.value ~default:0 (Int_table.find_opt adj v)

let out_degree t u =
  match Int_table.find_opt t.out_edges u with
  | None -> 0
  | Some adj -> Int_table.fold (fun _ m acc -> acc + m) adj 0

let in_degree t u =
  match Int_table.find_opt t.in_edges u with
  | None -> 0
  | Some adj -> Int_table.fold (fun _ m acc -> acc + m) adj 0

(* Sum degree ds(u) = d(u) + 2 din(u), Definition 6.1. *)
let sum_degree t u = out_degree t u + (2 * in_degree t u)

let out_neighbors t u =
  match Int_table.find_opt t.out_edges u with
  | None -> []
  | Some adj -> Int_table.fold (fun v _ acc -> v :: acc) adj []

let in_neighbors t u =
  match Int_table.find_opt t.in_edges u with
  | None -> []
  | Some adj -> Int_table.fold (fun v _ acc -> v :: acc) adj []

let iter_edges f t =
  Int_table.iter
    (fun u adj -> Int_table.iter (fun v m -> f u v m) adj)
    t.out_edges

let self_loop_count t =
  let acc = ref 0 in
  iter_edges (fun u v m -> if u = v then acc := !acc + m) t;
  !acc

(* Count of "redundant parallel" edge instances: for each (u,v) with
   multiplicity m >= 2, m-1 instances are duplicates (the paper counts all
   but one of mutually dependent edges as dependent). *)
let parallel_edge_count t =
  let acc = ref 0 in
  iter_edges (fun _ _ m -> if m >= 2 then acc := !acc + m - 1) t;
  !acc

(* Weak connectivity by union-find over undirected reachability. *)
module Union_find = struct
  type t = { parent : int Int_table.t; rank : int Int_table.t }

  let create () = { parent = Int_table.create 64; rank = Int_table.create 64 }

  let rec find t x =
    match Int_table.find_opt t.parent x with
    | None ->
      Int_table.replace t.parent x x;
      Int_table.replace t.rank x 0;
      x
    | Some p when p = x -> x
    | Some p ->
      let root = find t p in
      Int_table.replace t.parent x root;
      root

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then begin
      let ka = Int_table.find t.rank ra and kb = Int_table.find t.rank rb in
      if ka < kb then Int_table.replace t.parent ra rb
      else if ka > kb then Int_table.replace t.parent rb ra
      else begin
        Int_table.replace t.parent rb ra;
        Int_table.replace t.rank ra (ka + 1)
      end
    end
end

let weakly_connected_components t =
  let uf = Union_find.create () in
  Int_table.iter (fun u _ -> ignore (Union_find.find uf u)) t.out_edges;
  iter_edges (fun u v _ -> Union_find.union uf u v) t;
  let components = Int_table.create 16 in
  Int_table.iter
    (fun u _ ->
      let root = Union_find.find uf u in
      let members = Option.value ~default:[] (Int_table.find_opt components root) in
      Int_table.replace components root (u :: members))
    t.out_edges;
  Int_table.fold (fun _ members acc -> members :: acc) components []

let is_weakly_connected t =
  vertex_count t <= 1 || List.length (weakly_connected_components t) = 1

let out_degree_array t =
  let vs = vertices t in
  Array.of_list (List.map (out_degree t) vs)

type degree_statistics = {
  out_degrees : Sf_stats.Summary.t;
  in_degrees : Sf_stats.Summary.t;
  sum_degrees : Sf_stats.Summary.t;
  self_loops : int;
  parallel_edges : int;
}

let degree_statistics t =
  let outs = Sf_stats.Summary.create () in
  let ins = Sf_stats.Summary.create () in
  let sums = Sf_stats.Summary.create () in
  List.iter
    (fun u ->
      Sf_stats.Summary.add_int outs (out_degree t u);
      Sf_stats.Summary.add_int ins (in_degree t u);
      Sf_stats.Summary.add_int sums (sum_degree t u))
    (vertices t);
  {
    out_degrees = outs;
    in_degrees = ins;
    sum_degrees = sums;
    self_loops = self_loop_count t;
    parallel_edges = parallel_edge_count t;
  }

let copy t =
  let g = create () in
  Int_table.iter (fun u _ -> ensure_vertex g u) t.out_edges;
  iter_edges (fun u v m -> for _ = 1 to m do add_edge g u v done) t;
  g

let equal a b =
  vertex_count a = vertex_count b
  && edge_count a = edge_count b
  && begin
    let same = ref true in
    iter_edges (fun u v m -> if multiplicity b u v <> m then same := false) a;
    !same
  end
