(* The walk order and the tie rule for the largest component fix the
   roots, the straggler order and so every donor draw: a replay of the
   same store and stream repairs the same nodes from the same donors. *)

type t = {
  store : View.Flat.t;
  live : int -> bool;
  parent : int array;
  size : int array;  (* component size, valid at roots *)
  largest : int;     (* root of the largest live component; -1 if none *)
  stragglers : int list;
}

(* Union by size bounds the depth by log2 n, so the recursion is
   shallow. *)
let rec find parent i =
  let p = parent.(i) in
  if p = i then i
  else begin
    let root = find parent p in
    parent.(i) <- root;
    root
  end

let probe store ~live =
  let rows = View.Flat.node_count store in
  let parent = Array.init rows (fun i -> i) and size = Array.make rows 1 in
  let union a b =
    let ra = find parent a and rb = find parent b in
    if ra <> rb then
      if size.(ra) >= size.(rb) then begin
        parent.(rb) <- ra;
        size.(ra) <- size.(ra) + size.(rb)
      end
      else begin
        parent.(ra) <- rb;
        size.(rb) <- size.(rb) + size.(ra)
      end
  in
  for u = 0 to rows - 1 do
    if live u then
      for k = 0 to View.Flat.degree store u - 1 do
        let id = View.Flat.id_at store u k in
        if id <> u && id < rows && live id then union u id
      done
  done;
  let largest = ref (-1) in
  for u = 0 to rows - 1 do
    if live u && parent.(u) = u && (!largest < 0 || size.(u) > size.(!largest)) then
      largest := u
  done;
  let stragglers = ref [] in
  for u = rows - 1 downto 0 do
    if live u && parent.(u) = u && u <> !largest then stragglers := u :: !stragglers
  done;
  { store; live; parent; size; largest = !largest; stragglers = !stragglers }

let connected p = p.stragglers = []
let stragglers p = p.stragglers
let alone p u = p.live u && p.size.(find p.parent u) = 1

let donor p rng v =
  let rows = View.Flat.node_count p.store in
  let accept u =
    p.live u && u <> v
    && find p.parent u = p.largest
    && View.Flat.degree p.store u >= 2
  in
  let attempt = ref 0 and found = ref (-1) and last = ref 0 in
  while !found < 0 && !attempt < 64 do
    last := Sf_prng.Rng.int rng rows;
    if accept !last then found := !last;
    incr attempt
  done;
  let steps = ref 0 in
  while !found < 0 && !steps < rows do
    if accept !last then found := !last
    else begin
      last := (!last + 1) mod rows;
      incr steps
    end
  done;
  !found

let repair ?(reconnect = fun _ -> false) ~install p rng =
  let repaired = ref 0 in
  List.iter
    (fun v ->
      if !repaired < 128 then
        if alone p v && reconnect v then incr repaired
        else begin
          let donor = donor p rng v in
          if donor >= 0 then begin
            install v ~donor;
            incr repaired
          end
        end)
    p.stragglers;
  !repaired
