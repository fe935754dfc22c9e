(* Binary min-heap keyed by (time, sequence number).  The sequence number
   makes event ordering deterministic when timestamps tie, which keeps whole
   simulations reproducible from their seeds. *)

type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;  (* heap.(0 .. size-1) *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let entry_before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let capacity = Array.length t.heap in
  if t.size >= capacity then begin
    let dummy = t.heap.(0) in
    let heap = Array.make (max 16 (2 * capacity)) dummy in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && entry_before t.heap.(left) t.heap.(!smallest) then smallest := left;
  if right < t.size && entry_before t.heap.(right) t.heap.(!smallest) then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~time payload =
  let entry = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  if Array.length t.heap = 0 then t.heap <- Array.make 16 entry;
  grow t;
  t.heap.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some (t.heap.(0).time, t.heap.(0).payload)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t 0
    end;
    Some (top.time, top.payload)
  end
