(* Fixed-capacity id rings for the Direct strategy: a [leads] ring of
   learned, not-yet-contacted addresses and a [recent] ring of recently
   contacted / known-informed ids (the repeat-contact throttle).  One
   value holds the ring of every node slot, indexed by node id: [cap]
   cells per node in [cells], and the head and length of each ring in
   [head] and [len], updated in place — no operation allocates.

   Capacities are small constants ({!Strategy.lead_capacity},
   {!Strategy.recent_capacity}); membership scans are linear over the
   occupied prefix.  Empty cells hold [-1]; ids are non-negative. *)

type t = { cap : int; cells : int array; head : int array; len : int array }

let create ~nodes ~cap =
  {
    cap;
    cells = Array.make (nodes * cap) (-1);
    head = Array.make nodes 0;
    len = Array.make nodes 0;
  }

let mem r u v =
  let off = u * r.cap and head = r.head.(u) in
  let found = ref false in
  for i = 0 to r.len.(u) - 1 do
    if r.cells.(off + ((head + i) mod r.cap)) = v then found := true
  done;
  !found

let add r u v =
  let off = u * r.cap and head = r.head.(u) and len = r.len.(u) in
  if len < r.cap then begin
    r.cells.(off + ((head + len) mod r.cap)) <- v;
    r.len.(u) <- len + 1
  end
  else begin
    r.cells.(off + head) <- v;
    r.head.(u) <- (head + 1) mod r.cap
  end

let pop r u =
  if r.len.(u) = 0 then -1
  else begin
    let off = u * r.cap and head = r.head.(u) in
    let v = r.cells.(off + head) in
    r.cells.(off + head) <- -1;
    r.head.(u) <- (head + 1) mod r.cap;
    r.len.(u) <- r.len.(u) - 1;
    v
  end

let reset r u =
  Array.fill r.cells (u * r.cap) r.cap (-1);
  r.head.(u) <- 0;
  r.len.(u) <- 0
