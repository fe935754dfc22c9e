(* Fixed-capacity id rings for the Direct strategy: a [leads] ring of
   learned, not-yet-contacted addresses and a [recent] ring of recently
   contacted / known-informed ids (the repeat-contact throttle).  The
   flat engine stores every node's rings as slices of per-shard arrays
   and goes through the offset-based operations below.

   Capacities are small constants ({!Strategy.lead_capacity},
   {!Strategy.recent_capacity}); membership scans are linear over the
   occupied prefix.  Empty cells hold [-1]; ids are non-negative. *)

(* [mem arr ~off ~cap ~head ~len v]: is [v] among the [len] occupied
   cells of the ring at [arr.(off) .. arr.(off + cap - 1)]? *)
let mem arr ~off ~cap ~head ~len v =
  let found = ref false in
  for i = 0 to len - 1 do
    if arr.(off + ((head + i) mod cap)) = v then found := true
  done;
  !found

(* Append [v]; when full, overwrite the oldest cell and advance the head.
   Returns the new [(head, len)].  Callers check {!mem} first. *)
let add arr ~off ~cap ~head ~len v =
  if len < cap then begin
    arr.(off + ((head + len) mod cap)) <- v;
    (head, len + 1)
  end
  else begin
    arr.(off + head) <- v;
    ((head + 1) mod cap, len)
  end

(* Pop the oldest element, or [-1] when empty. *)
let pop arr ~off ~cap ~head ~len =
  if len = 0 then (-1, head, len)
  else begin
    let v = arr.(off + head) in
    arr.(off + head) <- -1;
    (v, (head + 1) mod cap, len - 1)
  end
