(* The message matrix shared by the sharded runner and the flat spread
   engine: one growable int buffer per (source, destination) shard pair.
   A message is as many ints as its engine reserves at [push].  Each box
   is its own record, so shards filling their rows on different domains
   never write the same word. *)

type box = { mutable buf : int array; mutable len : int }

type t = { shards : int; boxes : box array (* src * shards + dst *) }

let create ~shards =
  if shards < 1 then invalid_arg "Mailbox.create: need at least one shard";
  { shards; boxes = Array.init (shards * shards) (fun _ -> { buf = [||]; len = 0 }) }

let clear t ~src =
  for dst = 0 to t.shards - 1 do
    t.boxes.((src * t.shards) + dst).len <- 0
  done

let push t ~src ~dst ~width =
  let b = t.boxes.((src * t.shards) + dst) in
  let i = b.len in
  let need = i + width in
  if need > Array.length b.buf then begin
    let grown = Array.make (max (64 * width) (2 * Array.length b.buf)) 0 in
    Array.blit b.buf 0 grown 0 i;
    b.buf <- grown
  end;
  b.len <- need;
  i

let ints t ~src ~dst = t.boxes.((src * t.shards) + dst).buf
let length t ~src ~dst = t.boxes.((src * t.shards) + dst).len
