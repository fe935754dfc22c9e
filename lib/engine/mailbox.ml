(* The message matrix shared by the sharded runner and the flat spread
   engine: one growable int buffer per (source, destination) shard pair,
   [fields] ints per message.  Each box is its own record, so shards
   filling their rows on different domains never write the same word. *)

type box = { mutable buf : int array; mutable len : int }

type t = { shards : int; fields : int; boxes : box array (* src * shards + dst *) }

let create ~shards ~fields ~capacity =
  if shards < 1 || fields < 1 || capacity < 0 then
    invalid_arg "Mailbox.create: need positive sizes and a capacity >= 0";
  {
    shards;
    fields;
    boxes =
      Array.init (shards * shards) (fun _ -> { buf = Array.make (fields * capacity) 0; len = 0 });
  }

let clear t ~src =
  for dst = 0 to t.shards - 1 do
    t.boxes.((src * t.shards) + dst).len <- 0
  done

let push t ~src ~dst =
  let b = t.boxes.((src * t.shards) + dst) in
  let i = b.len in
  let need = i + t.fields in
  if need > Array.length b.buf then begin
    let grown = Array.make (max (t.fields * 64) (2 * Array.length b.buf)) 0 in
    Array.blit b.buf 0 grown 0 i;
    b.buf <- grown
  end;
  b.len <- need;
  i

let ints t ~src ~dst = t.boxes.((src * t.shards) + dst).buf
let length t ~src ~dst = t.boxes.((src * t.shards) + dst).len
