(* The message matrix shared by the sharded runner and the flat spread
   engine: one growable int buffer per (source, destination) shard pair,
   [fields] ints per message.  Each box is its own record, so shards
   filling their rows on different domains never write the same word. *)

type box = { mutable buf : int array; mutable len : int }

type t = { shards : int; fields : int; boxes : box array (* src * shards + dst *) }

let create ~shards ~fields =
  if shards < 1 || fields < 1 then invalid_arg "Mailbox.create: need positive sizes";
  {
    shards;
    fields;
    boxes =
      Array.init (shards * shards) (fun _ -> { buf = Array.make (fields * 64) 0; len = 0 });
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
    let grown = Array.make (2 * Array.length b.buf) 0 in
    Array.blit b.buf 0 grown 0 i;
    b.buf <- grown
  end;
  b.len <- need;
  i

let ints t ~src ~dst = t.boxes.((src * t.shards) + dst).buf
let length t ~src ~dst = t.boxes.((src * t.shards) + dst).len
