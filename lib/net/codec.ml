(* Wire codec for S&F messages.

   An S&F message is two id instances (the sender's reinforcement id and
   the forwarded mixing id); fire-and-forget datagrams match the protocol's
   semantics exactly — no retransmission, no acknowledgement, loss allowed.

   Every datagram is a batch (little-endian):
     offset 0   magic        0xF5
     offset 1   version      2
     offset 2   kind         1 = batch
     offset 3   count        u8, in [1, max_batch]
     offset 4   frames[count], each 68 bytes:
       +0   the 64-byte message payload, two entries of four int64 fields
            (id, serial, anchor with -1 encoding None, born)
       +64  CRC-32 (IEEE, reflected) of the 64 payload bytes, u32

   Each frame carries its own CRC, so one corrupted frame rejects that
   frame alone, not the datagram.  The version and kind bytes are still
   checked: the retired one-message-per-datagram layout (version 1) is
   [Unsupported_version '\x01'] and the retired hello (kind 0) is
   [Bad_kind '\x00']. *)

let magic = '\xf5'
let version = '\x02'
let kind_batch = '\x01'
let payload_size = 64
let batch_header_size = 4
let frame_size = payload_size + 4
let max_batch = 16
let max_datagram_size = batch_header_size + (max_batch * frame_size)

(* One byte of headroom past the largest datagram: POSIX recvfrom
   silently truncates a UDP payload to the buffer, so a buffer of exactly
   the maximum size cannot distinguish a valid maximal datagram from the
   prefix of an oversized one.  With the extra byte,
   [length > max_datagram_size] identifies foreign traffic. *)
let recv_buffer_size = max_datagram_size + 1

type error =
  | Too_short of int
  | Bad_magic of char
  | Unsupported_version of char
  | Oversized of int
  | Bad_kind of char
  | Bad_count of int

let pp_error ppf = function
  | Too_short n -> Fmt.pf ppf "datagram too short (%d bytes)" n
  | Bad_magic c -> Fmt.pf ppf "bad magic byte 0x%02x" (Char.code c)
  | Unsupported_version c -> Fmt.pf ppf "unsupported version %d" (Char.code c)
  | Oversized n -> Fmt.pf ppf "datagram longer than its count allows (%d bytes)" n
  | Bad_kind c -> Fmt.pf ppf "unknown datagram kind %d" (Char.code c)
  | Bad_count n -> Fmt.pf ppf "batch count %d outside [1, %d]" n max_batch

(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320), computed bitwise: 64
   payload bytes cost 512 shift/xor steps, well under the cost of the
   sendto the frame is about to pay, and the bitwise form keeps the module
   free of shared mutable table state. *)
let crc32 buffer ~pos ~len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Char.code (Bytes.get buffer i);
    for _ = 0 to 7 do
      let low = !crc land 1 in
      crc := !crc lsr 1;
      if low = 1 then crc := !crc lxor 0xEDB88320
    done
  done;
  !crc lxor 0xFFFFFFFF

let write_entry buffer ~offset (e : Sf_core.View.entry) =
  Bytes.set_int64_le buffer offset (Int64.of_int e.Sf_core.View.id);
  Bytes.set_int64_le buffer (offset + 8) (Int64.of_int e.Sf_core.View.serial);
  Bytes.set_int64_le buffer (offset + 16)
    (match e.Sf_core.View.anchor with
    | None -> -1L
    | Some a -> Int64.of_int a);
  Bytes.set_int64_le buffer (offset + 24) (Int64.of_int e.Sf_core.View.born)

let read_entry buffer ~offset =
  let id = Int64.to_int (Bytes.get_int64_le buffer offset) in
  let serial = Int64.to_int (Bytes.get_int64_le buffer (offset + 8)) in
  let anchor =
    match Bytes.get_int64_le buffer (offset + 16) with
    | -1L -> None
    | a -> Some (Int64.to_int a)
  in
  let born = Int64.to_int (Bytes.get_int64_le buffer (offset + 24)) in
  { Sf_core.View.id; serial; anchor; born }

let write_payload buffer ~offset (message : Sf_core.Protocol.message) =
  write_entry buffer ~offset message.Sf_core.Protocol.reinforcement;
  write_entry buffer ~offset:(offset + 32) message.Sf_core.Protocol.mixing

let read_payload buffer ~offset =
  {
    Sf_core.Protocol.reinforcement = read_entry buffer ~offset;
    mixing = read_entry buffer ~offset:(offset + 32);
  }

(* --- Encoding --- *)

let frame_offset i = batch_header_size + (i * frame_size)

let encode_batch_exact messages count =
  let buffer = Bytes.create (batch_header_size + (count * frame_size)) in
  Bytes.set buffer 0 magic;
  Bytes.set buffer 1 version;
  Bytes.set buffer 2 kind_batch;
  Bytes.set buffer 3 (Char.chr count);
  List.iteri
    (fun i message ->
      let offset = frame_offset i in
      write_payload buffer ~offset message;
      Bytes.set_int32_le buffer (offset + payload_size)
        (Int32.of_int (crc32 buffer ~pos:offset ~len:payload_size)))
    messages;
  buffer

(* Oversized batches split greedily into full datagrams plus a remainder:
   every emitted datagram carries at most [max_batch] frames. *)
let encode_batch messages =
  let rec chunks acc current k = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | m :: rest ->
      if k = max_batch then chunks (List.rev current :: acc) [ m ] 1 rest
      else chunks acc (m :: current) (k + 1) rest
  in
  List.map
    (fun chunk -> encode_batch_exact chunk (List.length chunk))
    (chunks [] [] 0 messages)

let corrupt_frame buffer index =
  let offset = frame_offset index in
  if offset + frame_size <= Bytes.length buffer then
    Bytes.set buffer offset
      (Char.chr (Char.code (Bytes.get buffer offset) lxor 0xff))

(* --- Decoding --- *)

type batch = {
  messages : Sf_core.Protocol.message list;  (* CRC-clean frames, in order *)
  bad_crc : int;
  truncated : bool;
}

(* One constructor per kind byte; batches are the only kind left. *)
type datagram = Batch of batch

let decode_batch buffer ~length =
  let count = Char.code (Bytes.get buffer 3) in
  if count < 1 || count > max_batch then Error (Bad_count count)
  else begin
    let expected = batch_header_size + (count * frame_size) in
    if length > expected then Error (Oversized length)
    else begin
      (* A short datagram still yields every complete frame it carries;
         only the torn tail is rejected. *)
      let complete = min count ((length - batch_header_size) / frame_size) in
      let truncated = length < expected in
      let bad_crc = ref 0 in
      let messages = ref [] in
      for i = complete - 1 downto 0 do
        let offset = frame_offset i in
        let stored = Int32.to_int (Bytes.get_int32_le buffer (offset + payload_size)) land 0xFFFFFFFF in
        if stored = crc32 buffer ~pos:offset ~len:payload_size then
          messages := read_payload buffer ~offset :: !messages
        else incr bad_crc
      done;
      Ok (Batch { messages = !messages; bad_crc = !bad_crc; truncated })
    end
  end

let decode_datagram buffer ~length =
  if length < 2 then Error (Too_short length)
  else if Bytes.get buffer 0 <> magic then Error (Bad_magic (Bytes.get buffer 0))
  else if Bytes.get buffer 1 <> version then
    Error (Unsupported_version (Bytes.get buffer 1))
  else if length < batch_header_size then Error (Too_short length)
  else if Bytes.get buffer 2 <> kind_batch then Error (Bad_kind (Bytes.get buffer 2))
  else decode_batch buffer ~length
