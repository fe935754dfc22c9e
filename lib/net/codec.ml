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
let batch_header_size = 4 (* magic, version, kind, count *)
let frame_size = payload_size + 4 (* payload + CRC-32 *)
let max_batch = 16
let max_datagram_size = batch_header_size + (max_batch * frame_size)

(* One byte of headroom past the largest datagram: POSIX recv
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

(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320), one table lookup
   per byte.  The table's 256 entries (entry k is the CRC register after
   shifting byte k through eight bitwise steps) are u32 little-endian in
   an immutable string, so the module holds no shared mutable state. *)
let crc_table =
  let entry k =
    let c = ref k in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done;
    !c
  in
  String.init 1024 (fun i -> Char.chr ((entry (i / 4) lsr (8 * (i mod 4))) land 0xff))

let crc32 buffer ~pos ~len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let k = (!crc lxor Char.code (Bytes.get buffer i)) land 0xff in
    crc :=
      (!crc lsr 8)
      lxor (Int32.to_int (String.get_int32_le crc_table (4 * k)) land 0xFFFFFFFF)
  done;
  !crc lxor 0xFFFFFFFF

(* --- Frames ---

   A frame is a row message ({!Sf_core.Protocol.row_message}) written
   field by field: no boxed entry or message in between, so the driver
   encodes and decodes without allocating.  The boxed [encode_batch] and
   [decode_datagram] below wrap the same two functions. *)

module P = Sf_core.Protocol

let frame_offset i = batch_header_size + (i * frame_size)

let put buffer offset v = Bytes.set_int64_le buffer offset (Int64.of_int v)
let get buffer offset = Int64.to_int (Bytes.get_int64_le buffer offset)

let write_frame buffer i (msg : P.row_message) =
  let offset = frame_offset i in
  Bytes.set buffer 0 magic;
  Bytes.set buffer 1 version;
  Bytes.set buffer 2 kind_batch;
  Bytes.set buffer 3 (Char.chr (i + 1));
  put buffer offset msg.P.r_id;
  put buffer (offset + 8) msg.P.r_serial;
  put buffer (offset + 16) msg.P.r_anchor;
  put buffer (offset + 24) msg.P.r_born;
  put buffer (offset + 32) msg.P.m_id;
  put buffer (offset + 40) msg.P.m_serial;
  put buffer (offset + 48) msg.P.m_anchor;
  put buffer (offset + 56) msg.P.m_born;
  Bytes.set_int32_le buffer (offset + payload_size)
    (Int32.of_int (crc32 buffer ~pos:offset ~len:payload_size))

let read_frame buffer i (msg : P.row_message) =
  let offset = frame_offset i in
  let stored =
    Int32.to_int (Bytes.get_int32_le buffer (offset + payload_size)) land 0xFFFFFFFF
  in
  stored = crc32 buffer ~pos:offset ~len:payload_size
  && begin
    msg.P.r_id <- get buffer offset;
    msg.P.r_serial <- get buffer (offset + 8);
    msg.P.r_anchor <- get buffer (offset + 16);
    msg.P.r_born <- get buffer (offset + 24);
    msg.P.m_id <- get buffer (offset + 32);
    msg.P.m_serial <- get buffer (offset + 40);
    msg.P.m_anchor <- get buffer (offset + 48);
    msg.P.m_born <- get buffer (offset + 56);
    true
  end

let corrupt_frame buffer index =
  let offset = frame_offset index in
  if offset + frame_size <= Bytes.length buffer then
    Bytes.set buffer offset
      (Char.chr (Char.code (Bytes.get buffer offset) lxor 0xff))

(* --- Batch headers --- *)

let check_batch buffer ~length =
  if length < 2 then Some (Too_short length)
  else if Bytes.get buffer 0 <> magic then Some (Bad_magic (Bytes.get buffer 0))
  else if Bytes.get buffer 1 <> version then
    Some (Unsupported_version (Bytes.get buffer 1))
  else if length < batch_header_size then Some (Too_short length)
  else if Bytes.get buffer 2 <> kind_batch then Some (Bad_kind (Bytes.get buffer 2))
  else
    let count = Char.code (Bytes.get buffer 3) in
    if count < 1 || count > max_batch then Some (Bad_count count)
    else if length > frame_offset count then Some (Oversized length)
    else None

(* A short datagram still yields every complete frame it carries; only
   the torn tail is rejected.  [check_batch] bounds [length] by the
   declared count, so the quotient never exceeds it. *)
let complete_frames ~length = (length - batch_header_size) / frame_size

let truncated buffer ~length = length < frame_offset (Char.code (Bytes.get buffer 3))

(* --- Boxed messages --- *)

(* The boxed form of a row message and back; anchor -1 is [None]. *)
let message_of_row (msg : P.row_message) =
  let entry id serial anchor born =
    let anchor = if anchor = -1 then None else Some anchor in
    { Sf_core.View.id; serial; anchor; born }
  in
  {
    P.reinforcement = entry msg.r_id msg.r_serial msg.r_anchor msg.r_born;
    mixing = entry msg.m_id msg.m_serial msg.m_anchor msg.m_born;
  }

(* Leaves [duplicated] as it is: no frame carries it. *)
let load_row (msg : P.row_message) (message : P.message) =
  let r = message.reinforcement and m = message.mixing in
  let anchor = Option.value ~default:(-1) in
  msg.r_id <- r.id;
  msg.r_serial <- r.serial;
  msg.r_anchor <- anchor r.anchor;
  msg.r_born <- r.born;
  msg.m_id <- m.id;
  msg.m_serial <- m.serial;
  msg.m_anchor <- anchor m.anchor;
  msg.m_born <- m.born

(* Oversized batches split greedily into full datagrams plus a remainder:
   every emitted datagram carries at most [max_batch] frames. *)
let encode_batch messages =
  let msg = P.row_message () in
  let rec fill buffer i count = function
    | m :: rest when i < count ->
      load_row msg m;
      write_frame buffer i msg;
      fill buffer (i + 1) count rest
    | rest -> rest
  in
  let rec datagrams remaining messages =
    if remaining = 0 then []
    else
      let count = min max_batch remaining in
      let buffer = Bytes.create (frame_offset count) in
      let rest = fill buffer 0 count messages in
      buffer :: datagrams (remaining - count) rest
  in
  datagrams (List.length messages) messages

type batch = {
  messages : Sf_core.Protocol.message list;  (* CRC-clean frames, in order *)
  bad_crc : int;
  truncated : bool;
}

(* One constructor per kind byte; batches are the only kind left. *)
type datagram = Batch of batch

let decode_datagram buffer ~length =
  match check_batch buffer ~length with
  | Some e -> Error e
  | None ->
    let msg = P.row_message () in
    let bad_crc = ref 0 in
    let messages = ref [] in
    for i = complete_frames ~length - 1 downto 0 do
      if read_frame buffer i msg then messages := message_of_row msg :: !messages
      else incr bad_crc
    done;
    Ok
      (Batch
         { messages = !messages; bad_crc = !bad_crc; truncated = truncated buffer ~length })
