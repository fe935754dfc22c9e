(** Binary wire codec for S&F messages carried as UDP datagrams.

    Every datagram is a batch: a 4-byte header (magic [0xF5], version
    [2], kind [1], count) followed by up to {!max_batch} CRC-guarded
    frames, so a corrupted frame rejects that frame alone.

    The codec is written once over {!Sf_core.Protocol.row_message}:
    {!write_frame} and {!read_frame} move a row message into and out of
    a wire buffer without allocating, and {!check_batch} validates a
    received header.  {!encode_batch} and {!decode_datagram} wrap them
    for boxed {!Sf_core.Protocol.message} lists. *)

val payload_size : int
(** One encoded message (64 bytes: two 32-byte entries). *)

val batch_header_size : int
(** Batch header: magic, version, kind, count (4). *)

val frame_size : int
(** One batch frame: payload + CRC-32 (68). *)

val max_batch : int
(** Most messages per datagram (16). *)

val max_datagram_size : int
(** The largest datagram: a full batch
    ([batch_header_size + max_batch * frame_size]). *)

val recv_buffer_size : int
(** [max_datagram_size + 1]: the receive-buffer size that lets a receiver
    hold any valid datagram whole and still detect oversized foreign
    traffic — recv truncates a UDP payload to the buffer, so the
    one-byte headroom makes [length > max_datagram_size] observable. *)

val frame_offset : int -> int
(** Byte offset of frame [i] inside a batch datagram. *)

type error =
  | Too_short of int             (** shorter than its layout requires *)
  | Bad_magic of char
  | Unsupported_version of char  (** version byte other than 2 *)
  | Oversized of int             (** longer than its declared count allows *)
  | Bad_kind of char             (** kind byte other than batch *)
  | Bad_count of int             (** batch count outside [1, max_batch] *)

val pp_error : Format.formatter -> error -> unit

val crc32 : bytes -> pos:int -> len:int -> int
(** CRC-32 (IEEE, reflected) of a byte range, as used by batch frames. *)

val write_frame : bytes -> int -> Sf_core.Protocol.row_message -> unit
(** [write_frame buffer i msg] encodes [msg] as frame [i] (its payload,
    then the payload's CRC) and writes the batch header for [i + 1]
    frames, so the first [frame_offset (i + 1)] bytes of [buffer] are a
    complete datagram.  Writing frames 0, 1, 2, … in turn builds a batch
    in place.  Allocation-free. *)

val read_frame : bytes -> int -> Sf_core.Protocol.row_message -> bool
(** [read_frame buffer i msg]: when frame [i]'s CRC matches its payload,
    decodes it into [msg] (every field but [duplicated]) and returns
    [true]; otherwise returns [false] and leaves [msg] as it was.  The
    frame must lie within a batch {!check_batch} accepted.
    Allocation-free. *)

val corrupt_frame : bytes -> int -> unit
(** Flip one payload byte of frame [i] in an encoded batch — the fault
    injector's hook for corruption that must reject exactly one frame. *)

val check_batch : bytes -> length:int -> error option
(** Validate the header of the first [length] bytes of a received
    datagram: [None] when they open a batch whose declared count is in
    [[1, max_batch]] and covers [length], a truncated batch included.
    Allocation-free when it returns [None]. *)

val complete_frames : length:int -> int
(** The frames a batch {!check_batch} accepted holds whole: its declared
    count, or fewer when it was truncated. *)

val truncated : bytes -> length:int -> bool
(** A batch {!check_batch} accepted is shorter than its declared count. *)

val encode_batch : Sf_core.Protocol.message list -> bytes list
(** Encode messages as batch datagrams, splitting greedily so every
    datagram carries at most {!max_batch} frames; [[]] maps to [[]]. *)

type batch = {
  messages : Sf_core.Protocol.message list;
      (** CRC-clean frames, in batch order *)
  bad_crc : int;      (** frames rejected by their CRC *)
  truncated : bool;   (** datagram shorter than its declared count *)
}

type datagram = Batch of batch  (** one constructor per kind byte *)

val decode_datagram : bytes -> length:int -> (datagram, error) result
(** Decode the first [length] bytes of a received datagram: {!check_batch},
    then {!read_frame} on each complete frame.  A truncated batch still
    yields its complete frames with [truncated = true]; CRC-rejected
    frames are counted, not fatal.  The retired
    one-message-per-datagram layout is [Unsupported_version '\x01'] and
    the retired hello is [Bad_kind '\x00']. *)
