(* Tests for the UDP deployment layer: the wire codec, the socket-based
   driver, the node-host and the spawner. *)

module Codec = Sf_net.Codec
module Driver = Sf_net.Driver
module View = Sf_core.View
module Protocol = Sf_core.Protocol

let entry ?(serial = 0) ?(anchor = None) ?(born = 0) id =
  { View.id; serial; anchor; born }

let message ?(anchor = None) () =
  {
    Protocol.reinforcement = entry ~serial:123 ~anchor ~born:42 7;
    mixing = entry ~serial:456 ~born:43 9;
  }

(* --- Codec --- *)

(* Encode one message as a one-frame batch and decode it back. *)
let roundtrip m =
  match Codec.encode_batch [ m ] with
  | [ packet ] -> (
    match Codec.decode_datagram packet ~length:(Bytes.length packet) with
    | Ok (Codec.Batch { Codec.messages = [ decoded ]; bad_crc = 0; truncated = false })
      ->
      Ok decoded
    | Ok _ -> Alcotest.fail "one-frame batch must decode to one clean message"
    | Error e -> Error e)
  | packets -> Alcotest.failf "expected 1 datagram, got %d" (List.length packets)

let one_frame () =
  match Codec.encode_batch [ message () ] with
  | [ packet ] -> packet
  | packets -> Alcotest.failf "expected 1 datagram, got %d" (List.length packets)

(* The retired one-message-per-datagram layout, reconstructed byte for
   byte: magic, version 1, then the same two entries of four int64 LE
   fields (id, serial, anchor with None as -1, born) as a batch payload,
   66 bytes in all. *)
let v1_datagram () =
  let b = Bytes.create 66 in
  Bytes.set b 0 '\xf5';
  Bytes.set b 1 '\x01';
  let put off v = Bytes.set_int64_le b off (Int64.of_int v) in
  (* reinforcement = { id = 7; serial = 123; anchor = Some 5; born = 42 } *)
  put 2 7;
  put 10 123;
  put 18 5;
  put 26 42;
  (* mixing = { id = 9; serial = 456; anchor = None; born = 43 } *)
  put 34 9;
  put 42 456;
  Bytes.set_int64_le b 50 (-1L);
  put 58 43;
  b

(* The retired 7-byte hello: magic, version 2, kind 0, then a u16 LE
   port range. *)
let hello_datagram ~lo ~hi =
  let b = Bytes.create 7 in
  Bytes.set b 0 '\xf5';
  Bytes.set b 1 '\x02';
  Bytes.set b 2 '\x00';
  Bytes.set_uint16_le b 3 lo;
  Bytes.set_uint16_le b 5 hi;
  b

let test_codec_roundtrip () =
  let m = message ~anchor:(Some 5) () in
  (match Codec.encode_batch [ m ] with
  | [ packet ] ->
    Alcotest.(check int) "size" (Codec.frame_offset 1) (Bytes.length packet)
  | _ -> Alcotest.fail "one message must encode to one datagram");
  match roundtrip m with
  | Ok decoded -> Alcotest.(check bool) "roundtrip" true (decoded = m)
  | Error _ -> Alcotest.fail "decode failed"

let test_codec_none_anchor () =
  match roundtrip (message ()) with
  | Ok decoded ->
    Alcotest.(check bool) "anchor None survives" true
      (decoded.Protocol.reinforcement.View.anchor = None)
  | Error _ -> Alcotest.fail "decode failed"

let test_codec_truncated () =
  let packet = one_frame () in
  (match Codec.decode_datagram packet ~length:10 with
  | Ok (Codec.Batch { Codec.messages = []; bad_crc = 0; truncated = true }) -> ()
  | _ -> Alcotest.fail "a torn frame must yield no message, flagged truncated");
  match Codec.decode_datagram packet ~length:1 with
  | Error (Codec.Too_short 1) -> ()
  | _ -> Alcotest.fail "a datagram without a header must be rejected"

let test_codec_bad_magic () =
  let packet = one_frame () in
  Bytes.set packet 0 'x';
  match Codec.decode_datagram packet ~length:(Bytes.length packet) with
  | Error (Codec.Bad_magic 'x') -> ()
  | _ -> Alcotest.fail "bad magic must be rejected"

let test_codec_bad_version () =
  let packet = one_frame () in
  Bytes.set packet 1 '\x7f';
  (match Codec.decode_datagram packet ~length:(Bytes.length packet) with
  | Error (Codec.Unsupported_version '\x7f') -> ()
  | _ -> Alcotest.fail "unknown version must be rejected");
  let v1 = v1_datagram () in
  match Codec.decode_datagram v1 ~length:(Bytes.length v1) with
  | Error (Codec.Unsupported_version '\x01') -> ()
  | _ -> Alcotest.fail "a v1-layout datagram must be rejected by version"

let message_gen =
  QCheck.Gen.(
    let entry_gen =
      map2
        (fun (id, serial) (anchor, born) ->
          { View.id; serial; anchor = (if anchor < 0 then None else Some anchor); born })
        (pair (int_range 0 1_000_000) (int_range 0 1_000_000))
        (pair (int_range (-1) 1_000_000) (int_range 0 1_000_000))
    in
    map2
      (fun reinforcement mixing -> { Protocol.reinforcement; mixing })
      entry_gen entry_gen)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip" ~count:300 (QCheck.make message_gen)
    (fun m ->
      match roundtrip m with
      | Ok decoded -> decoded = m
      | Error _ -> false)

(* The table-driven CRC-32 against the bitwise definition it replaced:
   eight shift/xor steps per byte, no table. *)
let bitwise_crc32 buffer ~pos ~len =
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

let prop_crc32_table =
  let gen =
    QCheck.Gen.(
      let* b = bytes_size (int_range 0 200) in
      let len = Bytes.length b in
      let* pos = int_range 0 len in
      let* span = int_range 0 (len - pos) in
      return (b, pos, span))
  in
  let print (b, pos, len) = Printf.sprintf "pos %d len %d of %S" pos len (Bytes.to_string b) in
  QCheck.Test.make ~name:"codec crc32 matches the bitwise reference" ~count:500
    (QCheck.make ~print gen)
    (fun (b, pos, len) -> Codec.crc32 b ~pos ~len = bitwise_crc32 b ~pos ~len)

(* --- Cluster --- *)

let config = Protocol.make_config ~view_size:12 ~lower_threshold:4

(* A whole-space driver's store, for the monitors: row u is node u and
   every row is live. *)
let store_of d =
  assert (Driver.first d = 0);
  Driver.store d

let all_live _ = true

(* The instances of owned node [id]'s view, as (id, anchor) pairs in
   slot order. *)
let row_ids d id =
  let store = Driver.store d and i = id - Driver.first d in
  List.init (View.Flat.degree store i) (fun slot ->
      (View.Flat.id_at store i slot, View.Flat.anchor_at store i slot))

let make_cluster ?(n = 24) ?(loss = 0.) ~base_port () =
  let topology = Sf_core.Topology.regular (Sf_prng.Rng.create 5) ~n ~out_degree:4 in
  Driver.create ~period:0.002 ~base_port ~n ~config ~loss_rate:loss ~seed:6 ~topology ()

let test_cluster_runs_and_converges () =
  let c = make_cluster ~base_port:48100 () in
  Fun.protect
    ~finally:(fun () -> Driver.shutdown c)
    (fun () ->
      Driver.run c ~duration:1.5;
      let stats = Driver.statistics c in
      Alcotest.(check bool) "actions happened" true (stats.Driver.actions > 500);
      Alcotest.(check bool) "datagrams flowed" true (stats.Driver.datagrams_sent > 100);
      Alcotest.(check int) "no decode errors" 0 stats.Driver.decode_errors;
      Alcotest.(check int) "no send errors" 0 stats.Driver.send_errors;
      (* Without injected loss every message arrives on loopback, carried
         by every emitted datagram. *)
      Alcotest.(check int) "message conservation"
        (stats.Driver.datagrams_sent - stats.Driver.datagrams_dropped)
        stats.Driver.messages_received;
      Alcotest.(check int) "datagram conservation" stats.Driver.datagrams_emitted
        stats.Driver.datagrams_received;
      Alcotest.(check bool) "connected" true
        (Sf_core.Properties.is_weakly_connected (store_of c) ~live:all_live);
      (* Observation 5.1 holds over the real transport too. *)
      let outs = Sf_core.Properties.outdegree_summary (store_of c) ~live:all_live in
      Alcotest.(check bool) "degrees bounded" true
        (Sf_stats.Summary.min_value outs >= 0. && Sf_stats.Summary.max_value outs <= 12.))

let test_cluster_injected_loss_rate () =
  let c = make_cluster ~n:32 ~loss:0.2 ~base_port:48200 () in
  Fun.protect
    ~finally:(fun () -> Driver.shutdown c)
    (fun () ->
      Driver.run c ~duration:1.5;
      let stats = Driver.statistics c in
      let observed =
        float_of_int stats.Driver.datagrams_dropped
        /. float_of_int (max 1 stats.Driver.datagrams_sent)
      in
      Alcotest.(check bool)
        (Printf.sprintf "observed loss %.3f near 0.2" observed)
        true
        (Float.abs (observed -. 0.2) < 0.05);
      (* Duplication compensates: degrees stay at/above dL. *)
      let outs = Sf_core.Properties.outdegree_summary (store_of c) ~live:all_live in
      Alcotest.(check bool) "degrees survive loss" true
        (Sf_stats.Summary.mean outs >= 4.))

(* Regression for the loop hardening: a SIGALRM firing every few
   milliseconds interrupts the loop's wait with EINTR throughout the run.
   The driver must treat that as "try again", not an error — before the
   hardening this aborted the run with [Unix.Unix_error (EINTR, ...)]. *)
let test_cluster_survives_signals () =
  let fired = ref 0 in
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr fired))
  in
  let previous_timer =
    Unix.setitimer Unix.ITIMER_REAL
      { Unix.it_interval = 0.01; it_value = 0.01 }
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL previous_timer);
      Sys.set_signal Sys.sigalrm previous)
    (fun () ->
      let c = make_cluster ~base_port:48300 () in
      Fun.protect
        ~finally:(fun () -> Driver.shutdown c)
        (fun () ->
          Driver.run c ~duration:1.0;
          Alcotest.(check bool)
            (Printf.sprintf "signals actually fired (%d)" !fired)
            true (!fired > 10);
          let stats = Driver.statistics c in
          Alcotest.(check bool) "the run kept making progress" true
            (stats.Driver.actions > 200);
          Alcotest.(check int) "no decode errors" 0 stats.Driver.decode_errors))

(* Crash-restart under a resilience policy: the victims are down for
   the window and rejoin at its end with views reset from their own.
   The cluster must finish with every node live, views sound and the
   rejoins counted. *)
let test_cluster_crash_restart () =
  let policy =
    Sf_resil.Policy.make ~retune:false ~recover:false
      ~solve:(fun ~loss:_ -> (4, 12))
      ()
  in
  let scenario =
    match Sf_faults.Scenario.of_string "crash@100-200:0-3" with
    | Ok sc -> sc
    | Error e -> Alcotest.fail ("scenario parse: " ^ e)
  in
  let n = 24 in
  let topology = Sf_core.Topology.regular (Sf_prng.Rng.create 5) ~n ~out_degree:4 in
  let c =
    Driver.create ~period:0.002 ~scenario ~resilience:policy ~base_port:48350 ~n
      ~config ~loss_rate:0. ~seed:6 ~topology ()
  in
  Fun.protect
    ~finally:(fun () -> Driver.shutdown c)
    (fun () ->
      (* period 2 ms: the crash window spans 0.2 s - 0.4 s of a 1.2 s run,
         so every victim crashes and rejoins well before the end. *)
      Driver.run c ~duration:1.2;
      let stats = Driver.statistics c in
      Alcotest.(check bool)
        (Printf.sprintf "rejoins counted (%d)" stats.Driver.rejoins)
        true
        (stats.Driver.rejoins >= 1);
      Alcotest.(check (list int)) "nothing stayed crashed" []
        (List.filter (Driver.is_crashed c) (List.init n Fun.id));
      (* Every view — including the rejoined victims' — is structurally
         sound, inside M1 bounds and even (Observation 5.1). *)
      List.iter
        (Alcotest.failf "%a" Sf_check.Invariant.pp_violation)
        (Sf_check.Invariant.check_rows ~config (store_of c));
      (* The victims rejoined with usable views. *)
      for id = 0 to 3 do
        Alcotest.(check bool)
          (Printf.sprintf "victim %d has a non-empty view" id)
          true
          (View.Flat.degree (store_of c) id > 0)
      done)

(* --- Codec v2 --- *)

let nth_message i =
  {
    Protocol.reinforcement =
      entry ~serial:(1000 + i) ~anchor:(if i mod 2 = 0 then Some i else None)
        ~born:i (2 * i);
    mixing = entry ~serial:(2000 + i) ~born:(i + 1) ((2 * i) + 1);
  }

let messages k = List.init k nth_message

let one_packet msgs =
  match Codec.encode_batch msgs with
  | [ packet ] -> packet
  | packets -> Alcotest.failf "expected 1 datagram, got %d" (List.length packets)

let decode_one_batch packet =
  match Codec.decode_datagram packet ~length:(Bytes.length packet) with
  | Ok (Codec.Batch b) -> b
  | Error _ -> Alcotest.fail "batch decode failed"

let test_v2_batch_roundtrip () =
  List.iter
    (fun k ->
      match Codec.encode_batch (messages k) with
      | [ packet ] ->
        Alcotest.(check int)
          (Printf.sprintf "batch of %d size" k)
          (Codec.frame_offset k)
          (Bytes.length packet);
        let b = decode_one_batch packet in
        Alcotest.(check bool)
          (Printf.sprintf "batch of %d roundtrips" k)
          true
          (b.Codec.messages = messages k && b.Codec.bad_crc = 0
         && not b.Codec.truncated)
      | packets ->
        Alcotest.failf "batch of %d encoded to %d datagrams" k
          (List.length packets))
    [ 1; 2; Codec.max_batch ];
  Alcotest.(check (list string)) "empty batch encodes to nothing" []
    (List.map Bytes.to_string (Codec.encode_batch []))

let test_v2_batch_split () =
  let k = Codec.max_batch + 3 in
  match Codec.encode_batch (messages k) with
  | [ full; rest ] ->
    Alcotest.(check int) "first datagram is a full batch" Codec.max_datagram_size
      (Bytes.length full);
    let b1 = decode_one_batch full and b2 = decode_one_batch rest in
    Alcotest.(check int) "first carries max_batch" Codec.max_batch
      (List.length b1.Codec.messages);
    Alcotest.(check int) "second carries the remainder" 3
      (List.length b2.Codec.messages);
    Alcotest.(check bool) "order is preserved across the split" true
      (b1.Codec.messages @ b2.Codec.messages = messages k)
  | packets -> Alcotest.failf "expected 2 datagrams, got %d" (List.length packets)

let test_v2_truncated_batch () =
  let packet = one_packet (messages 3) in
  (* Cut mid-way through the third frame: the two complete frames must
     still decode, flagged truncated. *)
  let cut = Codec.frame_offset 2 + 10 in
  (match Codec.decode_datagram packet ~length:cut with
  | Ok (Codec.Batch b) ->
    Alcotest.(check bool) "complete frames survive truncation" true
      (b.Codec.messages = messages 2 && b.Codec.truncated)
  | _ -> Alcotest.fail "truncated batch must still yield complete frames");
  (* Cut inside the header: nothing to salvage. *)
  match Codec.decode_datagram packet ~length:3 with
  | Error (Codec.Too_short 3) -> ()
  | _ -> Alcotest.fail "header-truncated batch must be Too_short"

let test_v2_bad_crc () =
  let packet = one_packet (messages 3) in
  Codec.corrupt_frame packet 1;
  let b = decode_one_batch packet in
  Alcotest.(check bool)
    "corruption rejects exactly the corrupted frame" true
    (b.Codec.messages = [ nth_message 0; nth_message 2 ]
    && b.Codec.bad_crc = 1
    && not b.Codec.truncated)

(* The retired datagrams of a mixed v1/v2 cluster: a v1 message is
   rejected by its version byte, a hello by its kind byte. *)
let test_retired_datagrams_rejected () =
  let v1 = v1_datagram () in
  (match Codec.decode_datagram v1 ~length:(Bytes.length v1) with
  | Error (Codec.Unsupported_version '\x01') -> ()
  | _ -> Alcotest.fail "v1 messages must be rejected by version");
  let hello = hello_datagram ~lo:48000 ~hi:48031 in
  match Codec.decode_datagram hello ~length:(Bytes.length hello) with
  | Error (Codec.Bad_kind '\x00') -> ()
  | _ -> Alcotest.fail "hellos must be rejected by kind"

let test_recv_buffer_size () =
  Alcotest.(check int) "max datagram is a full batch"
    (Codec.frame_offset Codec.max_batch) Codec.max_datagram_size;
  Alcotest.(check int) "recv buffer holds any datagram plus headroom"
    (Codec.max_datagram_size + 1) Codec.recv_buffer_size;
  Alcotest.(check int) "a full batch fits the buffer" (Codec.recv_buffer_size - 1)
    (Bytes.length (one_packet (messages Codec.max_batch)))

(* --- Driver slices --- *)

let make_slice ?(n = 16) ?(count = 8) ~first ~base_port () =
  let topology = Sf_core.Topology.regular (Sf_prng.Rng.create 5) ~n ~out_degree:4 in
  Driver.create ~period:0.002 ~first ~count ~serial_stride:2
    ~serial_offset:(first / count) ~base_port ~n ~config ~loss_rate:0. ~seed:6
    ~topology ()

(* Regression for the select-loop hardening (EAGAIN/ECONNREFUSED): a
   driver owning half the id space keeps sending to the other half's
   ports.  One of those ports is bound by a plain socket that closes
   mid-run, so the kernel starts answering with ICMP port-unreachable
   while the loop is hot.  The run must complete without an exception
   and without the send path wedging. *)
let test_driver_closed_ports () =
  let base_port = 49000 in
  let foreign = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind foreign (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + 12));
  let foreign_open = ref true in
  let close_foreign () =
    if !foreign_open then begin
      foreign_open := false;
      Unix.close foreign
    end
  in
  let d = make_slice ~first:0 ~base_port () in
  Fun.protect
    ~finally:(fun () ->
      Driver.shutdown d;
      close_foreign ())
    (fun () ->
      Driver.add_periodic d ~every:0.3 close_foreign;
      Driver.run d ~duration:0.8;
      let stats = Driver.statistics d in
      Alcotest.(check bool) "the run kept going" true (stats.Driver.actions > 100);
      Alcotest.(check bool) "datagrams kept flowing" true
        (stats.Driver.datagrams_emitted > 0);
      Alcotest.(check int) "no decode errors" 0 stats.Driver.decode_errors)

(* Two slices in sibling domains: batches flow across the slice boundary
   from the first send — every emitted datagram is a batch and every
   message rides in a frame. *)
let test_driver_slices_batch () =
  let base_port = 49050 in
  let a = make_slice ~first:0 ~base_port () in
  let b = make_slice ~first:8 ~base_port () in
  Fun.protect
    ~finally:(fun () ->
      Driver.shutdown a;
      Driver.shutdown b)
    (fun () ->
      let slices = [| a; b |] in
      Sf_engine.Par.run ~domains:2 ~tasks:2 (fun i ->
          Driver.run slices.(i) ~duration:1.0);
      Array.iter
        (fun d ->
          let s = Driver.statistics d in
          Alcotest.(check bool) "batches flowed" true (s.Driver.batches_sent > 0);
          Alcotest.(check int) "every datagram is a batch" s.Driver.batches_sent
            s.Driver.datagrams_emitted;
          Alcotest.(check int) "every message rode a frame" s.Driver.datagrams_sent
            s.Driver.frames_sent;
          Alcotest.(check bool) "messages were delivered" true
            (s.Driver.messages_received > 0);
          Alcotest.(check int) "no decode errors" 0 s.Driver.decode_errors)
        slices)

(* A foreign socket plays a v1 peer: it sends historical v1 messages and
   hellos to a running driver.  The driver counts each as a decode error,
   never answers, and keeps gossiping. *)
let test_driver_counts_retired_datagrams () =
  let base_port = 49100 in
  let d = make_slice ~n:8 ~count:8 ~first:0 ~base_port () in
  let foreign = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Driver.shutdown d;
      Unix.close foreign)
    (fun () ->
      Unix.bind foreign (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.set_nonblock foreign;
      let sent = ref 0 in
      let send_old () =
        List.iter
          (fun packet ->
            incr sent;
            ignore
              (Unix.sendto foreign packet 0 (Bytes.length packet) []
                 (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + (!sent mod 8)))))
          [ v1_datagram (); hello_datagram ~lo:49100 ~hi:49107 ]
      in
      send_old ();
      Driver.add_periodic d ~every:0.1 send_old;
      Driver.run d ~duration:0.8;
      let s = Driver.statistics d in
      Alcotest.(check bool)
        (Printf.sprintf "old datagrams counted as decode errors (%d of %d)"
           s.Driver.decode_errors !sent)
        true
        (s.Driver.decode_errors >= 2 && s.Driver.decode_errors <= !sent);
      Alcotest.(check bool) "the run kept gossiping" true
        (s.Driver.actions > 100 && s.Driver.messages_received > 0);
      Alcotest.(check bool) "nothing was answered" true
        (match Unix.recvfrom foreign (Bytes.create 64) 0 64 [] with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
        | _ -> false))

(* A forged peer sends CRC-clean frames whose ids or anchors no view can
   hold (the wire carries int64s; views hold 32-bit ids).  The driver
   counts each as a decode error instead of crashing in the receive
   step.  A frame born past 2^31 actions is legitimate — a long-lived
   peer's — and is delivered. *)
let test_driver_refuses_out_of_lane_frames () =
  let base_port = 49400 in
  let d = make_slice ~n:8 ~count:8 ~first:0 ~base_port () in
  let foreign = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Driver.shutdown d;
      Unix.close foreign)
    (fun () ->
      Unix.bind foreign (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      let entry ?anchor ?(born = 0) id = { Sf_core.View.id; serial = 1; anchor; born } in
      let frame r m = { Sf_core.Protocol.reinforcement = r; mixing = m } in
      let forged =
        [
          frame (entry 1) (entry (1 lsl 40));
          frame (entry (-5)) (entry 2);
          frame (entry 1) (entry ~anchor:(1 lsl 33) 2);
        ]
      in
      let long_lived = frame (entry ~born:(1 lsl 40) 1) (entry ~born:(1 lsl 40) 2) in
      let sent = ref 0 in
      let send_forged () =
        incr sent;
        List.iter
          (fun packet ->
            ignore
              (Unix.sendto foreign packet 0 (Bytes.length packet) []
                 (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + (!sent mod 8)))))
          (Codec.encode_batch (long_lived :: forged))
      in
      send_forged ();
      Driver.add_periodic d ~every:0.1 send_forged;
      Driver.run d ~duration:0.6;
      let s = Driver.statistics d in
      let forged_sent = List.length forged * !sent in
      Alcotest.(check bool)
        (Printf.sprintf "forged frames counted as decode errors (%d of %d)"
           s.Driver.decode_errors forged_sent)
        true
        (s.Driver.decode_errors >= List.length forged
        && s.Driver.decode_errors <= forged_sent
        && s.Driver.decode_errors mod List.length forged = 0);
      Alcotest.(check bool) "the run kept gossiping" true
        (s.Driver.actions > 100 && s.Driver.messages_received > 0))

(* --- Node-host and spawner --- *)

module Nodehost = Sf_net.Nodehost
module Spawner = Sf_net.Spawner

(* The replies [handle_command] sends for [line], as strings with their
   newlines. *)
let command_replies c line =
  let replies = ref [] in
  let reply packet length = replies := Bytes.sub_string packet 0 length :: !replies in
  Nodehost.handle_command c ~reply (Bytes.of_string line) 0 (String.length line);
  List.rev !replies

let test_nodehost_commands () =
  let d = make_slice ~first:0 ~count:8 ~n:8 ~base_port:49200 () in
  Fun.protect
    ~finally:(fun () -> Driver.shutdown d)
    (fun () ->
      let c = Nodehost.control d in
      Alcotest.(check (list string)) "pong carries our pid"
        [ Printf.sprintf "pong %d\n" (Unix.getpid ()) ]
        (command_replies c "ping");
      let lines = command_replies c "snapshot" in
      Alcotest.(check int) "snapshot reports every owned node and a terminator" 9
        (List.length lines);
      Alcotest.(check bool) "snapshot lines are view lines" true
        (List.for_all
           (fun l -> String.length l >= 4 && String.sub l 0 4 = "view")
           (List.filteri (fun i _ -> i < 8) lines));
      (match List.rev lines with
      | "end\n" :: _ -> ()
      | _ -> Alcotest.fail "snapshot must end with end");
      Alcotest.(check (list string)) "filter commands are silent" []
        (command_replies c "filter 2" @ command_replies c "filter off");
      Alcotest.(check (list string)) "unknown commands answer err"
        [ "err unknown-command\n" ] (command_replies c "bogus nonsense");
      Alcotest.(check int) "one command rejected" 1 (Nodehost.control_rejected c))

(* The replies the control grammar gives [line]: split on single spaces
   after [String.trim], as the node-host parsed commands before it
   matched them in place. *)
let reference_replies d line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "" ] | [ "stop" ] | [ "filter"; "off" ] -> []
  | [ "snapshot" ] ->
    List.of_seq
      (Seq.init (Driver.node_count d) (fun i ->
           Nodehost.view_line (Driver.first d + i) (View.copy_row (Driver.store d) i)
           ^ "\n"))
    @ [ "end\n" ]
  | [ "filter"; k ] -> (
    match int_of_string_opt k with
    | Some parts when parts >= 2 -> []
    | _ -> [ "err bad-filter\n" ])
  | [ "ping" ] -> [ Printf.sprintf "pong %d\n" (Unix.getpid ()) ]
  | _ -> [ "err unknown-command\n" ]

(* Number-like words: signs, base prefixes, digits of every base,
   underscores and runs long enough to overflow. *)
let number_gen =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:(oneofl (String.to_seq "0123456789abcdefxXoObBuU_+-" |> List.of_seq))
          (int_range 0 24);
        oneofl
          [ "2"; "1"; "0"; "-2"; "+2"; "0x10"; "0b11"; "0o7"; "0u5"; "1_0"; "_1"; "0x";
            "0x_1"; "-"; "99999999999999999999"; "4611686018427387903";
            "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
            "0x3fffffffffffffff"; "0x4000000000000000"; "0x7fffffffffffffff";
            "0x8000000000000000"; "-0x7ffffffffffffffe"; "-0x7fffffffffffffff";
            "0u9223372036854775807"; "0u9223372036854775808" ];
      ])

(* Control lines: arbitrary bytes up to the control socket's 512-byte
   buffer, and lines assembled from the grammar's words, numbers and
   the separators [String.trim] and the split treat differently. *)
let control_line_gen =
  QCheck.Gen.(
    let word =
      oneof
        [ oneofl [ "ping"; "stop"; "snapshot"; "filter"; "off"; "pingx"; "" ]; number_gen ]
    in
    let sep = oneofl [ " "; " "; " "; "  "; "\t"; "\r"; "\n"; "\r\n"; "\012"; "\000"; "" ] in
    let assembled =
      let* words = list_size (int_range 0 4) (pair sep word) in
      let* tail = sep in
      return (String.concat "" (List.map (fun (s, w) -> s ^ w) words) ^ tail)
    in
    oneof
      [
        string_size ~gen:char (int_range 0 512);
        assembled;
        map (fun k -> "filter " ^ k) number_gen;
      ])

(* Arbitrary control lines never raise, and each gets exactly the
   replies the grammar gives it; each [err] reply counts one rejected
   command. *)
let test_nodehost_command_fuzz () =
  let d = make_slice ~first:0 ~count:8 ~n:8 ~base_port:49200 () in
  Fun.protect
    ~finally:(fun () -> Driver.shutdown d)
    (fun () ->
      let c = Nodehost.control d in
      let rejected_by replies =
        List.length (List.filter (String.starts_with ~prefix:"err ") replies)
      in
      QCheck.Test.check_exn
        (QCheck.Test.make ~name:"nodehost control lines" ~count:3000
           (QCheck.make ~print:(Printf.sprintf "%S") control_line_gen)
           (fun line ->
             let before = Nodehost.control_rejected c in
             let expected = reference_replies d line in
             command_replies c line = expected
             && Nodehost.control_rejected c - before = rejected_by expected));
      let table =
        [
          (" ping\r\n", [ Printf.sprintf "pong %d\n" (Unix.getpid ()) ]);
          ("pingx", [ "err unknown-command\n" ]);
          ("ping extra", [ "err unknown-command\n" ]);
          ("filter  2", [ "err unknown-command\n" ]);
          ("filter\t2", [ "err unknown-command\n" ]);
          ("filter 1", [ "err bad-filter\n" ]);
          ("filter -2", [ "err bad-filter\n" ]);
          ("filter 99999999999999999999", [ "err bad-filter\n" ]);
          ("filter 2\n", []);
          ("filter off", []);
          ("", []);
          ("\n", []);
        ]
      in
      let before = Nodehost.control_rejected c in
      List.iter
        (fun (line, expected) ->
          Alcotest.(check (list string)) (Printf.sprintf "%S" line) expected
            (command_replies c line);
          Alcotest.(check (list string)) (Printf.sprintf "%S as before" line)
            (reference_replies d line) expected)
        table;
      Alcotest.(check int) "each err reply counted"
        (rejected_by (List.concat_map snd table))
        (Nodehost.control_rejected c - before))

(* [read_int] reads a slice as [int_of_string_opt] reads the string. *)
let prop_read_int =
  QCheck.Test.make ~name:"nodehost read_int is int_of_string_opt" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") number_gen)
    (fun word ->
      (* The word sits inside other bytes, which must not be read. *)
      let b = Bytes.of_string ("0x" ^ word ^ "7_") in
      Nodehost.read_int b 2 (2 + String.length word) = int_of_string_opt word)

let test_nodehost_view_line () =
  let view = View.create 4 in
  Alcotest.(check string) "empty view renders as a dash" "view 3 -"
    (Nodehost.view_line 3 view);
  View.set view 0 (entry ~serial:123 ~anchor:(Some 5) ~born:42 7);
  View.set view 1 (entry ~serial:456 ~born:43 9);
  Alcotest.(check string) "entries render id:serial:anchor:born"
    "view 3 7:123:5:42,9:456:-1:43"
    (Nodehost.view_line 3 view)

(* Several anchored and unanchored entries with numbers of every width:
   the line lists them in slot order as [id:serial:anchor:born], anchor
   -1 for none.  A removal moves the last entry into the freed slot. *)
let test_nodehost_view_line_entries () =
  let view = View.create 8 in
  List.iter
    (fun (slot, e) -> View.set view slot e)
    [
      (0, entry ~serial:1_000_000_007 ~anchor:(Some 0) ~born:0 12);
      (1, entry ~serial:5 ~born:123_456 0);
      (2, entry ~serial:98 ~anchor:(Some 31) ~born:7 31);
      (3, entry ~serial:(1 lsl 40) ~born:(1 lsl 35) 2);
    ];
  Alcotest.(check string) "entries in slot order"
    "view 42 12:1000000007:0:0,0:5:-1:123456,31:98:31:7,2:1099511627776:-1:34359738368"
    (Nodehost.view_line 42 view);
  View.Flat.remove view 0 3;
  View.Flat.remove view 0 0;
  Alcotest.(check string) "removed entries drop out"
    "view 0 31:98:31:7,0:5:-1:123456" (Nodehost.view_line 0 view)

let test_line_reader () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  let lines = ref [] and eofs = ref 0 in
  let reader =
    Nodehost.line_reader r
      ~on_line:(fun l -> lines := l :: !lines)
      ~on_eof:(fun () -> incr eofs)
  in
  let write s = ignore (Unix.write_substring w s 0 (String.length s)) in
  write "one\ntw";
  reader ();
  Alcotest.(check (list string)) "complete lines fire, partials wait" [ "one" ]
    (List.rev !lines);
  write "o\nthree\n";
  reader ();
  Alcotest.(check (list string)) "split lines reassemble"
    [ "one"; "two"; "three" ] (List.rev !lines);
  Unix.close w;
  reader ();
  reader ();
  Alcotest.(check int) "eof fires exactly once" 1 !eofs;
  Unix.close r

(* End-to-end process smoke: fork two real node-hosts through the
   spawner, let them gossip briefly, and check the merged outcome —
   the stop protocol completed, every node reported a view, and
   heartbeats arrived. *)
let test_spawner_smoke () =
  let cfg =
    Spawner.make_config ~hosts:2 ~nodes_per_host:4 ~base_port:49160
      ~scenario:Sf_faults.Scenario.default ~seed:11 ~duration:0.6
      ~heartbeat:0.1 ~hb_timeout:5.0 ()
  in
  let o = Spawner.run cfg in
  Alcotest.(check int) "two hosts ran" 2 (List.length o.Spawner.hosts);
  Alcotest.(check bool) "both hosts completed the stop protocol" true
    (List.for_all (fun h -> h.Spawner.bye) o.Spawner.hosts);
  Alcotest.(check int) "every node reported a final view" 8
    (List.length o.Spawner.merged_views);
  Alcotest.(check bool) "heartbeats arrived" true (o.Spawner.heartbeats > 0);
  Alcotest.(check int) "nothing was killed" 0 o.Spawner.kills;
  Alcotest.(check int) "nothing died unexpectedly" 0 o.Spawner.unexpected_deaths;
  List.iter
    (fun (id, entries) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d view within M1 bounds and even" id)
        true
        (List.length entries <= 12 && List.length entries mod 2 = 0))
    o.Spawner.merged_views

(* The v2 batch layout, reconstructed independently of the encoder: the
   4-byte header (magic, version, kind = batch, count), then one 68-byte
   frame — two entries of four int64 LE fields each (id, serial, anchor
   with None as -1, born) followed by the CRC-32 of those 64 payload bytes
   as u32 LE.  The CRC constant was computed outside this codebase; the
   standard check value pins the CRC routine itself. *)
let test_v2_golden_bytes () =
  Alcotest.(check int) "CRC-32 check value" 0xCBF43926
    (Codec.crc32 (Bytes.of_string "123456789") ~pos:0 ~len:9);
  let expected = Bytes.create (4 + 68) in
  Bytes.set expected 0 '\xf5';
  Bytes.set expected 1 '\x02';
  Bytes.set expected 2 '\x01';
  Bytes.set expected 3 '\x01';
  let put off v = Bytes.set_int64_le expected off (Int64.of_int v) in
  (* reinforcement = { id = 7; serial = 123; anchor = Some 5; born = 42 } *)
  put 4 7;
  put 12 123;
  put 20 5;
  put 28 42;
  (* mixing = { id = 9; serial = 456; anchor = None; born = 43 } *)
  put 36 9;
  put 44 456;
  Bytes.set_int64_le expected 52 (-1L);
  put 60 43;
  Bytes.set_int32_le expected 68 (Int32.of_int 0xAFF64259);
  match Codec.encode_batch [ message ~anchor:(Some 5) () ] with
  | [ encoded ] ->
    Alcotest.(check string) "one-frame batch is byte-identical to the v2 layout"
      (Bytes.to_string expected) (Bytes.to_string encoded)
  | packets -> Alcotest.failf "expected 1 datagram, got %d" (List.length packets)

let test_cluster_port_validation () =
  let accepted ~n ~base_port =
    match make_cluster ~n ~base_port () with
    | exception Invalid_argument _ -> false
    | c ->
      Driver.shutdown c;
      true
  in
  Alcotest.(check bool) "privileged ports rejected" false
    (accepted ~n:24 ~base_port:80);
  Alcotest.(check bool) "a slice ending at port 65535 is accepted" true
    (accepted ~n:8 ~base_port:(65_535 - 7));
  Alcotest.(check bool) "a slice ending at port 65536 is rejected" false
    (accepted ~n:8 ~base_port:(65_535 - 6))

(* Decoder fuzz: arbitrary bytes up to the receive-buffer size, plus
   valid batches with random byte flips and truncations.  The decoder
   never raises, never yields more than [max_batch] messages, and never
   accounts for more frames than the header declares.  Each input is
   decoded from a buffer of exactly [length] bytes, so a read past the
   datagram's end raises instead of passing unnoticed. *)
let prop_decoder_fuzz =
  let arbitrary_bytes =
    QCheck.Gen.(
      let* b = bytes_size (int_range 0 Codec.recv_buffer_size) in
      return (b, Bytes.length b))
  in
  let damaged_batch =
    QCheck.Gen.(
      let* msgs = list_size (int_range 1 Codec.max_batch) message_gen in
      let* flips = list_size (int_range 0 6) (pair nat (int_range 1 255)) in
      let* cut = float_bound_inclusive 1.0 in
      let packet =
        match Codec.encode_batch msgs with [ p ] -> p | _ -> assert false
      in
      let len = Bytes.length packet in
      List.iter
        (fun (pos, mask) ->
          let pos = pos mod len in
          Bytes.set packet pos (Char.chr (Char.code (Bytes.get packet pos) lxor mask)))
        flips;
      return (packet, min len (int_of_float (cut *. float_of_int (len + 1)))))
  in
  let print (b, length) =
    Printf.sprintf "length %d of %S" length (Bytes.to_string b)
  in
  QCheck.Test.make ~name:"codec decoder fuzz" ~count:2000
    (QCheck.make ~print (QCheck.Gen.oneof [ arbitrary_bytes; damaged_batch ]))
    (fun (b, length) ->
      let b = Bytes.sub b 0 length in
      match Codec.decode_datagram b ~length with
      | Error _ -> true
      | Ok (Codec.Batch batch) ->
        let decoded = List.length batch.Codec.messages in
        decoded <= Codec.max_batch
        && batch.Codec.bad_crc + decoded <= Char.code (Bytes.get b 3))

(* Supervised repair in the driver: an owned node whose view is cleared,
   and whose id no other view holds any more, stays isolated until the
   supervisor rebootstraps it from a live sibling; the next due probe
   finds it healthy and confirms the recovery. *)
let test_driver_supervised_repair () =
  let policy =
    Sf_resil.Policy.make ~retune:false ~solve:(fun ~loss:_ -> (4, 12)) ()
  in
  let n = 24 in
  let topology = Sf_core.Topology.regular (Sf_prng.Rng.create 5) ~n ~out_degree:4 in
  let c =
    Driver.create ~period:0.002 ~resilience:policy ~base_port:49600 ~n ~config
      ~loss_rate:0. ~seed:6 ~topology ()
  in
  Fun.protect
    ~finally:(fun () -> Driver.shutdown c)
    (fun () ->
      (* Row u is node u: the driver owns the whole space. *)
      let store = Driver.store c in
      ignore (View.Flat.clear_row store 0);
      for u = 1 to n - 1 do
        for slot = 0 to View.Flat.view_size store - 1 do
          if View.Flat.id_at store u slot = 0 then
            View.Flat.set store u slot ~id:(if u = 1 then 2 else 1)
              ~serial:(View.Flat.serial_at store u slot)
              ~anchor:(View.Flat.anchor_at store u slot)
              ~born:(View.Flat.born_at store u slot)
        done
      done;
      Driver.run c ~duration:0.5;
      let stats = Driver.statistics c in
      Alcotest.(check bool)
        (Printf.sprintf "repairs attempted (%d)" stats.Driver.repair_attempts)
        true
        (stats.Driver.repair_attempts >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "recoveries confirmed (%d)" stats.Driver.recoveries)
        true
        (stats.Driver.recoveries >= 1);
      Alcotest.(check bool) "the cleared node has a view again" true
        (row_ids c 0 <> []))

(* A repair whose donor's view holds nothing but the repaired node's own
   id still installs the donor's id, padded up to dL = 4, and never an
   empty view.  Node 0 starts isolated, node 1 holds only
   [0; 0], and a two-block filter drops every datagram between them, so
   only the supervisor's repair can give node 0 a view. *)
let test_driver_repair_from_self_only_donor () =
  let policy =
    Sf_resil.Policy.make ~retune:false ~solve:(fun ~loss:_ -> (4, 12)) ()
  in
  let topology u = if u = 0 then [] else [ 0; 0 ] in
  let c =
    Driver.create ~period:0.002 ~resilience:policy ~base_port:49630 ~n:2 ~config
      ~loss_rate:0. ~seed:7 ~topology ()
  in
  Fun.protect
    ~finally:(fun () -> Driver.shutdown c)
    (fun () ->
      Driver.set_partition_filter c ~parts:(Some 2);
      Driver.run c ~duration:0.3;
      let stats = Driver.statistics c in
      Alcotest.(check bool)
        (Printf.sprintf "repairs attempted (%d)" stats.Driver.repair_attempts)
        true
        (stats.Driver.repair_attempts >= 1);
      Alcotest.(check (list (pair int int)))
        "the donor's id up to dL, anchored at the donor"
        [ (1, 1); (1, 1); (1, 1); (1, 1) ]
        (row_ids c 0))

(* --- Virtual-clock driver runs ---

   One driver owns the whole id space under a virtual clock that a
   periodic callback advances by one fixed step per loop iteration.  The
   run is then a function of the seed alone: Linux loopback UDP hands
   each datagram to its socket within the sendto, so every batch flushed
   in an iteration is drained by the select that follows it, in socket
   order. *)

let virtual_period = 0.01

let virtual_driver ?scenario ?resilience ~steps ~n ~base_port ~seed () =
  let clock = ref 0. in
  let step = virtual_period /. float_of_int steps in
  let topology = Sf_core.Topology.regular (Sf_prng.Rng.create 5) ~n ~out_degree:4 in
  let d =
    Driver.create ~period:virtual_period ~now:(fun () -> !clock) ?scenario
      ?resilience ~base_port ~n ~config ~loss_rate:0.05 ~seed ~topology ()
  in
  Driver.add_periodic d ~every:step (fun () -> clock := !clock +. step);
  (* The tick falls due at [step]: start there, so every iteration
     advances the clock. *)
  clock := step;
  d

let run_periods d periods =
  Driver.run d ~duration:(float_of_int periods *. virtual_period)

(* Every instance of every owned view and every statistics field, as
   one digest. *)
let driver_digest d =
  let b = Buffer.create 4096 in
  let add_int k =
    Buffer.add_string b (string_of_int k);
    Buffer.add_char b ' '
  in
  let store = Driver.store d in
  for i = 0 to Driver.node_count d - 1 do
    add_int (Driver.first d + i);
    for slot = 0 to View.Flat.degree store i - 1 do
      List.iter add_int
        [ slot; View.Flat.id_at store i slot; View.Flat.serial_at store i slot;
          View.Flat.anchor_at store i slot; View.Flat.born_at store i slot ]
    done;
    Buffer.add_char b '\n'
  done;
  let s = Driver.statistics d in
  List.iter add_int
    [ s.Driver.actions; s.Driver.datagrams_sent; s.Driver.datagrams_dropped;
      s.Driver.datagrams_received; s.Driver.datagrams_corrupted;
      s.Driver.datagrams_delayed; s.Driver.datagrams_crash_dropped;
      s.Driver.datagrams_oversized; s.Driver.datagrams_truncated;
      s.Driver.decode_errors; s.Driver.send_errors; s.Driver.rejoins;
      s.Driver.retunes; s.Driver.datagrams_emitted; s.Driver.messages_received;
      s.Driver.batches_sent; s.Driver.frames_sent; s.Driver.frames_crc_rejected;
      s.Driver.datagrams_filtered; s.Driver.repair_attempts; s.Driver.recoveries ];
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Known answer: 16 nodes for 30 virtual periods under bursty loss, a
   corrupt window, a delay window and a frozen crash range.  The digest
   pins every RNG draw (slot pairs, verdicts, receive slots, timer
   jitter), the order serials are minted in, and every counter: a change
   that moves any of them changes the digest. *)
let test_driver_replay () =
  let scenario =
    match Sf_faults.Scenario.of_string "ge:0.2:4;corrupt@5-15:0.2;delay@18-22:2;crash@8-12:3-5" with
    | Ok sc -> sc
    | Error e -> Alcotest.fail ("scenario parse: " ^ e)
  in
  let d = virtual_driver ~scenario ~steps:5 ~n:16 ~base_port:49700 ~seed:9 () in
  Fun.protect
    ~finally:(fun () -> Driver.shutdown d)
    (fun () ->
      run_periods d 30;
      let s = Driver.statistics d in
      Alcotest.(check bool) "the run crossed every fault path" true
        (s.Driver.frames_crc_rejected > 0 && s.Driver.datagrams_delayed > 0
        && s.Driver.datagrams_dropped > 0);
      Alcotest.(check string) "views and statistics digest"
        "8a20450f68af3bdc52c0836fea0e6ddc" (driver_digest d))

(* Known answer for crash-restart under resilience: 16 nodes for 40
   virtual periods, retuning and recovering, under bursty loss, a corrupt
   window and two crash windows, the first covering every node.  Node 0
   starts with an empty view, so its restart finds no live sibling to
   copy from, and only the repair probe gives it a view again.  The
   digest pins the restored views, the repair's donor draw and every
   counter. *)
let test_driver_crash_restart_replay () =
  let scenario =
    match
      Sf_faults.Scenario.of_string "ge:0.2:4;crash@0-3:0-15;corrupt@5-15:0.2;crash@20-25:4-9"
    with
    | Ok sc -> sc
    | Error e -> Alcotest.fail ("scenario parse: " ^ e)
  in
  let resilience =
    Sf_resil.Policy.make ~estimator_window:8
      ~solve:(fun ~loss -> if loss > 0.1 then (6, 12) else (4, 12))
      ()
  in
  let d =
    virtual_driver ~scenario ~resilience ~steps:5 ~n:16 ~base_port:49950 ~seed:11 ()
  in
  Fun.protect
    ~finally:(fun () -> Driver.shutdown d)
    (fun () ->
      ignore (View.Flat.clear_row (Driver.store d) 0);
      run_periods d 40;
      let s = Driver.statistics d in
      Alcotest.(check bool) "the run crossed every crash-restart path" true
        (s.Driver.rejoins > 0 && s.Driver.repair_attempts > 0
        && s.Driver.recoveries > 0 && s.Driver.frames_crc_rejected > 0);
      Alcotest.(check string) "views and statistics digest"
        "008797d4d6038571c051c4108d8e30d5" (driver_digest d))

(* Known answer for the retune path: 16 nodes for 40 virtual periods
   under bursty loss, with a crash window that restarts six nodes late
   in the run.  Short estimator windows, no dead band and a solver that
   splits at loss 0.1 make the per-row tuners retune in both directions.
   A retuned dL is read by the row's later initiations and by its
   rejoin, so the digest pins both. *)
let test_driver_retune_replay () =
  let scenario =
    match Sf_faults.Scenario.of_string "ge:0.2:4;crash@28-33:4-9" with
    | Ok sc -> sc
    | Error e -> Alcotest.fail ("scenario parse: " ^ e)
  in
  let resilience =
    Sf_resil.Policy.make ~estimator_window:4 ~hysteresis:0. ~cooldown:2
      ~solve:(fun ~loss -> ((if loss > 0.1 then 6 else 2), 12))
      ()
  in
  let d =
    virtual_driver ~scenario ~resilience ~steps:5 ~n:16 ~base_port:48700 ~seed:13 ()
  in
  Fun.protect
    ~finally:(fun () -> Driver.shutdown d)
    (fun () ->
      run_periods d 40;
      let s = Driver.statistics d in
      let dls = List.init (Driver.node_count d) (Driver.live_dl d) in
      Alcotest.(check bool) "the tuners retuned" true (s.Driver.retunes > 0);
      Alcotest.(check bool) "some row's live dL left the base" true
        (List.exists (fun dl -> dl <> config.Protocol.lower_threshold) dls);
      Alcotest.(check bool) "a crashed row rejoined" true (s.Driver.rejoins > 0);
      Alcotest.(check string) "views and statistics digest"
        "3c08efa7b808f7c978c7dd90d84aacf1" (driver_digest d))

(* After a warm-up, a 128-node driver's steady-state loop allocates
   only this test's own clock tick (a boxed float per iteration, read
   through the injected closure), nothing per message or per wait.
   Measured 2.01 words per action.  Floats box under bytecode, so this
   runs on the native backend only. *)
let test_driver_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let d = virtual_driver ~steps:128 ~n:128 ~base_port:49720 ~seed:3 () in
    Fun.protect
      ~finally:(fun () -> Driver.shutdown d)
      (fun () ->
        run_periods d 5;
        let before = (Driver.statistics d).Driver.actions in
        let w0 = Gc.minor_words () in
        run_periods d 20;
        let words = Gc.minor_words () -. w0 in
        let actions = (Driver.statistics d).Driver.actions - before in
        let per_action = words /. float_of_int actions in
        Printf.printf "driver: %.2f minor words per action\n" per_action;
        if per_action > 3. then
          Alcotest.failf "%.2f minor words per action (limit 3)" per_action)
  end

(* Building a 128-node driver under resilience, the node-host's shape
   (s = 20, dL = 12), allocates per owned node the start topology's list
   and array, the node's tuner and its share of the view store and
   bookkeeping arrays.  Measured 173 minor words per node; a node object
   graph of its own (a one-row store, a node record and counters in a
   per-node record) took 287.  Native only, like the other allocation
   tests. *)
let create_words_limit = 230.

let test_driver_create_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let n = 128 in
    let config = Protocol.make_config ~view_size:20 ~lower_threshold:12 in
    let topology = Sf_core.Topology.regular (Sf_prng.Rng.create 5) ~n ~out_degree:16 in
    let resilience = Sf_resil.Policy.make ~solve:(fun ~loss:_ -> (12, 20)) () in
    let w0 = Gc.minor_words () in
    let d =
      Driver.create ~resilience ~base_port:48500 ~n ~config ~loss_rate:0.05 ~seed:4
        ~topology ()
    in
    let words = Gc.minor_words () -. w0 in
    Driver.shutdown d;
    let per_node = words /. float_of_int n in
    Printf.printf "driver create: %.1f minor words per owned node\n" per_node;
    if per_node > create_words_limit then
      Alcotest.failf "%.1f minor words per owned node (limit %.0f)" per_node
        create_words_limit
  end

(* The production path: the wall clock read through its unboxed
   primitive (no [?now]), a 16-node slice of a 32-node space, so half the
   destinations are ports nobody reads.  After a warm-up the loop
   allocates nothing: the wait takes its timeout unboxed and writes its
   ready flags into the driver's own bytes.  Measured 0.00 words per
   action.  Native only. *)
let wall_clock_words_limit = 1.

let test_driver_wall_clock_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let d = make_slice ~n:32 ~count:16 ~first:0 ~base_port:49920 () in
    Fun.protect
      ~finally:(fun () -> Driver.shutdown d)
      (fun () ->
        Driver.run d ~duration:0.1;
        let before = Driver.actions d in
        let w0 = Gc.minor_words () in
        Driver.run d ~duration:0.4;
        let words = Gc.minor_words () -. w0 in
        let actions = Driver.actions d - before in
        let per_action = words /. float_of_int actions in
        Printf.printf "driver (wall clock): %.2f minor words per action over %d\n"
          per_action actions;
        if actions < 500 then Alcotest.failf "only %d actions" actions;
        if per_action > wall_clock_words_limit then
          Alcotest.failf "%.2f minor words per action (limit %.0f)" per_action
            wall_clock_words_limit)
  end

(* A socket with a backlog is served one datagram per wake: the rest
   stay queued, the socket stays readable, and the next iterations read
   them.  Forty retired v1 datagrams wait at node 0 before the run; two
   virtual periods are ten loop iterations, so at most ten are read, and
   the next ten periods read the rest. *)
let test_driver_one_datagram_per_wake () =
  let d = virtual_driver ~steps:5 ~n:8 ~base_port:49910 ~seed:4 () in
  let foreign = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Driver.shutdown d;
      Unix.close foreign)
    (fun () ->
      let packet = v1_datagram () in
      for _ = 1 to 40 do
        ignore
          (Unix.sendto foreign packet 0 (Bytes.length packet) []
             (Unix.ADDR_INET (Unix.inet_addr_loopback, 49910)))
      done;
      run_periods d 2;
      let early = (Driver.statistics d).Driver.decode_errors in
      Alcotest.(check bool)
        (Printf.sprintf "one read per wake (%d read in 10 iterations)" early)
        true
        (early >= 1 && early <= 10);
      run_periods d 10;
      Alcotest.(check int) "the backlog is read in the end" 40
        (Driver.statistics d).Driver.decode_errors)

let open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

(* A node's port is bound once, by [create], and held until [shutdown].
   A second driver whose slice overlaps the first's fails with
   EADDRINUSE at the first shared port, and closes the sockets it bound
   below it. *)
let test_driver_refuses_bound_ports () =
  let base_port = 49970 in
  let fds_before = open_fds () in
  let d = make_slice ~first:8 ~base_port () in
  let fds_held = open_fds () in
  Fun.protect
    ~finally:(fun () -> Driver.shutdown d)
    (fun () ->
      (match make_slice ~first:4 ~base_port () with
      | other ->
        Driver.shutdown other;
        Alcotest.fail "a second driver bound ports the first one holds"
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
      Alcotest.(check (option int)) "the refused driver left no socket open"
        fds_held (open_fds ()));
  Alcotest.(check (option int)) "shutdown closed every socket" fds_before
    (open_fds ())

(* A signal ends a long wait.  With no timer due for seconds the loop
   sleeps in its wait, with the runtime lock released; a one-shot
   SIGALRM interrupts it, its handler runs as the loop retries, and the
   [request_stop] it makes ends [run] at once rather than at the next
   timer or the deadline. *)
let test_driver_signal_ends_wait () =
  let topology = Sf_core.Topology.regular (Sf_prng.Rng.create 5) ~n:8 ~out_degree:4 in
  let d =
    Driver.create ~period:60. ~base_port:49986 ~n:8 ~config ~loss_rate:0. ~seed:6
      ~topology ()
  in
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> Driver.request_stop d))
  in
  let previous_timer =
    Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0.1 }
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL previous_timer);
      Sys.set_signal Sys.sigalrm previous;
      Driver.shutdown d)
    (fun () ->
      let start = Sf_obs.Clock.wall () in
      Driver.run d ~duration:5.0;
      let elapsed = Sf_obs.Clock.wall () -. start in
      Alcotest.(check bool)
        (Printf.sprintf "run returned %.3f s after start" elapsed)
        true (elapsed < 0.5))

(* The node-host binary's combined stdout and stderr, and its exit
   status, for [args] with [input] written to its stdin, which is then
   closed. *)
let run_nodehost ?(env = Unix.environment ()) ?(input = "") args =
  let binary =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/sf_nodehost.exe"
  in
  let out, inp, err =
    Unix.open_process_args_full binary (Array.append [| binary |] args) env
  in
  output_string inp input;
  close_out inp;
  let text = In_channel.input_all out ^ In_channel.input_all err in
  (text, Unix.close_process_full (out, inp, err))

let contains text sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length text && (String.sub text i n = sub || at (i + 1)) in
  at 0

(* A socket holding a loopback port the way a duplicate host would, with
   SO_REUSEADDR set: on Linux a second UDP socket that also sets it
   shares the port and takes its datagrams. *)
let reusable_holder port =
  let socket = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt socket Unix.SO_REUSEADDR true;
  Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  socket

(* The node-host's control socket is bound without SO_REUSEADDR, so a
   control port another socket holds fails the host's bind with
   EADDRINUSE: the host exits without reporting ready instead of sharing
   the port. *)
let test_nodehost_control_port_exclusive () =
  let holder = reusable_holder 49994 in
  Fun.protect
    ~finally:(fun () -> Unix.close holder)
    (fun () ->
      let text, status =
        run_nodehost
          [| "--per-host"; "8"; "--base-port"; "49995"; "--control-port"; "49994";
             "--duration"; "1" |]
      in
      let has prefix =
        List.exists (String.starts_with ~prefix) (String.split_on_char '\n' text)
      in
      Alcotest.(check bool) "the host never reported ready" false (has "ready");
      Alcotest.(check bool) "the host failed" true (status <> Unix.WEXITED 0);
      Alcotest.(check bool) ("the bind failed with EADDRINUSE:\n" ^ text) true
        (contains text "EADDRINUSE"))

(* The spawner's heartbeat socket is bound without SO_REUSEADDR: a
   heartbeat port another socket holds fails [Spawner.run] with
   EADDRINUSE before any host is forked, and the refused socket is
   closed. *)
let test_spawner_heartbeat_port_exclusive () =
  let cfg =
    Spawner.make_config ~hosts:1 ~nodes_per_host:8 ~base_port:50010
      ~scenario:Sf_faults.Scenario.default ~seed:11 ~duration:0.5
      ~heartbeat:0.1 ~hb_timeout:5.0 ()
  in
  let holder = reusable_holder (50010 - 1) in
  let fds_held = open_fds () in
  Fun.protect
    ~finally:(fun () -> Unix.close holder)
    (fun () ->
      (match Spawner.run cfg with
      | _ -> Alcotest.fail "the spawner bound a heartbeat port another socket holds"
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
      Alcotest.(check (option int)) "the refused socket was closed" fds_held
        (open_fds ()))

(* The node-host binary links only the libraries it uses, so module
   initialisation allocates little before its [main] runs.  An unknown
   option exits during argument parsing, and [OCAMLRUNPARAM=v=0x400]
   makes the runtime report its minor words at exit.  Linking the CLI's
   libraries too (compiler-libs, cmdliner, logs) would take it past 30k;
   measured 3364 (the CRC table string is ≈ 130 of them). *)
let nodehost_start_words_limit = 10_000

let test_nodehost_start_allocation () =
  let env = Array.append [| "OCAMLRUNPARAM=v=0x400" |] (Unix.environment ()) in
  let report, _ = run_nodehost ~env [| "--bogus" |] in
  let words =
    List.find_map
      (fun line -> Scanf.sscanf_opt line "minor_words: %d" Fun.id)
      (String.split_on_char '\n' report)
  in
  match words with
  | None -> Alcotest.failf "no minor_words line in:\n%s" report
  | Some words ->
    Printf.printf "sf_nodehost start-up: %d minor words\n" words;
    if words > nodehost_start_words_limit then
      Alcotest.failf "%d minor words before main (limit %d)" words
        nodehost_start_words_limit

(* A node-host's control socket on [port], bound as [Nodehost.main]
   binds it: loopback, non-blocking. *)
let control_socket port =
  let socket = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.set_nonblock socket;
  Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  socket

(* A controller's socket on an ephemeral loopback port; a read gives up
   after two seconds. *)
let control_client () =
  let socket = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.setsockopt_float socket Unix.SO_RCVTIMEO 2.0;
  socket

let send_command client port line =
  ignore
    (Unix.sendto_substring client line 0 (String.length line) []
       (Unix.ADDR_INET (Unix.inet_addr_loopback, port)))

let receive_reply client =
  let buffer = Bytes.create 128 in
  let length = Unix.recv client buffer 0 (Bytes.length buffer) [] in
  Bytes.sub_string buffer 0 length

let our_pong () = Printf.sprintf "pong %d\n" (Unix.getpid ())

(* Serving a ping through the control socket's callback allocates only
   [recvfrom]'s tuple and sockaddr (measured 8 words); parsing it into
   strings and formatting the reply took ≈ 294. *)
let control_words_limit = 16.

let test_nodehost_control_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let port = 49868 in
    let d = make_slice ~first:0 ~count:8 ~n:8 ~base_port:49860 () in
    let socket = control_socket port and client = control_client () in
    Fun.protect
      ~finally:(fun () ->
        Driver.shutdown d;
        Unix.close socket;
        Unix.close client)
      (fun () ->
        let serve = Nodehost.serve_control (Nodehost.control d) socket in
        let batch = 30 and batches = 10 in
        let words = ref 0. in
        for _ = 1 to batches do
          for _ = 1 to batch do
            send_command client port "ping"
          done;
          for _ = 1 to batch do
            let w0 = Gc.minor_words () in
            serve ();
            words := !words +. (Gc.minor_words () -. w0)
          done;
          for _ = 1 to batch do
            Alcotest.(check string) "every ping answered" (our_pong ())
              (receive_reply client)
          done
        done;
        let per_ping = !words /. float_of_int (batch * batches) in
        Printf.printf "control socket: %.2f minor words per ping over %d\n" per_ping
          (batch * batches);
        if per_ping > control_words_limit then
          Alcotest.failf "%.2f minor words per ping (limit %.0f)" per_ping
            control_words_limit)
  end

(* The control socket served by a running driver.  A burst of pings
   queued before one wake is read one datagram per call and answered in
   full over the following wakes; [filter 2], [filter off] and [stop]
   sent as datagrams act on the driver, whose slice (nodes 0-7 of 16)
   sends across a two-way split. *)
let test_nodehost_control_socket () =
  let port = 49880 in
  let d = make_slice ~first:0 ~count:8 ~n:16 ~base_port:49870 () in
  let socket = control_socket port and client = control_client () in
  Fun.protect
    ~finally:(fun () ->
      Driver.shutdown d;
      Unix.close socket;
      Unix.close client)
    (fun () ->
      let serve = Nodehost.serve_control (Nodehost.control d) socket in
      Driver.add_channel d socket serve;
      for _ = 1 to 20 do
        send_command client port "ping"
      done;
      serve ();
      Alcotest.(check string) "the first ping answered" (our_pong ())
        (receive_reply client);
      Unix.set_nonblock client;
      (match receive_reply client with
      | _ -> Alcotest.fail "one call read more than one datagram"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
      Unix.clear_nonblock client;
      Driver.run d ~duration:0.2;
      for k = 2 to 20 do
        Alcotest.(check string) (Printf.sprintf "ping %d answered" k) (our_pong ())
          (receive_reply client)
      done;
      let filtered () = (Driver.statistics d).Driver.datagrams_filtered in
      Alcotest.(check int) "nothing filtered yet" 0 (filtered ());
      send_command client port "filter 2";
      Driver.run d ~duration:0.2;
      Alcotest.(check bool) "filter 2 drops crossing datagrams" true (filtered () > 0);
      send_command client port "filter off\n";
      Driver.run d ~duration:0.1;
      let lifted = filtered () in
      Driver.run d ~duration:0.2;
      Alcotest.(check int) "filter off lifts the split" lifted (filtered ());
      send_command client port "stop";
      let start = Sf_obs.Clock.wall () in
      Driver.run d ~duration:5.0;
      let elapsed = Sf_obs.Clock.wall () -. start in
      Alcotest.(check bool)
        (Printf.sprintf "stop ended the run after %.3f s" elapsed)
        true (elapsed < 1.0))

(* Commands on stdin go through the same matcher, answered on stdout,
   and the stats line reports the rejected ones. *)
let test_nodehost_stdin_commands () =
  let text, status =
    run_nodehost ~input:"ping\nbogus\nfilter 1\nfilter 2\nstop\n"
      [| "--per-host"; "8"; "--base-port"; "49882"; "--control-port"; "49890";
         "--duration"; "5" |]
  in
  let lines = String.split_on_char '\n' text in
  Alcotest.(check (result unit string)) "clean exit" (Ok ())
    (if status = Unix.WEXITED 0 then Ok () else Error text);
  let pid =
    List.find_map (fun l -> Scanf.sscanf_opt l "ready %d %d" (fun _ pid -> pid)) lines
  in
  (match pid with
  | None -> Alcotest.failf "no ready line in:\n%s" text
  | Some pid ->
    Alcotest.(check bool) "ping answered with the host's pid" true
      (List.mem (Printf.sprintf "pong %d" pid) lines));
  List.iter
    (fun reply ->
      Alcotest.(check bool) reply true (List.mem reply lines))
    [ "err unknown-command"; "err bad-filter"; "bye" ];
  Alcotest.(check bool) ("stats report two rejected commands:\n" ^ text) true
    (List.exists
       (fun l ->
         String.starts_with ~prefix:"stats " l && contains l " control_rejected=2 ")
       lines)

(* Host i's control port is the spawner's to assign (base - 2 - i, next
   to the heartbeat sink at base - 1), so the host derives none: without
   --control-port it exits 2 before binding anything. *)
let test_nodehost_requires_control_port () =
  let text, status = run_nodehost [| "--per-host"; "4"; "--base-port"; "49730" |] in
  Alcotest.(check bool) ("exit 2:\n" ^ text) true (status = Unix.WEXITED 2);
  Alcotest.(check bool) "says why" true (contains text "--control-port")

let suite =
  [
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec None anchor" `Quick test_codec_none_anchor;
    Alcotest.test_case "codec truncated" `Quick test_codec_truncated;
    Alcotest.test_case "codec bad magic" `Quick test_codec_bad_magic;
    Alcotest.test_case "codec bad version" `Quick test_codec_bad_version;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    Alcotest.test_case "cluster converges (real UDP)" `Quick test_cluster_runs_and_converges;
    Alcotest.test_case "cluster loss injection" `Quick test_cluster_injected_loss_rate;
    Alcotest.test_case "cluster survives SIGALRM storms (EINTR)" `Quick
      test_cluster_survives_signals;
    Alcotest.test_case "cluster crash-restart rejoins" `Quick
      test_cluster_crash_restart;
    Alcotest.test_case "cluster port validation" `Quick test_cluster_port_validation;
    Alcotest.test_case "codec v2 batch roundtrip" `Quick test_v2_batch_roundtrip;
    Alcotest.test_case "codec v2 oversized batch splits" `Quick test_v2_batch_split;
    Alcotest.test_case "codec v2 truncated batch" `Quick test_v2_truncated_batch;
    Alcotest.test_case "codec v2 bad CRC rejects one frame" `Quick test_v2_bad_crc;
    Alcotest.test_case "codec rejects v1 and hello datagrams" `Quick
      test_retired_datagrams_rejected;
    Alcotest.test_case "codec recv buffer size" `Quick test_recv_buffer_size;
    Alcotest.test_case "driver survives closed ports mid-run" `Quick
      test_driver_closed_ports;
    Alcotest.test_case "driver slices batch across the boundary" `Quick
      test_driver_slices_batch;
    Alcotest.test_case "driver counts v1 and hello as errors" `Quick
      test_driver_counts_retired_datagrams;
    Alcotest.test_case "nodehost control commands" `Quick test_nodehost_commands;
    Alcotest.test_case "nodehost view report line" `Quick test_nodehost_view_line;
    Alcotest.test_case "nodehost view report line, several entries" `Quick
      test_nodehost_view_line_entries;
    Alcotest.test_case "nodehost line reader" `Quick test_line_reader;
    Alcotest.test_case "spawner forks real node-host processes" `Quick
      test_spawner_smoke;
    Alcotest.test_case "codec v2 golden bytes" `Quick test_v2_golden_bytes;
    QCheck_alcotest.to_alcotest prop_decoder_fuzz;
    Alcotest.test_case "driver refuses out-of-lane frames" `Quick
      test_driver_refuses_out_of_lane_frames;
    Alcotest.test_case "driver supervisor rebootstraps a cleared node" `Quick
      test_driver_supervised_repair;
    Alcotest.test_case "driver repair from a self-only donor" `Quick
      test_driver_repair_from_self_only_donor;
    Alcotest.test_case "driver known-answer replay" `Quick test_driver_replay;
    Alcotest.test_case "driver retune replay" `Quick test_driver_retune_replay;
    Alcotest.test_case "driver crash-restart replay" `Quick
      test_driver_crash_restart_replay;
    Alcotest.test_case "driver steady-state allocation" `Quick test_driver_allocation;
    Alcotest.test_case "driver create allocation" `Quick test_driver_create_allocation;
    Alcotest.test_case "driver wall-clock allocation" `Quick
      test_driver_wall_clock_allocation;
    Alcotest.test_case "driver reads one datagram per wake" `Quick
      test_driver_one_datagram_per_wake;
    Alcotest.test_case "driver refuses ports already bound" `Quick
      test_driver_refuses_bound_ports;
    Alcotest.test_case "nodehost start-up allocation" `Quick
      test_nodehost_start_allocation;
    QCheck_alcotest.to_alcotest prop_crc32_table;
    Alcotest.test_case "driver signal ends a long wait" `Quick
      test_driver_signal_ends_wait;
    Alcotest.test_case "nodehost control port is exclusive" `Quick
      test_nodehost_control_port_exclusive;
    Alcotest.test_case "spawner heartbeat port is exclusive" `Quick
      test_spawner_heartbeat_port_exclusive;
    Alcotest.test_case "nodehost control socket allocation" `Quick
      test_nodehost_control_allocation;
    Alcotest.test_case "nodehost control socket serves a burst, filter and stop"
      `Quick test_nodehost_control_socket;
    Alcotest.test_case "nodehost stdin commands and rejected count" `Quick
      test_nodehost_stdin_commands;
    Alcotest.test_case "nodehost control line fuzz" `Quick test_nodehost_command_fuzz;
    QCheck_alcotest.to_alcotest prop_read_int;
    Alcotest.test_case "nodehost requires --control-port" `Quick
      test_nodehost_requires_control_port;
  ]
