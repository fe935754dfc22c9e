(* Event tracer: a fixed-capacity ring buffer of typed trace records.

   Recording is O(1) and allocation-light (one record per event, no
   resizing, oldest records overwritten); dumping renders JSONL through
   the deterministic Json emitter.  Timestamps are supplied by the caller
   from its *injected* clock — sim ticks in the sequential runner, virtual
   time in timed mode, the injected [?now] in the UDP cluster — never from
   an ambient clock, so two runs with the same seed dump byte-identical
   traces. *)

type event =
  | Send of { src : int; dst : int; duplicated : bool }
  | Deliver of { dst : int; accepted : bool }
  | Drop of { src : int; dst : int; cause : string }
  | Duplicate of { node : int }
  | Delete of { node : int }
  | Timer of { node : int }
  | Fault of { transition : string }
  | Mark of { label : string }

type record = { at : float; seq : int; event : event }

(* The ring is two parallel arrays — a flat float array for the stamps and
   a boxed array for the events — instead of a [record option array], so
   recording allocates nothing: the stamp store is a raw unboxed write and
   the event store replaces a pointer.  Sequence numbers are implicit
   (slot = seq mod capacity); the boxed records surface only on read. *)
type t = {
  ats : float array;
  events : event array;
  mutable next_seq : int;  (* total records ever offered; also next seq *)
}

let unused_slot = Mark { label = "" }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    ats = Array.make capacity 0.;
    events = Array.make capacity unused_slot;
    next_seq = 0;
  }

let record t ~now event =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let slot = seq mod Array.length t.events in
  t.ats.(slot) <- now;
  t.events.(slot) <- event

let recorded t = t.next_seq

let length t = min t.next_seq (Array.length t.events)

(* Records overwritten by wraparound. *)
let dropped t = max 0 (t.next_seq - Array.length t.events)

let clear t =
  Array.fill t.events 0 (Array.length t.events) unused_slot;
  t.next_seq <- 0

(* Surviving records, oldest first. *)
let records t =
  let cap = Array.length t.events in
  let first = max 0 (t.next_seq - cap) in
  let out = ref [] in
  for seq = t.next_seq - 1 downto first do
    let slot = seq mod cap in
    out := { at = t.ats.(slot); seq; event = t.events.(slot) } :: !out
  done;
  !out

let event_json = function
  | Send { src; dst; duplicated } ->
    [
      ("ev", Json.String "send");
      ("src", Json.Int src);
      ("dst", Json.Int dst);
      ("dup", Json.Bool duplicated);
    ]
  | Deliver { dst; accepted } ->
    [ ("ev", Json.String "deliver"); ("dst", Json.Int dst); ("ok", Json.Bool accepted) ]
  | Drop { src; dst; cause } ->
    [
      ("ev", Json.String "drop");
      ("src", Json.Int src);
      ("dst", Json.Int dst);
      ("cause", Json.String cause);
    ]
  | Duplicate { node } -> [ ("ev", Json.String "duplicate"); ("node", Json.Int node) ]
  | Delete { node } -> [ ("ev", Json.String "delete"); ("node", Json.Int node) ]
  | Timer { node } -> [ ("ev", Json.String "timer"); ("node", Json.Int node) ]
  | Fault { transition } ->
    [ ("ev", Json.String "fault"); ("transition", Json.String transition) ]
  | Mark { label } -> [ ("ev", Json.String "mark"); ("label", Json.String label) ]

let record_json r =
  Json.Obj ((("t", Json.Float r.at) :: ("seq", Json.Int r.seq) :: event_json r.event))

(* One JSON object per line, oldest record first. *)
let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Json.to_buffer buf (record_json r);
      Buffer.add_char buf '\n')
    (records t);
  Buffer.contents buf
