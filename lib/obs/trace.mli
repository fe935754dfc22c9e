(** Event tracer: fixed-capacity ring buffer of typed trace records.

    Recording is O(1); the oldest records are overwritten once the ring
    wraps ({!dropped} counts the overwritten ones).  Timestamps come from
    the caller's {e injected} clock — sim ticks, virtual time, or the
    cluster's [?now] — never an ambient clock, so equal-seed runs dump
    byte-identical traces. *)

type event =
  | Send of { src : int; dst : int; duplicated : bool }
  | Deliver of { dst : int; accepted : bool }
  | Drop of { src : int; dst : int; cause : string }
  | Duplicate of { node : int }  (** initiate kept its entries (d <= dL) *)
  | Delete of { node : int }  (** receive at a full view dropped both ids *)
  | Timer of { node : int }  (** a timed-mode or cluster timer fired *)
  | Fault of { transition : string }  (** fault-window boundary crossing *)
  | Mark of { label : string }  (** structural annotation (join/leave/...) *)

type record = { at : float; seq : int; event : event }

type t

val create : capacity:int -> t
(** Fixed capacity, allocated once.  Raises [Invalid_argument] on a
    non-positive capacity. *)

val record : t -> now:float -> event -> unit
(** Append a record stamped [now]; overwrites the oldest once full. *)

val recorded : t -> int
(** Total records ever offered (also the next sequence number). *)

val length : t -> int
(** Records currently held (= min recorded capacity). *)

val dropped : t -> int
(** Records lost to wraparound (= recorded - length). *)

val records : t -> record list
(** Surviving records, oldest first. *)

val to_jsonl : t -> string
(** One JSON object per line, oldest first.  Deterministic: equal traces
    render to identical bytes. *)

val clear : t -> unit
