(* Metrics registry: named counters, gauges and log-bucketed histograms.

   Everything is allocated once at registration; the hot-path operations
   ([incr], [add], [set], [observe]) are plain field updates or a single
   array increment, so instrumented gossip runs cost the same as the
   ad-hoc mutable counters they replaced.  Export (Prometheus text, CSV)
   walks the registry in name order, so snapshots of equal state are
   byte-identical.

   Histograms are HDR-style: base-2 octaves (one per binary exponent of
   the value) each split into [sub_buckets_per_octave] linear sub-buckets.
   Bucket boundaries are dyadic rationals, so the value -> bucket mapping
   is exact (no rounding ambiguity at boundaries), and the maximal
   relative quantile error is 1 / sub_buckets_per_octave.  Exact count,
   sum, min and max are tracked alongside, and quantiles are clamped to
   [min, max] — a single-valued histogram round-trips exactly. *)

type counter = { mutable c_count : int }
type gauge = { mutable g_level : float }

(* --- Histogram bucketing --- *)

let sub_bucket_bits = 4
let sub_buckets_per_octave = 1 lsl sub_bucket_bits

(* Octave = the [frexp] exponent e with v = m * 2^e, m in [0.5, 1).
   Exponents cover 2^-33 .. 2^32: ~1e-10 (fractions of a microsecond,
   tiny rates) up to ~4e9 (large counts, long durations in any unit). *)
let min_exponent = -32
let max_exponent = 32
let octaves = max_exponent - min_exponent + 1

(* Bucket 0 is the underflow bucket (zero, negatives, NaN, values below
   the first octave); buckets 1 .. octaves * sub_buckets_per_octave cover
   the octave range; values beyond the last octave clamp into the final
   bucket. *)
let bucket_count = 1 + (octaves * sub_buckets_per_octave)

(* The octave and sub-bucket come straight from the IEEE-754 fields,
   which is [frexp] without the pair it allocates: a normal [v] is
   [(0.5 + mantissa / 2^53) * 2^(biased exponent - 1022)], so the
   sub-bucket is the mantissa's top [sub_bucket_bits] bits.  Subnormals
   fall below the first octave; infinity is beyond the last. *)
let[@inline] bucket_of_value v =
  if Float.is_nan v || v <= 0. then 0
  else
    let bits = Int64.to_int (Int64.bits_of_float v) in
    let e = ((bits lsr 52) land 0x7ff) - 1022 in
    if e < min_exponent then 0
    else if e > max_exponent then bucket_count - 1
    else
      let sub = (bits land 0xf_ffff_ffff_ffff) lsr (52 - sub_bucket_bits) in
      1 + (((e - min_exponent) * sub_buckets_per_octave) + sub)

(* Inclusive lower bound of a bucket: the smallest value mapping to it. *)
let bucket_lower index =
  if index <= 0 then 0.
  else
    let k = index - 1 in
    let e = min_exponent + (k / sub_buckets_per_octave) in
    let sub = k mod sub_buckets_per_octave in
    Float.ldexp
      (0.5 +. (float_of_int sub /. float_of_int (2 * sub_buckets_per_octave)))
      e

(* Exclusive upper bound: the lower bound of the next bucket (infinity for
   the final, clamping bucket). *)
let bucket_upper index =
  if index >= bucket_count - 1 then Float.infinity else bucket_lower (index + 1)

(* Sum, minimum and maximum live in a float-only record, whose fields
   OCaml stores unboxed: [observe] updates them without allocating. *)
type moments = { mutable sum : float; mutable lo : float; mutable hi : float }

type histogram = {
  buckets : int array;
  mutable h_count : int;
  moments : moments;
}

let[@inline] observe h v =
  let b = bucket_of_value v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.h_count <- h.h_count + 1;
  let m = h.moments in
  m.sum <- m.sum +. v;
  if v < m.lo then m.lo <- v;
  if v > m.hi then m.hi <- v

(* An integer count of nanoseconds, recorded in seconds.  [observe] is
   inlined here, so the converted value stays in a register: a caller
   that measures in integer nanoseconds hands no float across a call. *)
let observe_ns h ns = observe h (float_of_int ns *. 1e-9)

let observations h = h.h_count
let total h = h.moments.sum
let minimum h = if h.h_count = 0 then Float.nan else h.moments.lo
let maximum h = if h.h_count = 0 then Float.nan else h.moments.hi
let mean h = if h.h_count = 0 then Float.nan else h.moments.sum /. float_of_int h.h_count

(* Quantile estimate: lower bound of the first bucket whose cumulative
   count reaches ceil(q * count), clamped to the exact observed range. *)
let quantile h q =
  if h.h_count = 0 then Float.nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count))) in
    let rec find i acc =
      if i >= bucket_count then h.moments.hi
      else
        let acc = acc + h.buckets.(i) in
        if acc >= target then bucket_lower i else find (i + 1) acc
    in
    let raw = find 0 0 in
    Float.max h.moments.lo (Float.min h.moments.hi raw)
  end

(* --- Registry --- *)

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = { items : (string, metric) Hashtbl.t }

let create () = { items = Hashtbl.create 64 }

let validate_name name =
  if name = "" then invalid_arg "Metrics: empty metric name";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> invalid_arg (Fmt.str "Metrics: invalid metric name %S" name))
    name

let counter t name =
  match Hashtbl.find_opt t.items name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg (Fmt.str "Metrics.counter: %S registered as another kind" name)
  | None ->
    validate_name name;
    let c = { c_count = 0 } in
    Hashtbl.replace t.items name (Counter c);
    c

let gauge t name =
  match Hashtbl.find_opt t.items name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg (Fmt.str "Metrics.gauge: %S registered as another kind" name)
  | None ->
    validate_name name;
    let g = { g_level = 0. } in
    Hashtbl.replace t.items name (Gauge g);
    g

let histogram t name =
  match Hashtbl.find_opt t.items name with
  | Some (Histogram h) -> h
  | Some _ ->
    invalid_arg (Fmt.str "Metrics.histogram: %S registered as another kind" name)
  | None ->
    validate_name name;
    let h =
      {
        buckets = Array.make bucket_count 0;
        h_count = 0;
        moments = { sum = 0.; lo = Float.infinity; hi = Float.neg_infinity };
      }
    in
    Hashtbl.replace t.items name (Histogram h);
    h

let incr c = c.c_count <- c.c_count + 1
let add c n = c.c_count <- c.c_count + n
let count c = c.c_count

let set g level = g.g_level <- level
let level g = g.g_level

let find_counter t name =
  match Hashtbl.find_opt t.items name with Some (Counter c) -> Some c | _ -> None

(* Name-sorted view of the registry: export order is deterministic and
   independent of registration or hash order. *)
let sorted t =
  Hashtbl.fold (fun name metric acc -> (name, metric) :: acc) t.items []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- Exporters --- *)

let float_repr = Json.number_repr

(* Prometheus text exposition format. *)
let to_prometheus t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, metric) ->
      match metric with
      | Counter c ->
        Buffer.add_string buf (Fmt.str "# TYPE %s counter\n%s %d\n" name name c.c_count)
      | Gauge g ->
        Buffer.add_string buf
          (Fmt.str "# TYPE %s gauge\n%s %s\n" name name (float_repr g.g_level))
      | Histogram h ->
        Buffer.add_string buf (Fmt.str "# TYPE %s histogram\n" name);
        let cumulative = ref 0 in
        for i = 0 to bucket_count - 2 do
          let n = h.buckets.(i) in
          if n > 0 then begin
            cumulative := !cumulative + n;
            Buffer.add_string buf
              (Fmt.str "%s_bucket{le=\"%s\"} %d\n" name
                 (float_repr (bucket_upper i))
                 !cumulative)
          end
        done;
        (* The terminal +Inf bucket is mandatory and also covers the
           clamping overflow bucket. *)
        Buffer.add_string buf (Fmt.str "%s_bucket{le=\"+Inf\"} %d\n" name h.h_count);
        Buffer.add_string buf
          (Fmt.str "%s_sum %s\n%s_count %d\n" name (float_repr h.moments.sum) name h.h_count))
    (sorted t);
  Buffer.contents buf

(* CSV snapshot: kind,name,field,value — one row per scalar, a summary row
   set per histogram. *)
let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "kind,name,field,value\n";
  let row kind name field value =
    Buffer.add_string buf (Fmt.str "%s,%s,%s,%s\n" kind name field value)
  in
  List.iter
    (fun (name, metric) ->
      match metric with
      | Counter c -> row "counter" name "value" (string_of_int c.c_count)
      | Gauge g -> row "gauge" name "value" (float_repr g.g_level)
      | Histogram h ->
        row "histogram" name "count" (string_of_int h.h_count);
        row "histogram" name "sum" (float_repr h.moments.sum);
        if h.h_count > 0 then begin
          row "histogram" name "min" (float_repr h.moments.lo);
          row "histogram" name "max" (float_repr h.moments.hi);
          row "histogram" name "p50" (float_repr (quantile h 0.5));
          row "histogram" name "p90" (float_repr (quantile h 0.9));
          row "histogram" name "p99" (float_repr (quantile h 0.99))
        end)
    (sorted t);
  Buffer.contents buf

(* JSON snapshot, for bench artifacts. *)
let to_json t =
  let field (name, metric) =
    match metric with
    | Counter c -> (name, Json.Int c.c_count)
    | Gauge g -> (name, Json.Float g.g_level)
    | Histogram h ->
      ( name,
        Json.Obj
          ([
             ("count", Json.Int h.h_count);
             ("sum", Json.Float h.moments.sum);
           ]
          @
          if h.h_count = 0 then []
          else
            [
              ("min", Json.Float h.moments.lo);
              ("max", Json.Float h.moments.hi);
              ("p50", Json.Float (quantile h 0.5));
              ("p90", Json.Float (quantile h 0.9));
              ("p99", Json.Float (quantile h 0.99));
            ]) )
  in
  Json.Obj (List.map field (sorted t))
