(* Tests for the sf_obs observability layer: exact histogram bucketing,
   quantile round trips, ring-buffer wraparound accounting, golden
   exporter output, span timing with a fake clock, and byte-identical
   trace dumps from equal-seed runs. *)

module Metrics = Sf_obs.Metrics
module Trace = Sf_obs.Trace
module Span = Sf_obs.Span
module Obs = Sf_obs.Obs
module Json = Sf_obs.Json

(* --- Histogram bucketing --- *)

(* Bucket boundaries are dyadic rationals, so the value->bucket mapping
   must be exact at every boundary: the inclusive lower bound lands in its
   own bucket, the exclusive upper bound in the next. *)
let test_bucket_boundaries () =
  for i = 1 to Metrics.bucket_count - 2 do
    let lo = Metrics.bucket_lower i in
    Alcotest.(check int)
      (Fmt.str "lower bound of bucket %d maps to itself" i)
      i
      (Metrics.bucket_of_value lo);
    let hi = Metrics.bucket_upper i in
    Alcotest.(check int)
      (Fmt.str "upper bound of bucket %d maps to the next" i)
      (i + 1)
      (Metrics.bucket_of_value hi)
  done

let test_bucket_edge_cases () =
  Alcotest.(check int) "zero underflows" 0 (Metrics.bucket_of_value 0.);
  Alcotest.(check int) "negative underflows" 0 (Metrics.bucket_of_value (-3.));
  Alcotest.(check int) "nan underflows" 0 (Metrics.bucket_of_value Float.nan);
  Alcotest.(check int) "huge values clamp to the last bucket"
    (Metrics.bucket_count - 1)
    (Metrics.bucket_of_value 1e300);
  Alcotest.(check int) "tiny values underflow" 0 (Metrics.bucket_of_value 1e-300);
  Alcotest.(check int) "infinity clamps to the last bucket"
    (Metrics.bucket_count - 1)
    (Metrics.bucket_of_value Float.infinity)

(* The bucket read from the float's bits is the one its [frexp]
   decomposition names: octave [e] of [v = m * 2^e], linear sub-bucket
   [(m - 1/2) * 2 * sub_buckets_per_octave]. *)
let prop_bucket_matches_frexp =
  let by_frexp v =
    let m, e = Float.frexp v in
    if e < -32 then 0
    else if e > 32 then Metrics.bucket_count - 1
    else
      let per = Metrics.sub_buckets_per_octave in
      let sub = min (per - 1) (int_of_float ((m -. 0.5) *. 2. *. float_of_int per)) in
      1 + ((e + 32) * per) + sub
  in
  QCheck.Test.make ~name:"bucket of a value matches frexp" ~count:2000
    QCheck.(pair (float_range 0.5 1.) (int_range (-40) 40))
    (fun (m, e) ->
      let v = Float.ldexp m e in
      v <= 0. || Metrics.bucket_of_value v = by_frexp v)

(* An observation is a bucket increment and three float-field updates:
   no allocation.  The observed values are preboxed list elements, so the
   count is [observe]'s own.  Floats box under bytecode: native only. *)
let test_observe_allocates_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let h = Metrics.histogram (Metrics.create ()) "observe_alloc_seconds" in
    let values = List.init 64 (fun i -> 1e-6 *. (1.3 ** float_of_int i)) in
    let observe = Metrics.observe h in
    observe 1.;
    let w0 = Gc.minor_words () in
    for _ = 1 to 1000 do
      List.iter observe values
    done;
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check (float 0.)) "minor words over 64000 observations" 0. words
  end

(* The integer-nanosecond entries convert inside the registry, so the
   seconds value is never boxed: a caller computing durations afresh
   (unlike the preboxed list above) still allocates nothing.  The
   histogram holds the same seconds [observe] would. *)
let test_observe_ns_allocates_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let m = Metrics.create () in
    let h = Metrics.histogram m "observe_ns_alloc_seconds" in
    let span = Span.create ~clock:(fun () -> 0.) m "observe_ns_span_seconds" in
    Metrics.observe_ns h 1;
    Span.observe_ns span 1;
    let w0 = Gc.minor_words () in
    for i = 1 to 64_000 do
      Metrics.observe_ns h (i * 37);
      Span.observe_ns span (i * 53)
    done;
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check (float 0.)) "minor words over 128000 observations" 0. words;
    Alcotest.(check (float 0.)) "stored in seconds" (float_of_int (64_000 * 37) *. 1e-9)
      (Metrics.maximum h)
  end

(* A single-valued histogram must round-trip exactly: quantiles are
   clamped to the observed [min, max]. *)
let test_single_value_round_trip () =
  List.iter
    (fun v ->
      let m = Metrics.create () in
      let h = Metrics.histogram m "h" in
      Metrics.observe h v;
      List.iter
        (fun q ->
          Alcotest.(check (float 0.))
            (Fmt.str "q=%g of single %g" q v)
            v (Metrics.quantile h q))
        [ 0.; 0.5; 0.9; 1. ])
    [ 1.; 0.3; 7.25; 1234.5678 ]

(* Relative quantile error is bounded by one sub-bucket width. *)
let test_quantile_relative_error () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  for v = 1 to 1000 do
    Metrics.observe h (float_of_int v)
  done;
  List.iter
    (fun q ->
      let exact = Float.ceil (q *. 1000.) in
      let est = Metrics.quantile h q in
      let rel = Float.abs (est -. exact) /. exact in
      Alcotest.(check bool)
        (Fmt.str "q=%g relative error %.4f within 1/%d" q rel
           Metrics.sub_buckets_per_octave)
        true
        (rel <= 1. /. float_of_int Metrics.sub_buckets_per_octave))
    [ 0.01; 0.25; 0.5; 0.9; 0.99 ]

let test_histogram_summary_stats () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  Alcotest.(check bool) "empty min is nan" true (Float.is_nan (Metrics.minimum h));
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Metrics.quantile h 0.5));
  List.iter (Metrics.observe h) [ 2.; 8.; 4. ];
  Alcotest.(check int) "count" 3 (Metrics.observations h);
  Alcotest.(check (float 1e-9)) "sum" 14. (Metrics.total h);
  Alcotest.(check (float 0.)) "min" 2. (Metrics.minimum h);
  Alcotest.(check (float 0.)) "max" 8. (Metrics.maximum h);
  Alcotest.(check (float 1e-9)) "mean" (14. /. 3.) (Metrics.mean h)

(* --- Registry --- *)

let test_registry_get_or_create () =
  let m = Metrics.create () in
  let a = Metrics.counter m "hits" in
  let b = Metrics.counter m "hits" in
  Metrics.incr a;
  Metrics.add b 2;
  Alcotest.(check int) "same counter" 3 (Metrics.count a);
  Alcotest.check_raises "kind collision"
    (Invalid_argument "Metrics.gauge: \"hits\" registered as another kind")
    (fun () -> ignore (Metrics.gauge m "hits"));
  Alcotest.check_raises "invalid name"
    (Invalid_argument "Metrics: invalid metric name \"no spaces\"") (fun () ->
      ignore (Metrics.counter m "no spaces"))

(* --- Ring buffer --- *)

let test_ring_wraparound () =
  let tr = Trace.create ~capacity:4 in
  for node = 0 to 9 do
    Trace.record tr ~now:(float_of_int node) (Trace.Timer { node })
  done;
  Alcotest.(check int) "recorded" 10 (Trace.recorded tr);
  Alcotest.(check int) "length = capacity" 4 (Trace.length tr);
  Alcotest.(check int) "dropped = recorded - capacity" 6 (Trace.dropped tr);
  Alcotest.(check (list int)) "survivors are the newest, oldest first"
    [ 6; 7; 8; 9 ]
    (List.map (fun r -> r.Trace.seq) (Trace.records tr));
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (Trace.recorded tr);
  Alcotest.(check (list int)) "no records" []
    (List.map (fun r -> r.Trace.seq) (Trace.records tr))

let test_ring_rejects_bad_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Trace.create: capacity must be positive") (fun () ->
      ignore (Trace.create ~capacity:0))

(* --- Golden exporters --- *)

let golden_registry () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "a") 3;
  Metrics.set (Metrics.gauge m "g") 2.5;
  let h = Metrics.histogram m "h" in
  Metrics.observe h 1.;
  Metrics.observe h 2.;
  m

let test_prometheus_golden () =
  let expected =
    "# TYPE a counter\n\
     a 3\n\
     # TYPE g gauge\n\
     g 2.5\n\
     # TYPE h histogram\n\
     h_bucket{le=\"1.0625\"} 1\n\
     h_bucket{le=\"2.125\"} 2\n\
     h_bucket{le=\"+Inf\"} 2\n\
     h_sum 3.0\n\
     h_count 2\n"
  in
  Alcotest.(check string) "prometheus text" expected
    (Metrics.to_prometheus (golden_registry ()))

let test_csv_golden () =
  let expected =
    "kind,name,field,value\n\
     counter,a,value,3\n\
     gauge,g,value,2.5\n\
     histogram,h,count,2\n\
     histogram,h,sum,3.0\n\
     histogram,h,min,1.0\n\
     histogram,h,max,2.0\n\
     histogram,h,p50,1.0\n\
     histogram,h,p90,2.0\n\
     histogram,h,p99,2.0\n"
  in
  Alcotest.(check string) "csv" expected (Metrics.to_csv (golden_registry ()))

let test_jsonl_golden () =
  let tr = Trace.create ~capacity:8 in
  Trace.record tr ~now:0. (Trace.Send { src = 1; dst = 2; duplicated = false });
  Trace.record tr ~now:0.5 (Trace.Drop { src = 1; dst = 2; cause = "chance" });
  Trace.record tr ~now:1. (Trace.Deliver { dst = 2; accepted = true });
  Trace.record tr ~now:1.5 (Trace.Mark { label = "x" });
  let expected =
    "{\"t\":0.0,\"seq\":0,\"ev\":\"send\",\"src\":1,\"dst\":2,\"dup\":false}\n\
     {\"t\":0.5,\"seq\":1,\"ev\":\"drop\",\"src\":1,\"dst\":2,\"cause\":\"chance\"}\n\
     {\"t\":1.0,\"seq\":2,\"ev\":\"deliver\",\"dst\":2,\"ok\":true}\n\
     {\"t\":1.5,\"seq\":3,\"ev\":\"mark\",\"label\":\"x\"}\n"
  in
  Alcotest.(check string) "jsonl" expected (Trace.to_jsonl tr)

let test_json_emitter () =
  let j =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd");
        ("xs", Json.List [ Json.Int 1; Json.Null; Json.Bool false ]);
        ("nan", Json.Float Float.nan);
        ("inf", Json.Float Float.infinity);
      ]
  in
  Alcotest.(check string) "escaping and special floats"
    "{\"s\":\"a\\\"b\\\\c\\nd\",\"xs\":[1,null,false],\"nan\":null,\"inf\":1e999}"
    (Json.to_string j)

(* --- Spans --- *)

let test_span_with_fake_clock () =
  let clock_now = ref 0. in
  let clock () = !clock_now in
  let m = Metrics.create () in
  let span = Span.create ~clock m "section_seconds" in
  let result = Span.time span (fun () -> clock_now := !clock_now +. 2.; 41 + 1) in
  Alcotest.(check int) "thunk result" 42 result;
  let h = Span.histogram span in
  Alcotest.(check int) "one observation" 1 (Metrics.observations h);
  Alcotest.(check (float 0.)) "duration" 2. (Metrics.maximum h);
  (* A raising section is still timed. *)
  (try Span.time span (fun () -> clock_now := !clock_now +. 3.; failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "raise still observed" 2 (Metrics.observations h);
  Alcotest.(check (float 0.)) "raise duration" 3. (Metrics.maximum h)

(* --- Obs bundle --- *)

let test_obs_bundle () =
  let quiet = Obs.create () in
  Alcotest.(check bool) "no tracer by default" false (Obs.tracing quiet);
  (* trace without a tracer is a no-op *)
  Obs.trace quiet ~now:0. (Trace.Mark { label = "ignored" });
  let tracer = Trace.create ~capacity:4 in
  let loud = Obs.create ~tracer () in
  Alcotest.(check bool) "tracing on" true (Obs.tracing loud);
  Obs.trace loud ~now:1. (Trace.Mark { label = "seen" });
  Alcotest.(check int) "recorded" 1 (Trace.recorded tracer)

(* --- End-to-end determinism: equal seeds dump identical bytes --- *)

let traced_run ~seed =
  let config = Sf_core.Protocol.make_config ~view_size:12 ~lower_threshold:4 in
  let rng = Sf_prng.Rng.create (seed + 1) in
  let topology = Sf_core.Topology.regular rng ~n:60 ~out_degree:8 in
  let tracer = Trace.create ~capacity:65536 in
  let obs = Obs.create ~tracer () in
  let r =
    Sf_core.Runner.create ~obs ~seed ~n:60 ~loss_rate:0.1 ~config ~topology ()
  in
  Sf_core.Runner.run_rounds r 20;
  (Trace.to_jsonl tracer, Metrics.to_prometheus (Obs.metrics obs))

let test_equal_seed_runs_dump_identical_traces () =
  let trace_a, prom_a = traced_run ~seed:5 in
  let trace_b, prom_b = traced_run ~seed:5 in
  Alcotest.(check bool) "trace is non-trivial" true
    (String.length trace_a > 1000);
  Alcotest.(check string) "identical JSONL dumps" trace_a trace_b;
  Alcotest.(check string) "identical metrics snapshots" prom_a prom_b;
  let trace_c, _ = traced_run ~seed:6 in
  Alcotest.(check bool) "different seed, different trace" true
    (trace_a <> trace_c)

(* The obs layer consumes no randomness: protocol results are bit-for-bit
   identical with and without instrumentation. *)
let test_observation_preserves_rng_stream () =
  let run ~instrumented =
    let config = Sf_core.Protocol.make_config ~view_size:12 ~lower_threshold:4 in
    let rng = Sf_prng.Rng.create 8 in
    let topology = Sf_core.Topology.regular rng ~n:60 ~out_degree:8 in
    let obs =
      if instrumented then Some (Obs.create ~tracer:(Trace.create ~capacity:1024) ())
      else None
    in
    let r =
      Sf_core.Runner.create ?obs ~seed:7 ~n:60 ~loss_rate:0.1 ~config ~topology ()
    in
    Sf_core.Runner.run_rounds r 20;
    let w = Sf_core.Runner.world_counters r in
    let degrees =
      Sf_core.Properties.outdegree_samples (Sf_core.Runner.store r)
        ~live:(Sf_core.Runner.is_live r)
    in
    ((w.Sf_core.Runner.sends, w.Sf_core.Runner.duplications,
      w.Sf_core.Runner.deletions, w.Sf_core.Runner.messages_lost),
     degrees)
  in
  let counters_plain, degrees_plain = run ~instrumented:false in
  let counters_full, degrees_full = run ~instrumented:true in
  Alcotest.(check bool) "identical world counters" true
    (counters_plain = counters_full);
  Alcotest.(check bool) "identical final degrees" true
    (degrees_plain = degrees_full)

(* Two dumps from one build cannot see an event reordered between
   builds, so the dump of one faulted sequential run is pinned by its
   digest.  Partition, crash and corrupt windows plus one leave make every
   drop cause, a rejected delivery, duplications, deletions and fault
   transitions appear. *)
let test_trace_known_answer () =
  let config = Sf_core.Protocol.make_config ~view_size:12 ~lower_threshold:4 in
  let topology =
    Sf_core.Topology.regular (Sf_prng.Rng.create 91) ~n:60 ~out_degree:8
  in
  let scenario =
    Sf_faults.Scenario.make
      ~windows:
        Sf_faults.Scenario.
          [
            { start = 2.; stop = 5.; fault = Partition { parts = 2 } };
            { start = 6.; stop = 9.; fault = Crash { first = 0; last = 5 } };
            { start = 10.; stop = 13.; fault = Corrupt { rate = 0.2 } };
          ]
      ()
  in
  let tracer = Trace.create ~capacity:(1 lsl 16) in
  let obs = Obs.create ~tracer () in
  let r =
    Sf_core.Runner.create ~scenario ~obs ~seed:9 ~n:60 ~loss_rate:0.1 ~config
      ~topology ()
  in
  Sf_core.Runner.run_rounds r 4;
  ignore (Sf_core.Runner.remove_node r 30);
  Sf_core.Runner.run_rounds r 20;
  Alcotest.(check int) "whole trace kept" 0 (Trace.dropped tracer);
  let seen kind =
    List.exists
      (fun record ->
        match (record.Trace.event, kind) with
        | Trace.Drop { cause; _ }, `Drop c -> cause = c
        | Trace.Deliver { accepted = false; _ }, `Rejected
        | Trace.Duplicate _, `Duplicate
        | Trace.Delete _, `Delete
        | Trace.Fault _, `Fault ->
          true
        | _ -> false)
      (Trace.records tracer)
  in
  List.iter
    (fun (name, kind) -> Alcotest.(check bool) name true (seen kind))
    [
      ("chance drop", `Drop "chance");
      ("partition drop", `Drop "partition");
      ("crash drop", `Drop "crash");
      ("corrupt drop", `Drop "corrupt");
      ("rejected delivery", `Rejected);
      ("duplicate", `Duplicate);
      ("delete", `Delete);
      ("fault transition", `Fault);
    ];
  Alcotest.(check string) "JSONL digest" "027d8246809966affcf50eff444b058f"
    (Digest.to_hex (Digest.string (Trace.to_jsonl tracer)))

let suite =
  [
    Alcotest.test_case "bucket boundaries are exact" `Quick test_bucket_boundaries;
    Alcotest.test_case "bucket edge cases" `Quick test_bucket_edge_cases;
    QCheck_alcotest.to_alcotest prop_bucket_matches_frexp;
    Alcotest.test_case "observe allocates nothing" `Quick test_observe_allocates_nothing;
    Alcotest.test_case "observe_ns allocates nothing" `Quick
      test_observe_ns_allocates_nothing;
    Alcotest.test_case "single-value quantile round trip" `Quick
      test_single_value_round_trip;
    Alcotest.test_case "quantile relative error bound" `Quick
      test_quantile_relative_error;
    Alcotest.test_case "histogram summary stats" `Quick test_histogram_summary_stats;
    Alcotest.test_case "registry get-or-create and collisions" `Quick
      test_registry_get_or_create;
    Alcotest.test_case "ring wraparound accounting" `Quick test_ring_wraparound;
    Alcotest.test_case "ring rejects bad capacity" `Quick
      test_ring_rejects_bad_capacity;
    Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
    Alcotest.test_case "csv golden" `Quick test_csv_golden;
    Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
    Alcotest.test_case "json emitter" `Quick test_json_emitter;
    Alcotest.test_case "span with fake clock" `Quick test_span_with_fake_clock;
    Alcotest.test_case "obs bundle" `Quick test_obs_bundle;
    Alcotest.test_case "equal seeds dump identical traces" `Quick
      test_equal_seed_runs_dump_identical_traces;
    Alcotest.test_case "observation preserves the RNG stream" `Quick
      test_observation_preserves_rng_stream;
    Alcotest.test_case "trace known answer" `Quick test_trace_known_answer;
  ]
