(* Span timers: profile a named hot section into a per-span histogram.

   The clock is injected at creation — [Sf_obs.Clock.wall] when profiling
   real cost (bench, the UDP cluster), a virtual clock when measuring
   simulated time — so the library itself stays clock-free and
   lint-clean.  [time] costs two clock samples and one histogram update
   per section, cheap enough to leave enabled on hot paths. *)

type t = { clock : unit -> float; hist : Metrics.histogram }

let create ~clock metrics name = { clock; hist = Metrics.histogram metrics name }

let histogram t = t.hist

let time t f =
  let t0 = t.clock () in
  Fun.protect ~finally:(fun () -> Metrics.observe t.hist (t.clock () -. t0)) f

let observe_ns t ns = Metrics.observe_ns t.hist ns
