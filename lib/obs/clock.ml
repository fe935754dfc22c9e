(* The single ambient time source in the whole tree.

   Every other module takes an *injected* clock — a [unit -> float]
   argument or a virtual clock such as [Sf_engine.Sim.now] — so that
   simulations replay deterministically from a seed.  Code that genuinely
   needs real time (the UDP cluster's default timers, bench section
   timing, span profiling of wall-clock cost) obtains it from here, which
   keeps the wall-clock dependence auditable: the sf_lint
   [clock-discipline] rule forbids [Unix.gettimeofday]/[Sys.time]
   everywhere except this file.

   [wall] re-exports the Unix primitive itself rather than a closure
   over it: a native caller gets the reading as an unboxed float in a
   register, so a hot loop that stores it into a float field or does
   arithmetic on it allocates nothing. *)

external wall : unit -> (float[@unboxed])
  = "caml_unix_gettimeofday" "caml_unix_gettimeofday_unboxed"
[@@noalloc]

(* Per-process CPU seconds: immune to preemption by other processes, so
   overhead ratios measured with it are stable on shared or single-core
   machines where wall time is not. *)
let cpu = Sys.time

(* A stopwatch over an arbitrary clock: returns a thunk yielding seconds
   (or whatever unit [clock] ticks in) since creation.  With [wall] this is
   the bench harness's section timer; with a virtual clock it measures
   simulated time spans. *)
let stopwatch ~clock =
  let t0 = clock () in
  fun () -> clock () -. t0

(* Peak resident set size, from the kernel's high-water mark (VmHWM in
   /proc/self/status).  Process introspection, not time, but it lives with
   the other ambient process probes so the rest of the tree stays pure.
   [None] where /proc is absent or unparseable (non-Linux). *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec find () =
          match input_line ic with
          | exception End_of_file -> None
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              String.sub line 6 (String.length line - 6)
              |> String.trim
              |> String.split_on_char ' '
              |> fun parts ->
              (match parts with
              | kb :: _ -> int_of_string_opt kb
              | [] -> None)
            else find ()
        in
        find ())
