(* S&F on a real network stack: 96 nodes, each with its own UDP socket on
   the loopback interface, exchanging actual datagrams.  Fire-and-forget
   UDP is exactly the transport the protocol was designed for — no
   connection state, no acknowledgements, loss tolerated by design.

   The run injects 5% sender-side loss (loopback rarely drops on its own)
   and shows the same steady-state properties as the simulator: balanced
   degrees well above dL, high independence, weak connectivity, and
   duplication compensating the loss.

   Run with: dune exec examples/udp_cluster.exe *)

module Driver = Sf_net.Driver
module Properties = Sf_core.Properties
module Summary = Sf_stats.Summary

let () =
  let n = 96 in
  let thresholds = Sf_analysis.Thresholds.select ~d_hat:12 ~delta:0.01 in
  let config = Sf_analysis.Thresholds.to_config thresholds in
  Fmt.pr "parameters: %a@." Sf_analysis.Thresholds.pp thresholds;
  let topology =
    Sf_core.Topology.regular (Sf_prng.Rng.create 3) ~n ~out_degree:thresholds.d_hat
  in
  let cluster =
    Driver.create ~period:0.005 ~base_port:47000 ~n ~config ~loss_rate:0.05 ~seed:4
      ~topology ()
  in
  Fmt.pr "bound %d UDP sockets on 127.0.0.1:47000-%d; running 5 seconds...@." n
    (47000 + n - 1);
  (* The cluster owns the whole id space (first = 0), so row u of its
     store is node u's view, and every row is live. *)
  assert (Driver.first cluster = 0);
  let report phase =
    let store = Driver.store cluster and live _ = true in
    let outs = Properties.outdegree_summary store ~live in
    let census = Sf_core.Census.of_flat store in
    let stats = Driver.statistics cluster in
    Fmt.pr
      "%s: %d actions, %d messages (%d dropped by injected loss, %d received)@."
      phase stats.Driver.actions stats.Driver.datagrams_sent
      stats.Driver.datagrams_dropped stats.Driver.messages_received;
    Fmt.pr "  outdegree %.1f±%.1f (dL=%d), alpha %.3f, connected %b, codec errors %d@."
      (Summary.mean outs) (Summary.std outs) thresholds.lower_threshold
      census.Sf_core.Census.alpha
      (Properties.is_weakly_connected store ~live)
      stats.Driver.decode_errors
  in
  Driver.run cluster ~duration:2.5;
  report "t=2.5s";
  Driver.run cluster ~duration:2.5;
  report "t=5.0s";
  let stats = Driver.statistics cluster in
  let observed_loss =
    float_of_int stats.Driver.datagrams_dropped
    /. float_of_int (max 1 stats.Driver.datagrams_sent)
  in
  Fmt.pr "observed loss %.3f (injected 0.050); every datagram decoded cleanly: %b@."
    observed_loss
    (stats.Driver.decode_errors = 0);
  Driver.shutdown cluster;
  Fmt.pr "the same protocol, the same properties — on real sockets.@."
