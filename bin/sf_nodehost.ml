(* sf_nodehost: one process of the multi-process UDP cluster.

   A thin argv shell around {!Sf_net.Nodehost.main} — all behaviour
   (driver slice, control channels, reporting protocol) lives in the
   library so tests can drive it in-process.  The spawner execs this
   binary once per host; humans can too:

     sf_nodehost --host 0 --hosts 2 --per-host 16 --base-port 47000 \
       --control-port 46900 --loss ge:0.15:6

   The resilience policy is assembled here because its threshold solver
   (Sf_analysis.Thresholds.select_lossy, the section 6.3 inversion) lives
   above sf_net in the library order. *)

let usage = "sf_nodehost --host I --hosts H --per-host K --control-port P [options]"

let () =
  let host = ref 0
  and hosts = ref 1
  and per_host = ref 16
  and base_port = ref 47_000
  and control_port = ref 0
  and controller_port = ref 0
  and view_size = ref 12
  and lower = ref 4
  and out_degree = ref 0
  and loss = ref "iid"
  and loss_rate = ref 0.0
  and period = ref 0.01
  and seed = ref 1
  and duration = ref 5.0
  and heartbeat = ref 0.25
  and resilience = ref false in
  let spec =
    [
      ("--host", Arg.Set_int host, "I  this host's index in [0, hosts)");
      ("--hosts", Arg.Set_int hosts, "H  total node-host processes");
      ("--per-host", Arg.Set_int per_host, "K  nodes owned by each host");
      ("--base-port", Arg.Set_int base_port, "P  node i binds port P+i");
      ("--control-port", Arg.Set_int control_port, "P  UDP command socket (required)");
      ("--controller-port", Arg.Set_int controller_port, "P  heartbeat sink (0 = no heartbeats)");
      ("--view-size", Arg.Set_int view_size, "S  view slots per node");
      ("--lower", Arg.Set_int lower, "DL  lower threshold");
      ("--out-degree", Arg.Set_int out_degree, "D  seed topology degree (0 = Protocol.start_degree)");
      ("--loss", Arg.Set_string loss, "MODEL  loss model (iid | ge:MEAN:BURST); windows rejected");
      ("--loss-rate", Arg.Set_float loss_rate, "R  iid loss probability");
      ("--period", Arg.Set_float period, "SEC  mean time between initiations");
      ("--seed", Arg.Set_int seed, "N  shared cluster seed (fixes the topology)");
      ("--duration", Arg.Set_float duration, "SEC  hard cap on the run");
      ("--heartbeat", Arg.Set_float heartbeat, "SEC  heartbeat interval");
      ("--resilience", Arg.Set resilience, "  enable retuning + supervised repair");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Fmt.str "stray argument %S" a)))
    usage;
  let scenario =
    match Sf_faults.Scenario.of_string !loss with
    | Ok sc -> sc
    | Error msg ->
      Fmt.epr "sf_nodehost: bad --loss: %s@." msg;
      exit 2
  in
  if !control_port <= 0 then begin
    Fmt.epr "sf_nodehost: --control-port is required@.";
    exit 2
  end;
  let protocol = Sf_core.Protocol.make_config ~view_size:!view_size ~lower_threshold:!lower in
  let out_degree =
    if !out_degree > 0 then !out_degree
    else Sf_core.Protocol.start_degree protocol ~n:(!hosts * !per_host)
  in
  let resilience =
    if not !resilience then None
    else
      let solve ~loss =
        let t =
          Sf_analysis.Thresholds.select_lossy ~d_hat:out_degree ~delta:1e-3
            ~loss:(Float.min loss 0.45)
        in
        ( t.Sf_analysis.Thresholds.lower_threshold,
          t.Sf_analysis.Thresholds.view_size )
      in
      Some (Sf_resil.Policy.make ~solve ())
  in
  let config =
    {
      Sf_net.Nodehost.host_index = !host;
      hosts = !hosts;
      nodes_per_host = !per_host;
      base_port = !base_port;
      control_port = !control_port;
      controller_port = !controller_port;
      protocol;
      out_degree;
      scenario;
      loss_rate = !loss_rate;
      period = !period;
      seed = !seed;
      duration = !duration;
      heartbeat = !heartbeat;
      resilience;
    }
  in
  match Sf_net.Nodehost.main config with
  | () -> ()
  | exception Invalid_argument msg ->
    Fmt.epr "sf_nodehost: %s@." msg;
    exit 2
