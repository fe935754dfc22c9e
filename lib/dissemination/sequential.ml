(* The sequential spreading engine: rumor rounds interleaved with the
   orchestrated runner's membership rounds.

   Each spreading round first advances the membership one round
   ([Runner.run_rounds runner 1] — the views the rumor reads are the
   live, evolving ones), then executes one synchronous spreading step of
   the chosen strategy.  Every spread message runs the same verdict
   pipeline as the membership traffic — crash window on the destination,
   partition window, then the loss process — but against the {e caller's}
   RNG and a private loss-chain instance, so spreading never perturbs the
   membership stream.  Crash/partition windows are read from the runner's
   shared injector (pure window queries, no randomness), so a rumor and
   the membership see the same faults.

   Determinism contract: the Push path under [Iid] loss reproduces the
   draw order of the historical push epidemic exactly (same
   infected-table construction, one [sample_many] per informed node, one
   loss draw per push), so it replays that epidemic byte-for-byte on
   scenario-free runners; test_spread.ml holds it to a verbatim copy. *)

module Runner = Sf_core.Runner
module Sampling = Sf_core.Sampling
module Protocol = Sf_core.Protocol
module Loss = Sf_faults.Loss
module Injector = Sf_faults.Injector

type counters = {
  mutable messages : int;
  mutable pushes : int;
  mutable requests : int;
  mutable duplicates : int;
  mutable lost : int;
  mutable to_dead : int;
}

(* Direct-strategy per-node learning state (see {!Rings}). *)
type rings = {
  leads : int array;
  mutable lead_head : int;
  mutable lead_len : int;
  recent : int array;
  mutable recent_head : int;
  mutable recent_len : int;
}

let make_rings () =
  {
    leads = Array.make Strategy.lead_capacity (-1);
    lead_head = 0;
    lead_len = 0;
    recent = Array.make Strategy.recent_capacity (-1);
    recent_head = 0;
    recent_len = 0;
  }

let recent_mem st v =
  Rings.mem st.recent ~off:0 ~cap:Strategy.recent_capacity ~head:st.recent_head
    ~len:st.recent_len v

let recent_add st v =
  if not (recent_mem st v) then begin
    let head, len =
      Rings.add st.recent ~off:0 ~cap:Strategy.recent_capacity
        ~head:st.recent_head ~len:st.recent_len v
    in
    st.recent_head <- head;
    st.recent_len <- len
  end

let lead_mem st v =
  Rings.mem st.leads ~off:0 ~cap:Strategy.lead_capacity ~head:st.lead_head
    ~len:st.lead_len v

let lead_push st v =
  if not (lead_mem st v) && not (recent_mem st v) then begin
    let head, len =
      Rings.add st.leads ~off:0 ~cap:Strategy.lead_capacity ~head:st.lead_head
        ~len:st.lead_len v
    in
    st.lead_head <- head;
    st.lead_len <- len
  end

let lead_pop st =
  let v, head, len =
    Rings.pop st.leads ~off:0 ~cap:Strategy.lead_capacity ~head:st.lead_head
      ~len:st.lead_len
  in
  st.lead_head <- head;
  st.lead_len <- len;
  v

let run ?(coverage_target = 0.99) ?(max_rounds = 200) ?loss_rate ?loss_model
    ?metrics ~strategy ~fanout ~source runner rng =
  if fanout < 1 then
    invalid_arg "Sf_spread.Sequential.run: fanout must be positive";
  if coverage_target <= 0. || coverage_target > 1. then
    invalid_arg "Sf_spread.Sequential.run: coverage_target must lie in (0, 1]";
  let chance =
    match loss_rate with Some p -> p | None -> Runner.loss_rate runner
  in
  let model =
    match loss_model with
    | Some m -> m
    | None -> (
      match Runner.injector runner with
      | Some inj -> (Injector.scenario inj).Sf_faults.Scenario.loss
      | None -> Loss.Iid)
  in
  let loss = Loss.create model in
  let m = match metrics with Some m -> m | None -> Sf_obs.Metrics.create () in
  let c_messages = Sf_obs.Metrics.counter m "spread_messages" in
  let c_pushes = Sf_obs.Metrics.counter m "spread_pushes" in
  let c_requests = Sf_obs.Metrics.counter m "spread_requests" in
  let c_duplicates = Sf_obs.Metrics.counter m "spread_duplicates" in
  let c_lost = Sf_obs.Metrics.counter m "spread_lost" in
  let c_to_dead = Sf_obs.Metrics.counter m "spread_to_dead" in
  let g_coverage = Sf_obs.Metrics.gauge m "spread_coverage" in
  let cnt =
    { messages = 0; pushes = 0; requests = 0; duplicates = 0; lost = 0;
      to_dead = 0 }
  in
  let crashed id = Runner.is_crashed runner id in
  let injector = Runner.injector runner in
  let windows =
    match injector with
    | Some inj -> Injector.windows inj
    | None -> Sf_faults.Windows.create ~n:1 []
  in
  (* The shared verdict: crash window on the destination, partition, then
     the loss process — the injector's order, minus corruption (the rumor
     never leaves memory).  Crashed {e sources} are excluded at the
     initiation sites.  Only the loss step draws randomness, and under
     [Iid] it is exactly one Bernoulli draw per message — the contract
     the compat shim's byte-identity rests on. *)
  let judge ~src ~dst =
    cnt.messages <- cnt.messages + 1;
    Option.iter Injector.refresh injector;
    match Sf_faults.Windows.judge windows loss rng ~chance ~src ~dst with
    | Sf_faults.Windows.Pass -> true
    | Sf_faults.Windows.Crashed | Sf_faults.Windows.Partitioned
    | Sf_faults.Windows.Lost ->
      cnt.lost <- cnt.lost + 1;
      false
  in
  (* Same initial table shape and insertion sequence as the historical
     spread, so the fold order — hence the whole replay — matches. *)
  let infected = Hashtbl.create 1024 in
  Hashtbl.replace infected source ();
  let learned = Hashtbl.create 64 in
  let state id =
    match Hashtbl.find_opt learned id with
    | Some st -> st
    | None ->
      let st = make_rings () in
      Hashtbl.replace learned id st;
      st
  in
  (if strategy = Strategy.Direct then ignore (state source));
  let deliver_rumor ~src ~carried dst =
    match Runner.find_node runner dst with
    | None -> cnt.to_dead <- cnt.to_dead + 1
    | Some _ ->
      if Hashtbl.mem infected dst then cnt.duplicates <- cnt.duplicates + 1
      else Hashtbl.replace infected dst ();
      if strategy = Strategy.Direct then begin
        let st = state dst in
        (* The sender is informed: never contact it back. *)
        recent_add st src;
        if carried >= 0 && carried <> dst then lead_push st carried
      end
  in
  let snapshot () = Hashtbl.fold (fun id () acc -> id :: acc) infected [] in
  let push_from u =
    match Runner.find_node runner u with
    | None -> () (* informed node left *)
    | Some node ->
      let targets =
        Sampling.sample_many runner rng ~node_id:node.Protocol.node_id
          ~k:fanout
      in
      List.iter
        (fun dst ->
          cnt.pushes <- cnt.pushes + 1;
          if judge ~src:u ~dst then deliver_rumor ~src:u ~carried:(-1) dst)
        targets
  in
  let push_round () =
    List.iter (fun u -> if not (crashed u) then push_from u) (snapshot ())
  in
  let push_pull_round () =
    (* Infection status is classified against a round-start snapshot, so
       a node informed this round starts pulling/pushing next round —
       the synchronous schedule of the push-pull analyses. *)
    let informed = Hashtbl.copy infected in
    Array.iter
      (fun node ->
        let u = node.Protocol.node_id in
        if not (crashed u) then
          if Hashtbl.mem informed u then push_from u
          else
            let targets = Sampling.sample_many runner rng ~node_id:u ~k:fanout in
            List.iter
              (fun dst ->
                cnt.requests <- cnt.requests + 1;
                if judge ~src:u ~dst then
                  match Runner.find_node runner dst with
                  | None -> cnt.to_dead <- cnt.to_dead + 1
                  | Some _ ->
                    if Hashtbl.mem informed dst then begin
                      (* The responder answers with the rumor; the
                         response runs the verdict pipeline too. *)
                      cnt.pushes <- cnt.pushes + 1;
                      if judge ~src:dst ~dst:u then
                        deliver_rumor ~src:dst ~carried:(-1) u
                    end)
              targets)
      (Runner.live_nodes runner)
  in
  let direct_send u dst =
    (* Rumor messages carry one freshly sampled view address; receivers
       absorb it as a lead, letting the frontier outrun the views. *)
    let carried =
      match Sampling.sample runner rng ~node_id:u with
      | Some c when c <> dst -> c
      | _ -> -1
    in
    cnt.pushes <- cnt.pushes + 1;
    if judge ~src:u ~dst then deliver_rumor ~src:u ~carried dst
  in
  let direct_from u =
    match Runner.find_node runner u with
    | None -> ()
    | Some _ ->
      let st = state u in
      let budget = ref fanout in
      (* Learned addresses first: direct contacts, possibly outside the
         current view.  Stale leads (already contacted) cost no budget. *)
      let exhausted = ref false in
      while !budget > 0 && not !exhausted do
        let v = lead_pop st in
        if v < 0 then exhausted := true
        else if v <> u && not (recent_mem st v) then begin
          recent_add st v;
          direct_send u v;
          decr budget
        end
      done;
      (* Fill the remainder from the live view; an attempt landing on a
         recently contacted peer is throttled (consumes the attempt). *)
      for _ = 1 to !budget do
        match Sampling.sample runner rng ~node_id:u with
        | None -> ()
        | Some v ->
          if not (recent_mem st v) then begin
            recent_add st v;
            direct_send u v
          end
      done
  in
  let direct_round () =
    List.iter (fun u -> if not (crashed u) then direct_from u) (snapshot ())
  in
  (* Live coverage: informed live nodes over reachable (live, un-crashed)
     nodes.  Nodes that left no longer count in the numerator; crashed
     nodes are unreachable for the duration of their window, so they do
     not dilute the denominator. *)
  let live_fraction () =
    let live = Runner.live_nodes runner in
    let num = ref 0 and denom = ref 0 in
    Array.iter
      (fun node ->
        let id = node.Protocol.node_id in
        if Hashtbl.mem infected id then incr num;
        if not (crashed id) then incr denom)
      live;
    Float.min 1. (float_of_int !num /. float_of_int (max 1 !denom))
  in
  let coverage = ref [] in
  let rounds_to_half = ref None and rounds_to_target = ref None in
  let round = ref 0 in
  while !rounds_to_target = None && !round < max_rounds do
    incr round;
    (* The membership keeps evolving underneath. *)
    Runner.run_rounds runner 1;
    (match strategy with
    | Strategy.Push -> push_round ()
    | Strategy.Push_pull -> push_pull_round ()
    | Strategy.Direct -> direct_round ());
    let f = live_fraction () in
    coverage := f :: !coverage;
    Sf_obs.Metrics.set g_coverage f;
    if !rounds_to_half = None && f >= 0.5 then rounds_to_half := Some !round;
    if f >= coverage_target then rounds_to_target := Some !round
  done;
  Sf_obs.Metrics.add c_messages cnt.messages;
  Sf_obs.Metrics.add c_pushes cnt.pushes;
  Sf_obs.Metrics.add c_requests cnt.requests;
  Sf_obs.Metrics.add c_duplicates cnt.duplicates;
  Sf_obs.Metrics.add c_lost cnt.lost;
  Sf_obs.Metrics.add c_to_dead cnt.to_dead;
  {
    Report.strategy;
    fanout;
    rounds = !round;
    rounds_to_half = !rounds_to_half;
    rounds_to_target = !rounds_to_target;
    coverage = Array.of_list (List.rev !coverage);
    messages = cnt.messages;
    pushes = cnt.pushes;
    requests = cnt.requests;
    duplicates = cnt.duplicates;
    lost = cnt.lost;
    to_dead = cnt.to_dead;
  }
