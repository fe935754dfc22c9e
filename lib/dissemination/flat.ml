(* The flat-state spreading engine: rumor rounds layered on the sharded
   million-node runner.

   The engine owns NO membership state.  It reads the world through the
   public [Runner.Sharded] surface — the packed view store for sampling,
   the liveness map, the round-stable crash/partition windows, each
   shard's owned slots — and keeps its spread state indexed by node id,
   as the world's store is: one infection byte per node slot and, for
   Direct, the lead/recent rings of every slot ({!Rings}).  Per shard it
   keeps only what a shard consumes: an RNG stream split from the
   engine's own seed in shard order (the world's streams are untouched,
   so the membership replay is bit-for-bit unchanged), a loss-chain
   instance and a counter array.  Messages travel as 2-int rows
   (dst | src << 31, carried address) through the world's three
   {!Sf_engine.Mailbox} matrices ([Sharded.matrix]), borrowed for the
   spread phases after the world's round has drained them: rumors, pull
   requests and pull responses.  Only push-pull fills the last two.  The
   matrices live as long as the world, so a rumor allocates no message
   buffer once they have grown.

   One spreading round = one membership round of the world, then a
   bulk-synchronous spread schedule over the same logical shards:

     I.   generate — each shard walks its owned slots in order
          ([Sharded.owned]): clears the infection byte of slots that died
          in this round's churn, censuses live/crashed/informed, and
          emits this round's messages.  The verdict pipeline (destination
          crash window, partition, loss chain) runs at send time with the
          sending shard's RNG; surviving messages land in the mailbox row
          of the source shard.
     II.  deliver — each shard drains the rows addressed to it, source
          shards in index order, messages in generation order: infect /
          count duplicate / count to-dead, absorb Direct addresses.
          Push-pull responses are generated here (judged with the
          responder shard's RNG, in drain order) into a second matrix.
     III. deliver-responses (push-pull only) — drain the response rows.

   Writes stay owner-only: in every phase a shard writes the infection
   bytes and ring cells only of slots it owns (the senders' own in phase
   I, the destinations it drains in II and III).  Distinct bytes and
   array cells are distinct memory locations under OCaml 5's memory
   model, so shards on different domains never race.  Every phase reads
   foreign state only through round-stable world queries, so any
   [domains] value replays the single-domain run bit-for-bit; [equal] is
   the oracle. *)

module Sharded = Sf_core.Runner.Sharded
module VFlat = Sf_core.View.Flat
module Mailbox = Sf_engine.Mailbox
module Rng = Sf_prng.Rng
module Loss = Sf_faults.Loss

(* Message rows: destination | source << 31 (node slots are below 2^31),
   carried address (-1 when none). *)
let fields = 2
let lane_mask = (1 lsl 31) - 1

(* Per-shard counters: cells of one int array per shard, summed over
   shards by [totals] and compared whole by [equal]. *)
let c_infected = 0  (* infected among live owned slots *)
let c_live = 1  (* censused in generate *)
let c_frozen = 2  (* live but inside a crash window *)
let c_messages = 3
let c_pushes = 4
let c_requests = 5
let c_duplicates = 6
let c_lost = 7
let c_to_dead = 8
let counters = 9

(* The state a shard consumes: written only by the domain currently
   running this shard, reduced by the coordinator between barriers. *)
type sshard = {
  index : int;
  rng : Rng.t;
  loss : Loss.t;  (* private chain, stepped by this shard's stream *)
  count : int array;  (* the [counters] cells above *)
}

type t = {
  world : Sharded.t;
  strategy : Strategy.t;
  fanout : int;
  coverage_target : float;
  chance : float;
  shard_count : int;
  sshards : sshard array;
  inf : Bytes.t;  (* infection byte per node slot *)
  leads : Rings.t;  (* Direct only (no nodes otherwise) *)
  recent : Rings.t;
  out : Mailbox.t;  (* rumors: the world's matrix 0 *)
  req : Mailbox.t;  (* pull requests (push-pull): matrix 1 *)
  resp : Mailbox.t;  (* pull responses (push-pull): matrix 2 *)
  g_coverage : Sf_obs.Metrics.gauge;
  mutable rounds : int;
  mutable cov_rev : float list;
  mutable half_at : int option;
  mutable target_at : int option;
}

let[@inline] add sh c k = sh.count.(c) <- sh.count.(c) + k
let[@inline] bump sh c = add sh c 1
let infected t u = Bytes.get t.inf u <> '\000'

let create ?(coverage_target = 0.99) ?(fanout = 2) ?metrics ~strategy ~source
    ~seed world =
  if fanout < 1 then invalid_arg "Sf_spread.Flat.create: fanout must be positive";
  if coverage_target <= 0. || coverage_target > 1. then
    invalid_arg "Sf_spread.Flat.create: coverage_target must lie in (0, 1]";
  if not (Sharded.is_live world source) then
    invalid_arg "Sf_spread.Flat.create: source is not a live node";
  let shards = Sharded.shard_count world in
  let capacity = Sharded.capacity world in
  let loss_model =
    match Sharded.scenario world with
    | Some sc -> sc.Sf_faults.Scenario.loss
    | None -> Loss.Iid
  in
  (* The engine's streams split from its own root in shard order — same
     discipline as the world's, fully independent of it. *)
  let root = Rng.create seed in
  let sshards =
    Array.init shards (fun index ->
        {
          index;
          rng = Rng.split root;
          loss = Loss.create loss_model;
          count = Array.make counters 0;
        })
  in
  let rings cap =
    Rings.create ~nodes:(if strategy = Strategy.Direct then capacity else 0) ~cap
  in
  let inf = Bytes.make capacity '\000' in
  Bytes.set inf source '\001';
  sshards.(Sharded.shard_of world source).count.(c_infected) <- 1;
  let m = match metrics with Some m -> m | None -> Sf_obs.Metrics.create () in
  {
    world;
    strategy;
    fanout;
    coverage_target;
    chance = Sharded.loss_rate world;
    shard_count = shards;
    sshards;
    inf;
    leads = rings Strategy.lead_capacity;
    recent = rings Strategy.recent_capacity;
    out = Sharded.matrix world 0;
    req = Sharded.matrix world 1;
    resp = Sharded.matrix world 2;
    g_coverage = Sf_obs.Metrics.gauge m "spread_coverage";
    rounds = 0;
    cov_rev = [];
    half_at = None;
    target_at = None;
  }

(* One uniformly random non-self id from [u]'s current view, or [-1]:
   the store's row draw, so a successful draw consumes exactly one
   [Rng.int] and a [-1] result consumes none. *)
let random_peer t rng u =
  let store = Sharded.store t.world in
  let slot = VFlat.random_occupied_slot store u rng ~except:u in
  if slot < 0 then -1 else VFlat.id_at store u slot

(* The per-message verdict, judged at send time with the sending shard's
   RNG against the world's round-stable windows (safe from any domain). *)
let judge t sh ~src ~dst =
  bump sh c_messages;
  match
    Sf_faults.Windows.judge (Sharded.windows t.world) sh.loss sh.rng
      ~chance:t.chance ~src ~dst
  with
  | Sf_faults.Windows.Pass -> true
  | Sf_faults.Windows.Crashed | Sf_faults.Windows.Partitioned
  | Sf_faults.Windows.Lost ->
    bump sh c_lost;
    false

(* Append a message to [sh]'s row of mailbox [mb]. *)
let post t mb sh ~dst ~src ~carried =
  let to_shard = Sharded.shard_of t.world dst in
  let i = Mailbox.push mb ~src:sh.index ~dst:to_shard ~width:fields in
  let b = Mailbox.ints mb ~src:sh.index ~dst:to_shard in
  b.(i) <- dst lor (src lsl 31);
  b.(i + 1) <- carried

let emit_push t sh u =
  for _ = 1 to t.fanout do
    let dst = random_peer t sh.rng u in
    if dst >= 0 then begin
      bump sh c_pushes;
      if judge t sh ~src:u ~dst then post t t.out sh ~dst ~src:u ~carried:(-1)
    end
  done

let emit_requests t sh u =
  for _ = 1 to t.fanout do
    let dst = random_peer t sh.rng u in
    if dst >= 0 then begin
      bump sh c_requests;
      if judge t sh ~src:u ~dst then post t t.req sh ~dst ~src:u ~carried:(-1)
    end
  done

(* Contact [dst] directly, recording it as recently contacted. *)
let direct_send t sh u dst =
  Rings.add t.recent u dst;
  (* Rumor messages carry one freshly sampled view address; receivers
     absorb it as a lead, letting the frontier outrun the views. *)
  let c = random_peer t sh.rng u in
  let carried = if c >= 0 && c <> dst then c else -1 in
  bump sh c_pushes;
  if judge t sh ~src:u ~dst then post t t.out sh ~dst ~src:u ~carried

let emit_direct t sh u =
  let budget = ref t.fanout in
  (* Learned addresses first: direct contacts, possibly outside the
     current view.  Stale leads (already contacted) cost no budget. *)
  let exhausted = ref false in
  while !budget > 0 && not !exhausted do
    let v = Rings.pop t.leads u in
    if v < 0 then exhausted := true
    else if v <> u && not (Rings.mem t.recent u v) then begin
      direct_send t sh u v;
      decr budget
    end
  done;
  (* Fill the remainder from the live view; an attempt landing on a
     recently contacted peer is throttled (consumes the attempt). *)
  for _ = 1 to !budget do
    let v = random_peer t sh.rng u in
    if v >= 0 && not (Rings.mem t.recent u v) then direct_send t sh u v
  done

(* Phase I: census, clear infections of slots that died in this round's
   churn, and emit this round's messages.  Infection status is read as it
   stood at round start (deliveries only land in phase II), so the
   classification is a round-start snapshot by construction — no copy
   needed. *)
let generate t sh =
  Mailbox.clear t.out ~src:sh.index;
  Mailbox.clear t.req ~src:sh.index;
  Mailbox.clear t.resp ~src:sh.index;
  sh.count.(c_live) <- 0;
  sh.count.(c_frozen) <- 0;
  let world = t.world in
  let owned = Sharded.owned world sh.index in
  for k = 0 to Array.length owned - 1 do
    let u = owned.(k) in
    if not (Sharded.is_live world u) then begin
      if infected t u then begin
        Bytes.set t.inf u '\000';
        add sh c_infected (-1);
        (* A reincarnated slot must start unlearned too. *)
        if t.strategy = Strategy.Direct then begin
          Rings.reset t.leads u;
          Rings.reset t.recent u
        end
      end
    end
    else begin
      bump sh c_live;
      if Sharded.is_crashed world u then bump sh c_frozen
      else begin
        let informed = infected t u in
        match t.strategy with
        | Strategy.Push -> if informed then emit_push t sh u
        | Strategy.Push_pull ->
          if informed then emit_push t sh u else emit_requests t sh u
        | Strategy.Direct -> if informed then emit_direct t sh u
      end
    end
  done

(* A rumor reaches [dst], owned by [sh]: infect it or count a
   duplicate; [false] when [dst] has departed. *)
let receive t sh dst =
  if not (Sharded.is_live t.world dst) then begin
    bump sh c_to_dead;
    false
  end
  else begin
    if infected t dst then bump sh c_duplicates
    else begin
      Bytes.set t.inf dst '\001';
      bump sh c_infected
    end;
    true
  end

(* Phase II: drain the rumor rows addressed to this shard — source
   shards in index order, rows in generation order — then answer the
   pull requests (push-pull), judging each response with this (the
   responder's) shard's RNG. *)
let deliver t sh =
  for src_shard = 0 to t.shard_count - 1 do
    let b = Mailbox.ints t.out ~src:src_shard ~dst:sh.index in
    let len = Mailbox.length t.out ~src:src_shard ~dst:sh.index in
    let base = ref 0 in
    while !base < len do
      let head = b.(!base) and carried = b.(!base + 1) in
      let dst = head land lane_mask and src = head lsr 31 in
      if receive t sh dst && t.strategy = Strategy.Direct then begin
        (* The sender is informed: never contact it back. *)
        if not (Rings.mem t.recent dst src) then Rings.add t.recent dst src;
        if
          carried >= 0 && carried <> dst
          && (not (Rings.mem t.leads dst carried))
          && not (Rings.mem t.recent dst carried)
        then Rings.add t.leads dst carried
      end;
      base := !base + fields
    done
  done;
  if t.strategy = Strategy.Push_pull then
    for src_shard = 0 to t.shard_count - 1 do
      let b = Mailbox.ints t.req ~src:src_shard ~dst:sh.index in
      let len = Mailbox.length t.req ~src:src_shard ~dst:sh.index in
      let base = ref 0 in
      while !base < len do
        let head = b.(!base) in
        let responder = head land lane_mask and requester = head lsr 31 in
        if not (Sharded.is_live t.world responder) then bump sh c_to_dead
        else if infected t responder then begin
          bump sh c_pushes;
          if judge t sh ~src:responder ~dst:requester then
            post t t.resp sh ~dst:requester ~src:responder ~carried:(-1)
        end;
        base := !base + fields
      done
    done

(* Phase III (push-pull only): drain the response rows. *)
let deliver_responses t sh =
  for src_shard = 0 to t.shard_count - 1 do
    let b = Mailbox.ints t.resp ~src:src_shard ~dst:sh.index in
    let len = Mailbox.length t.resp ~src:src_shard ~dst:sh.index in
    let base = ref 0 in
    while !base < len do
      ignore (receive t sh (b.(!base) land lane_mask));
      base := !base + fields
    done
  done

(* Every counter cell summed over shards. *)
let totals t =
  let sum = Array.make counters 0 in
  Array.iter
    (fun sh ->
      for c = 0 to counters - 1 do
        sum.(c) <- sum.(c) + sh.count.(c)
      done)
    t.sshards;
  sum

let infected_count t = (totals t).(c_infected)

let run_round t ~domains =
  Sharded.run_round t.world ~domains;
  Sf_engine.Par.run ~domains ~tasks:t.shard_count (fun i -> generate t t.sshards.(i));
  Sf_engine.Par.run ~domains ~tasks:t.shard_count (fun i -> deliver t t.sshards.(i));
  if t.strategy = Strategy.Push_pull then
    Sf_engine.Par.run ~domains ~tasks:t.shard_count (fun i ->
        deliver_responses t t.sshards.(i));
  t.rounds <- t.rounds + 1;
  let c = totals t in
  let f =
    Float.min 1.
      (float_of_int c.(c_infected) /. float_of_int (max 1 (c.(c_live) - c.(c_frozen))))
  in
  t.cov_rev <- f :: t.cov_rev;
  Sf_obs.Metrics.set t.g_coverage f;
  if t.half_at = None && f >= 0.5 then t.half_at <- Some t.rounds;
  if t.target_at = None && f >= t.coverage_target then
    t.target_at <- Some t.rounds

let report t =
  let c = totals t in
  {
    Report.strategy = t.strategy;
    fanout = t.fanout;
    rounds = t.rounds;
    rounds_to_half = t.half_at;
    rounds_to_target = t.target_at;
    coverage = Array.of_list (List.rev t.cov_rev);
    messages = c.(c_messages);
    pushes = c.(c_pushes);
    requests = c.(c_requests);
    duplicates = c.(c_duplicates);
    lost = c.(c_lost);
    to_dead = c.(c_to_dead);
  }

let run ?(max_rounds = 200) ~domains t =
  while t.target_at = None && t.rounds < max_rounds do
    run_round t ~domains
  done;
  report t

let world t = t.world
let reached t = t.target_at <> None

(* Bit-for-bit engine equality: the membership worlds (the sharded
   runner's own oracle) plus every piece of spread state — infection
   bytes, Direct rings, per-shard counters, loss-chain positions, RNG
   stream positions, coverage history and milestone rounds. *)
let equal a b =
  let iid l =
    match Loss.model l with
    | Loss.Iid -> true
    | Loss.Gilbert_elliott _ | Loss.Per_link _ -> false
  in
  Sharded.equal a.world b.world
  && a.strategy = b.strategy && a.fanout = b.fanout
  && a.rounds = b.rounds
  && a.cov_rev = b.cov_rev
  && a.half_at = b.half_at && a.target_at = b.target_at
  && Bytes.equal a.inf b.inf
  && a.leads = b.leads && a.recent = b.recent
  && Array.length a.sshards = Array.length b.sshards
  && Array.for_all2
       (fun x y ->
         Rng.equal x.rng y.rng && x.count = y.count
         && iid x.loss = iid y.loss
         && Loss.in_burst x.loss = Loss.in_burst y.loss)
       a.sshards b.sshards
