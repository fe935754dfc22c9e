type t = {
  strategy : Strategy.t;
  fanout : int;
  rounds : int;
  rounds_to_half : int option;
  rounds_to_target : int option;
  coverage : float array;
  messages : int;
  pushes : int;
  requests : int;
  duplicates : int;
  lost : int;
  to_dead : int;
}

let final_coverage t =
  let n = Array.length t.coverage in
  if n = 0 then 0. else t.coverage.(n - 1)

let reached t = t.rounds_to_target <> None

let equal a b =
  a.strategy = b.strategy && a.fanout = b.fanout && a.rounds = b.rounds
  && a.rounds_to_half = b.rounds_to_half
  && a.rounds_to_target = b.rounds_to_target
  && a.coverage = b.coverage && a.messages = b.messages
  && a.pushes = b.pushes && a.requests = b.requests
  && a.duplicates = b.duplicates && a.lost = b.lost && a.to_dead = b.to_dead
