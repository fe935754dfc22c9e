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

let pp_opt ppf = function
  | None -> Fmt.string ppf "-"
  | Some r -> Fmt.int ppf r

let pp ppf t =
  Fmt.pf ppf
    "@[<v>%a fanout=%d rounds=%d half=%a target=%a coverage=%.4f@,\
     messages=%d (pushes=%d requests=%d) duplicates=%d lost=%d to_dead=%d@]"
    Strategy.pp t.strategy t.fanout t.rounds pp_opt t.rounds_to_half pp_opt
    t.rounds_to_target (final_coverage t) t.messages t.pushes t.requests
    t.duplicates t.lost t.to_dead
