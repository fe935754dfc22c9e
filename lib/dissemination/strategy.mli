(** Rumor-spreading disciplines.

    - {!Push} — informed nodes push the rumor to [fanout] view samples per
      round: the classic epidemic baseline (susceptible–infected).
    - {!Push_pull} — additionally, uninformed nodes send pull requests
      each round and informed receivers answer with the rumor.  B. Doerr,
      C. Doerr, S. Moran and S. Moran (arXiv:1209.6158) show this
      completes in O(log n) rounds even when a constant fraction of
      messages is lost — the regime the loss benchmarks target.
    - {!Direct} — rumor messages carry learned node addresses; receivers
      absorb them and informed nodes may contact learned ids {e directly},
      outside their current S&F view, while never re-contacting recently
      contacted peers (Haeupler & Malkhi, arXiv:1402.2701).  Under loss
      it spends noticeably fewer messages than blind push for the same
      coverage. *)

type t = Push | Push_pull | Direct

val all : t list

val to_string : t -> string
(** ["push"], ["push-pull"], ["direct"]. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string} (also accepts ["push_pull"], ["pushpull"],
    ["pp"]); case- and whitespace-insensitive. *)

val pp : t Fmt.t

val lead_capacity : int
(** {!Direct} per-node ring of learned, not-yet-contacted addresses. *)

val recent_capacity : int
(** {!Direct} per-node ring of recently contacted / known-informed ids
    (contact throttle). *)

val envelope : c:float -> n:int -> float
(** [c * log2 (max 2 n)] — the completion-time envelope the benchmarks
    check push-pull against. *)
