(** Connectivity rule for the lower degree threshold (paper, end of
    section 7.4): enough independent out-neighbors for weak connectivity. *)

val failure_probability : lower_threshold:int -> alpha:float -> float

val minimal_lower_threshold :
  ?max_candidate:int -> alpha:float -> epsilon:float -> unit -> int option
(** Minimal even dL with failure probability at most [epsilon]. The paper's
    example: alpha = 0.96 (loss = delta = 1%), epsilon = 1e-30 gives 26. *)

val minimal_lower_threshold_for_loss :
  ?max_candidate:int -> loss:float -> delta:float -> epsilon:float -> unit -> int option
(** Same, with alpha derived from Lemma 7.9 as 1 - 2(loss + delta). *)
