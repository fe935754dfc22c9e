(* The three rumor-spreading disciplines of the dissemination layer.

   Push is the classic epidemic baseline (informed nodes push the rumor
   to fanout view samples per round).  Push_pull adds the uninformed
   half: nodes without the rumor send pull requests, and informed
   receivers answer — the Doerr et al. regime whose completion time is
   O(log n) rounds even under constant message loss.  Direct is the
   Haeupler–Malkhi-style address-learning variant: rumor messages carry
   node addresses, receivers remember them, and informed nodes may
   contact learned ids directly — outside their current S&F view — while
   throttling repeat contacts, which trades a little memory for a large
   saving in total messages. *)

type t = Push | Push_pull | Direct

let all = [ Push; Push_pull; Direct ]

let to_string = function
  | Push -> "push"
  | Push_pull -> "push-pull"
  | Direct -> "direct"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "push" -> Ok Push
  | "push-pull" | "push_pull" | "pushpull" | "pp" -> Ok Push_pull
  | "direct" -> Ok Direct
  | other ->
    Error
      (Fmt.str "unknown strategy %S (expected push, push-pull or direct)" other)

let pp ppf t = Fmt.string ppf (to_string t)

(* Direct-strategy ring capacities. *)
let lead_capacity = 8
let recent_capacity = 16

let envelope ~c ~n = c *. (Float.log (Float.max 2. (float_of_int n)) /. Float.log 2.)
