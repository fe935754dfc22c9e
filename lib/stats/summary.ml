(* Streaming descriptive statistics (Welford's online algorithm) plus
   convenience reductions over arrays.  Used by the simulation monitors to
   report degree balance, decay rates, etc. *)

type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;   (* sum of squared deviations *)
  mutable min : float;
  mutable max : float;
}

let create () =
  { count = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

let add t x =
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let add_int t x = add t (float_of_int x)

let count t = t.count
let mean t = if t.count = 0 then Float.nan else t.mean

let variance t =
  if t.count < 2 then 0. else t.m2 /. float_of_int (t.count - 1)

(* Population variance (divide by n); matches moments of a full census such
   as "variance of node indegrees" in Property M2. *)
let variance_population t =
  if t.count = 0 then 0. else t.m2 /. float_of_int t.count

let std t = sqrt (variance t)
let min_value t = t.min
let max_value t = t.max

let merge a b =
  if a.count = 0 then b
  else if b.count = 0 then a
  else begin
    let n = a.count + b.count in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. float_of_int b.count /. float_of_int n) in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. float_of_int a.count *. float_of_int b.count /. float_of_int n)
    in
    { count = n; mean; m2; min = Float.min a.min b.min; max = Float.max a.max b.max }
  end

let of_array xs =
  let t = create () in
  Array.iter (add t) xs;
  t

let of_int_array xs =
  let t = create () in
  Array.iter (add_int t) xs;
  t

(* Exact percentile by sorting a copy; [q] in [0,1], linear interpolation. *)
let percentile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.percentile: empty sample";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  if q <= 0. then sorted.(0)
  else if q >= 1. then sorted.(n - 1)
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let frac = pos -. float_of_int lo in
    if lo + 1 >= n then sorted.(n - 1)
    else sorted.(lo) +. (frac *. (sorted.(lo + 1) -. sorted.(lo)))

let pp ppf t =
  Fmt.pf ppf "n=%d mean=%.3f std=%.3f min=%.1f max=%.1f"
    t.count (mean t) (std t) t.min t.max
