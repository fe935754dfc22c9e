(* Tests for the deterministic PRNG substrate. *)

module Rng = Sf_prng.Rng

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if not (Int64.equal (Rng.next_int64 a) (Rng.next_int64 b)) then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_split_independence () =
  let parent = Rng.create 7 in
  let child1 = Rng.split parent in
  let child2 = Rng.split parent in
  Alcotest.(check bool) "children differ"
    true
    (not (Int64.equal (Rng.next_int64 child1) (Rng.next_int64 child2)))

let test_copy_preserves_state () =
  let a = Rng.create 9 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.next_int64 a) (Rng.next_int64 b)

let test_equal_tracks_position () =
  let a = Rng.create 9 in
  let b = Rng.copy a in
  Alcotest.(check bool) "copy is equal" true (Rng.equal a b);
  ignore (Rng.int a 16);
  Alcotest.(check bool) "one draw apart" false (Rng.equal a b);
  ignore (Rng.int b 16);
  Alcotest.(check bool) "same position again" true (Rng.equal a b);
  Alcotest.(check bool) "other seed" false (Rng.equal a (Rng.create 10))

let test_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_float_mean () =
  let rng = Rng.create 4 in
  let sum = ref 0. in
  let n = 100_000 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_int_bounds_rejected () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_uniformity () =
  let rng = Rng.create 6 in
  let counts = Array.make 10 0. in
  for _ = 1 to 50_000 do
    let k = Rng.int rng 10 in
    counts.(k) <- counts.(k) +. 1.
  done;
  let r = Sf_stats.Hypothesis.chi_square_uniform counts in
  Alcotest.(check bool) "uniform by chi-square" true
    (r.Sf_stats.Hypothesis.p_value > 0.001)

let test_int_range () =
  let rng = Rng.create 8 in
  for _ = 1 to 1000 do
    let x = Rng.int_range rng (-5) 5 in
    Alcotest.(check bool) "in range" true (x >= -5 && x <= 5)
  done

let test_bernoulli_extremes () =
  let rng = Rng.create 10 in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.)

let test_bernoulli_rate () =
  let rng = Rng.create 11 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.01)

(* The S&F-InitiateAction entry selection: [int] then [other]. *)
let slot_pair rng n =
  let i = Rng.int rng n in
  (i, Rng.other rng n i)

let test_slot_pair () =
  let rng = Rng.create 12 in
  for _ = 1 to 10_000 do
    let i, j = slot_pair rng 6 in
    Alcotest.(check bool) "distinct and in range" true
      (i <> j && i >= 0 && i < 6 && j >= 0 && j < 6)
  done

let test_slot_pair_covers_all_ordered_pairs () =
  let rng = Rng.create 13 in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 5_000 do
    Hashtbl.replace seen (slot_pair rng 3) ()
  done;
  Alcotest.(check int) "all 6 ordered pairs of 3 occur" 6 (Hashtbl.length seen)

let test_shuffle_is_permutation () =
  let rng = Rng.create 14 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 (fun i -> i)) sorted

let test_sample_indices_distinct () =
  let rng = Rng.create 15 in
  for _ = 1 to 500 do
    let picks = Rng.sample_indices rng ~n:20 ~k:7 in
    let set = List.sort_uniq compare (Array.to_list picks) in
    Alcotest.(check int) "7 distinct" 7 (List.length set);
    List.iter
      (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 20))
      set
  done

let test_exponential_mean () =
  let rng = Rng.create 16 in
  let sum = ref 0. in
  let n = 50_000 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 2.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 1/rate" true (Float.abs (mean -. 0.5) < 0.02)

let test_geometric_mean () =
  let rng = Rng.create 17 in
  let sum = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric rng 0.25
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* mean of failures-before-success = (1-p)/p = 3 *)
  Alcotest.(check bool) "mean near 3" true (Float.abs (mean -. 3.) < 0.1)

let test_categorical_weights () =
  let rng = Rng.create 18 in
  let counts = Array.make 3 0 in
  let n = 60_000 in
  for _ = 1 to n do
    let k = Rng.categorical rng [| 1.; 2.; 3. |] in
    counts.(k) <- counts.(k) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check bool) "weight 1/6" true (Float.abs (frac 0 -. (1. /. 6.)) < 0.01);
  Alcotest.(check bool) "weight 2/6" true (Float.abs (frac 1 -. (2. /. 6.)) < 0.01);
  Alcotest.(check bool) "weight 3/6" true (Float.abs (frac 2 -. (3. /. 6.)) < 0.01)

let test_choose_singleton () =
  let rng = Rng.create 19 in
  Alcotest.(check int) "only element" 5 (Rng.choose rng [| 5 |])

(* Known-answer vectors.  SplitMix64 from 1234567 is Vigna's reference
   vector; the Xoshiro256** values pin the exact stream every golden,
   equality oracle and replay test in the repository depends on. *)

let test_splitmix64_reference () =
  let sm = Sf_prng.Splitmix64.create 1234567L in
  List.iter
    (fun expected ->
      Alcotest.(check string) "reference output" expected
        (Printf.sprintf "%Lu" (Sf_prng.Splitmix64.next sm)))
    [
      "6457827717110365317"; "3203168211198807973"; "9817491932198370423";
      "4593380528125082431"; "16408922859458223821";
    ]

let draws k f = List.init k (fun _ -> f ())

let test_known_answers_raw () =
  let rng = Rng.create 42 in
  Alcotest.(check (list int64)) "next_int64 from seed 42"
    [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L; 0xecb8ad4703b360a1L ]
    (draws 4 (fun () -> Rng.next_int64 rng))

let test_known_answers_int () =
  let r16 = Rng.create 42 and r20 = Rng.create 42 in
  Alcotest.(check (list int)) "int 16" [ 6; 14; 1; 1; 4; 8; 2; 7 ]
    (draws 8 (fun () -> Rng.int r16 16));
  Alcotest.(check (list int)) "int 20" [ 1; 1; 4; 18; 7; 17; 5; 2 ]
    (draws 8 (fun () -> Rng.int r20 20))

let test_known_answers_float () =
  let rng = Rng.create 42 in
  Alcotest.(check (list (float 0.))) "float"
    [ 0x1.5780b2e0c2ecp-4; 0x1.84136619b444ep-2; 0x1.5c2ea66473c93p-1; 0x1.d9715a8e0766cp-1 ]
    (draws 4 (fun () -> Rng.float rng))

let test_known_answers_bernoulli () =
  let rng = Rng.create 42 in
  let hits = List.filter (fun _ -> Rng.bernoulli rng 0.05) (List.init 400 Fun.id) in
  Alcotest.(check (list int)) "successes of bernoulli 0.05 among 400 trials"
    [ 37; 54; 109; 125; 142; 166; 172; 175; 187; 189; 231; 279; 284; 297; 309 ]
    hits

let test_known_answers_split () =
  let parent = Rng.create 42 in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  Alcotest.(check (list int64)) "first outputs of two successive children"
    [ 0x8ee445d14631c453L; 0x9f62288718cc63b6L ]
    [ Rng.next_int64 c1; Rng.next_int64 c2 ];
  Alcotest.(check int64) "parent advanced by one output per split"
    0xae17533239e499a1L (Rng.next_int64 parent)

let test_known_answers_pair () =
  let pairs seed n =
    let rng = Rng.create seed in
    draws 8 (fun () -> slot_pair rng n)
  in
  Alcotest.(check (list (pair int int))) "pairs of 16 from seed 42"
    [ (6, 15); (1, 2); (4, 9); (2, 8); (14, 13); (1, 6); (6, 2); (13, 10) ]
    (pairs 42 16);
  Alcotest.(check (list (pair int int))) "pairs of 20 from seed 7"
    [ (18, 0); (9, 0); (3, 18); (11, 14); (12, 10); (10, 0); (3, 8); (11, 4) ]
    (pairs 7 20)

(* Allocation: every draw the S&F step makes is allocation-free.  Int64
   values box under bytecode, so the check runs on the native backend only.
   [float] returns a boxed float across the module boundary (2 words). *)

let words_per_call ~calls f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let test_draws_allocate_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let rng = Rng.create 20 in
    let sink = ref 0 in
    let check what limit f =
      let words = words_per_call ~calls:100_000 f in
      if words > limit then
        Alcotest.failf "%s: %.3f minor words per call (limit %.0f)" what words limit
    in
    check "int 16" 0. (fun () -> sink := !sink + Rng.int rng 16);
    check "int 20" 0. (fun () -> sink := !sink + Rng.int rng 20);
    check "other" 0. (fun () -> sink := !sink + Rng.other rng 16 (!sink land 15));
    check "bernoulli" 0. (fun () -> if Rng.bernoulli rng 0.05 then incr sink);
    check "bool" 0. (fun () -> if Rng.bool rng then incr sink);
    check "float" 2. (fun () -> if Rng.float rng < 0.5 then incr sink);
    check "float_bits" 0. (fun () ->
        if float_of_int (Rng.float_bits rng) *. 0x1p-53 < 0.5 then incr sink);
    ignore (Sys.opaque_identity !sink)
  end

(* Property tests *)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let prop_slot_pair =
  QCheck.Test.make ~name:"int + other yields distinct indices" ~count:500
    QCheck.(pair small_int (int_range 2 100))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let i, j = slot_pair rng n in
      i <> j && i < n && j < n)

let prop_sample_indices =
  QCheck.Test.make ~name:"sample_indices are distinct and bounded" ~count:200
    QCheck.(pair small_int (int_range 1 50))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let k = 1 + (seed mod n) in
      let picks = Rng.sample_indices rng ~n ~k in
      Array.length picks = k
      && List.length (List.sort_uniq compare (Array.to_list picks)) = k
      && Array.for_all (fun x -> x >= 0 && x < n) picks)

(* [float_bits] is [float]'s draw before scaling: the same value bit for
   bit, and the two streams stay in step draw after draw. *)
let prop_float_bits_is_float =
  QCheck.Test.make ~name:"float_bits reproduces float bit for bit" ~count:300
    QCheck.(pair int (int_range 1 40))
    (fun (seed, draws) ->
      let a = Rng.create seed and b = Rng.create seed in
      let same = ref true in
      for _ = 1 to draws do
        let x = Rng.float a and y = float_of_int (Rng.float_bits b) *. 0x1p-53 in
        if Int64.bits_of_float x <> Int64.bits_of_float y then same := false
      done;
      !same && Rng.equal a b)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "copy preserves state" `Quick test_copy_preserves_state;
    Alcotest.test_case "equal tracks stream position" `Quick test_equal_tracks_position;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "int bound validation" `Quick test_int_bounds_rejected;
    Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
    Alcotest.test_case "int_range bounds" `Quick test_int_range;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "int + other validity" `Quick test_slot_pair;
    Alcotest.test_case "int + other coverage" `Quick test_slot_pair_covers_all_ordered_pairs;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "sample_indices distinct" `Quick test_sample_indices_distinct;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "categorical weights" `Quick test_categorical_weights;
    Alcotest.test_case "choose singleton" `Quick test_choose_singleton;
    Alcotest.test_case "splitmix64 reference vector" `Quick test_splitmix64_reference;
    Alcotest.test_case "known answers: next_int64" `Quick test_known_answers_raw;
    Alcotest.test_case "known answers: int" `Quick test_known_answers_int;
    Alcotest.test_case "known answers: float" `Quick test_known_answers_float;
    Alcotest.test_case "known answers: bernoulli" `Quick test_known_answers_bernoulli;
    Alcotest.test_case "known answers: split" `Quick test_known_answers_split;
    Alcotest.test_case "known answers: slot pair" `Quick test_known_answers_pair;
    Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
    QCheck_alcotest.to_alcotest prop_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_slot_pair;
    QCheck_alcotest.to_alcotest prop_sample_indices;
    QCheck_alcotest.to_alcotest prop_float_bits_is_float;
  ]
