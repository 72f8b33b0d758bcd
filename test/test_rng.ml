(* SplitMix64 RNG: determinism, independence, distribution sanity. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_deterministic () =
  let a = Ts_base.Rng.create 42L and b = Ts_base.Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Ts_base.Rng.next_int64 a)
      (Ts_base.Rng.next_int64 b)
  done

let test_of_string_deterministic () =
  let a = Ts_base.Rng.of_string "hello" and b = Ts_base.Rng.of_string "hello" in
  Alcotest.(check int64) "same" (Ts_base.Rng.next_int64 a) (Ts_base.Rng.next_int64 b)

let test_of_string_distinct () =
  let a = Ts_base.Rng.of_string "hello" and b = Ts_base.Rng.of_string "world" in
  check_bool "different streams" false
    (Ts_base.Rng.next_int64 a = Ts_base.Rng.next_int64 b)

let test_split_independent () =
  let root = Ts_base.Rng.create 7L in
  let a = Ts_base.Rng.split root "a" in
  let b = Ts_base.Rng.split root "b" in
  check_bool "split streams differ" false
    (Ts_base.Rng.next_int64 a = Ts_base.Rng.next_int64 b)

let test_split_no_disturb () =
  let r1 = Ts_base.Rng.create 7L and r2 = Ts_base.Rng.create 7L in
  let _ = Ts_base.Rng.split r1 "x" in
  Alcotest.(check int64) "split does not advance parent" (Ts_base.Rng.next_int64 r1)
    (Ts_base.Rng.next_int64 r2)

let test_derive2_deterministic () =
  let root = Ts_base.Rng.create 99L in
  let a = Ts_base.Rng.derive2 root 3 14 and b = Ts_base.Rng.derive2 root 3 14 in
  Alcotest.(check int64) "same derivation" (Ts_base.Rng.next_int64 a)
    (Ts_base.Rng.next_int64 b)

let test_derive2_distinct () =
  let root = Ts_base.Rng.create 99L in
  let a = Ts_base.Rng.derive2 root 3 14 and b = Ts_base.Rng.derive2 root 14 3 in
  check_bool "argument order matters" false
    (Ts_base.Rng.next_int64 a = Ts_base.Rng.next_int64 b)

let test_int_bounds () =
  let r = Ts_base.Rng.create 1L in
  for _ = 1 to 1000 do
    let v = Ts_base.Rng.int r 7 in
    check_bool "0 <= v < 7" true (v >= 0 && v < 7)
  done

let test_int_in_bounds () =
  let r = Ts_base.Rng.create 2L in
  for _ = 1 to 1000 do
    let v = Ts_base.Rng.int_in r (-3) 5 in
    check_bool "-3 <= v <= 5" true (v >= -3 && v <= 5)
  done

let test_int_covers_range () =
  let r = Ts_base.Rng.create 3L in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Ts_base.Rng.int r 5) <- true
  done;
  Array.iteri (fun i s -> check_bool (Printf.sprintf "value %d seen" i) true s) seen

let test_float_bounds () =
  let r = Ts_base.Rng.create 4L in
  for _ = 1 to 1000 do
    let v = Ts_base.Rng.float r 2.5 in
    check_bool "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_bool_probability () =
  let r = Ts_base.Rng.create 5L in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Ts_base.Rng.bool r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_bool (Printf.sprintf "rate %.3f near 0.3" rate) true
    (rate > 0.27 && rate < 0.33)

let test_bool_extremes () =
  let r = Ts_base.Rng.create 6L in
  check_bool "p=0 never true" false (Ts_base.Rng.bool r 0.0);
  check_bool "p=1 always true" true (Ts_base.Rng.bool r 1.0)

let test_shuffle_permutation () =
  let r = Ts_base.Rng.create 8L in
  let a = Array.init 50 Fun.id in
  Ts_base.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_pick_member () =
  let r = Ts_base.Rng.create 9L in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    check_bool "member" true (Array.mem (Ts_base.Rng.pick r a) a)
  done

let test_pick_weighted_bias () =
  let r = Ts_base.Rng.create 10L in
  let heavy = ref 0 in
  for _ = 1 to 5000 do
    if Ts_base.Rng.pick_weighted r [| ("a", 9.0); ("b", 1.0) |] = "a" then incr heavy
  done;
  check_bool "weighted pick is biased" true (!heavy > 4000)

let test_pick_weighted_single () =
  let r = Ts_base.Rng.create 11L in
  check_int "single choice" 1
    (Ts_base.Rng.pick_weighted r [| (1, 0.5) |])

let prop_int_in_range =
  QCheck.Test.make ~count:500 ~name:"rng int always in bound"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Ts_base.Rng.create (Int64.of_int seed) in
      let v = Ts_base.Rng.int r bound in
      v >= 0 && v < bound)

let prop_coin2_matches_derive2 =
  QCheck.Test.make ~count:1000
    ~name:"coin2 equals bool of derive2, bit for bit"
    QCheck.(
      quad int64 (int_range (-1000) 100_000) (int_range (-100_000) 100_000)
        (float_bound_inclusive 1.0))
    (fun (seed, a, b, p) ->
      let t = Ts_base.Rng.create seed in
      Ts_base.Rng.coin2 t a b p = Ts_base.Rng.bool (Ts_base.Rng.derive2 t a b) p)

let suite =
  [
    Alcotest.test_case "create: deterministic" `Quick test_deterministic;
    Alcotest.test_case "of_string: deterministic" `Quick test_of_string_deterministic;
    Alcotest.test_case "of_string: distinct labels" `Quick test_of_string_distinct;
    Alcotest.test_case "split: independent" `Quick test_split_independent;
    Alcotest.test_case "split: parent undisturbed" `Quick test_split_no_disturb;
    Alcotest.test_case "derive2: deterministic" `Quick test_derive2_deterministic;
    Alcotest.test_case "derive2: order matters" `Quick test_derive2_distinct;
    Alcotest.test_case "int: bounds" `Quick test_int_bounds;
    Alcotest.test_case "int_in: bounds" `Quick test_int_in_bounds;
    Alcotest.test_case "int: covers range" `Quick test_int_covers_range;
    Alcotest.test_case "float: bounds" `Quick test_float_bounds;
    Alcotest.test_case "bool: probability" `Quick test_bool_probability;
    Alcotest.test_case "bool: extremes" `Quick test_bool_extremes;
    Alcotest.test_case "shuffle: permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "pick: member" `Quick test_pick_member;
    Alcotest.test_case "pick_weighted: bias" `Quick test_pick_weighted_bias;
    Alcotest.test_case "pick_weighted: single" `Quick test_pick_weighted_single;
    QCheck_alcotest.to_alcotest prop_int_in_range;
    QCheck_alcotest.to_alcotest prop_coin2_matches_derive2;
  ]
