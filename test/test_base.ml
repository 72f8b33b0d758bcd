(* Stats, Intmath, Tablefmt and the Parallel pool. *)

let feq = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)

(* --- Stats --- *)

let test_mean () =
  feq "mean" 2.0 (Ts_base.Stats.mean [ 1.0; 2.0; 3.0 ]);
  feq "empty" 0.0 (Ts_base.Stats.mean [])

let test_mean_int () = feq "mean_int" 2.5 (Ts_base.Stats.mean_int [ 2; 3 ])

let test_geomean () =
  feq "geomean" 2.0 (Ts_base.Stats.geomean [ 1.0; 4.0 ]);
  feq "empty" 0.0 (Ts_base.Stats.geomean [])

let test_weighted_mean () =
  feq "weighted" 1.25 (Ts_base.Stats.weighted_mean [ (1.0, 3.0); (2.0, 1.0) ])

let test_percent_change () =
  feq "up" 50.0 (Ts_base.Stats.percent_change 2.0 3.0);
  feq "down" (-25.0) (Ts_base.Stats.percent_change 4.0 3.0)

let test_speedup () =
  feq "2x faster = +100%" 100.0
    (Ts_base.Stats.speedup_percent ~baseline:10.0 ~improved:5.0);
  feq "same = 0%" 0.0 (Ts_base.Stats.speedup_percent ~baseline:5.0 ~improved:5.0);
  feq "slower is negative" (-50.0)
    (Ts_base.Stats.speedup_percent ~baseline:5.0 ~improved:10.0)

let test_clamp () =
  feq "below" 1.0 (Ts_base.Stats.clamp ~lo:1.0 ~hi:2.0 0.0);
  feq "above" 2.0 (Ts_base.Stats.clamp ~lo:1.0 ~hi:2.0 9.0);
  feq "inside" 1.5 (Ts_base.Stats.clamp ~lo:1.0 ~hi:2.0 1.5)

let test_round1 () =
  feq "round down" 1.2 (Ts_base.Stats.round1 1.24);
  feq "round up" 1.3 (Ts_base.Stats.round1 1.25)

(* --- Intmath --- *)

let test_div_floor () =
  check_int "7/2" 3 (Ts_base.Intmath.div_floor 7 2);
  check_int "-7/2" (-4) (Ts_base.Intmath.div_floor (-7) 2);
  check_int "-8/2" (-4) (Ts_base.Intmath.div_floor (-8) 2);
  check_int "0/5" 0 (Ts_base.Intmath.div_floor 0 5)

let test_div_ceil () =
  check_int "7/2" 4 (Ts_base.Intmath.div_ceil 7 2);
  check_int "-7/2" (-3) (Ts_base.Intmath.div_ceil (-7) 2);
  check_int "8/2" 4 (Ts_base.Intmath.div_ceil 8 2)

let test_modulo () =
  check_int "7 mod 3" 1 (Ts_base.Intmath.modulo 7 3);
  check_int "-1 mod 3" 2 (Ts_base.Intmath.modulo (-1) 3);
  check_int "-3 mod 3" 0 (Ts_base.Intmath.modulo (-3) 3)

let prop_floor_ceil =
  QCheck.Test.make ~count:1000 ~name:"div_floor <= div_ceil, consistent with mod"
    QCheck.(pair (int_range (-10000) 10000) (int_range 1 100))
    (fun (a, b) ->
      let f = Ts_base.Intmath.div_floor a b in
      let c = Ts_base.Intmath.div_ceil a b in
      let m = Ts_base.Intmath.modulo a b in
      f <= c
      && (f * b) + m = a
      && m >= 0 && m < b
      && if a mod b = 0 then f = c else c = f + 1)

(* --- Tablefmt --- *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t =
    Ts_base.Tablefmt.create
      [ ("name", Ts_base.Tablefmt.Left); ("v", Ts_base.Tablefmt.Right) ]
  in
  Ts_base.Tablefmt.add_row t [ "a"; "1" ];
  Ts_base.Tablefmt.add_row t [ "bb"; "22" ];
  let s = Ts_base.Tablefmt.render t in
  Alcotest.(check bool) "contains header" true (contains s "name");
  Alcotest.(check bool) "contains cells" true (contains s "bb" && contains s "22")

let test_table_align () =
  let t =
    Ts_base.Tablefmt.create
      [ ("x", Ts_base.Tablefmt.Right) ]
  in
  Ts_base.Tablefmt.add_row t [ "1" ];
  Ts_base.Tablefmt.add_row t [ "100" ];
  let lines = String.split_on_char '\n' (Ts_base.Tablefmt.render t) in
  (* every row line has the same width *)
  let widths =
    List.filter_map
      (fun l -> if String.length l > 0 then Some (String.length l) else None)
      lines
  in
  match widths with
  | [] -> Alcotest.fail "no lines"
  | w :: rest -> List.iter (fun w' -> check_int "equal line widths" w w') rest

let test_table_mismatch () =
  let t = Ts_base.Tablefmt.create [ ("a", Ts_base.Tablefmt.Left) ] in
  Alcotest.check_raises "cell count mismatch"
    (Invalid_argument "Tablefmt.add_row: cell count mismatch") (fun () ->
      Ts_base.Tablefmt.add_row t [ "1"; "2" ])

let test_table_title () =
  let t = Ts_base.Tablefmt.create ~title:"My Table" [ ("a", Ts_base.Tablefmt.Left) ] in
  Ts_base.Tablefmt.add_row t [ "x" ];
  let s = Ts_base.Tablefmt.render t in
  Alcotest.(check bool) "title on first line" true
    (String.length s > 8 && String.sub s 0 8 = "My Table")

let test_cells () =
  Alcotest.(check string) "int" "42" (Ts_base.Tablefmt.cell_int 42);
  Alcotest.(check string) "f1" "1.5" (Ts_base.Tablefmt.cell_f1 1.46);
  Alcotest.(check string) "f2" "1.46" (Ts_base.Tablefmt.cell_f2 1.456);
  Alcotest.(check string) "pct" "12.5%" (Ts_base.Tablefmt.cell_pct 12.49)

(* --- Parallel --- *)

(* Variable-length pure work keyed on the input, so task completion order
   (and hence steal order) varies run to run while the value is fixed. *)
let spin seed =
  let rounds = 500 + (seed * 7919 mod 4000) in
  let x = ref seed in
  for _ = 1 to rounds do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF
  done;
  !x

(* Depth-3 map-inside-map: inner maps ride the pool help-first instead of
   spawning, so the resident domain count must not grow past the batch
   size no matter how deep the nesting. *)
let test_pool_nested () =
  let bound = max (Ts_base.Parallel.size_now ()) 4 in
  let expected =
    List.init 6 (fun a ->
        List.init 5 (fun b ->
            List.init 4 (fun c -> spin ((a * 100) + (b * 10) + c))))
  in
  let got =
    Ts_base.Parallel.map ~jobs:4
      (fun a ->
        Ts_base.Parallel.map ~jobs:4
          (fun b ->
            Ts_base.Parallel.map ~jobs:4
              (fun c -> spin ((a * 100) + (b * 10) + c))
              (List.init 4 Fun.id))
          (List.init 5 Fun.id))
      (List.init 6 Fun.id)
  in
  Alcotest.(check bool) "depth-3 nested results" true (got = expected);
  Alcotest.(check bool) "no domain explosion" true
    (Ts_base.Parallel.size_now () <= bound)

(* Whatever order thieves drain the deques in, results come back in input
   order with input-indexed values. *)
let test_pool_steal_determinism () =
  let items = List.init 40 Fun.id in
  let expected = List.map spin items in
  for _ = 1 to 5 do
    let got = Ts_base.Parallel.map ~jobs:4 spin items in
    Alcotest.(check bool) "deterministic result order" true (got = expected)
  done

(* Failure indices refer to input positions, not execution order: under
   stealing the failing tasks finish in arbitrary order, but Map_errors
   must list them ascending and identically to the sequential path. *)
let test_pool_map_errors_fidelity () =
  let f i =
    ignore (spin i);
    if i mod 7 = 3 then failwith (Printf.sprintf "boom-%d" i) else i * i
  in
  let items = List.init 50 Fun.id in
  let run jobs =
    match Ts_base.Parallel.map ~jobs f items with
    | _ -> Alcotest.fail "expected Map_errors"
    | exception Ts_base.Parallel.Map_errors fs ->
        List.map (fun (i, e) -> (i, Printexc.to_string e)) fs
  in
  let seq = run 1 in
  let par = run 4 in
  Alcotest.(check bool) "identical failures at jobs 1 and 4" true (seq = par);
  Alcotest.(check (list int)) "ascending input indices"
    [ 3; 10; 17; 24; 31; 38; 45 ]
    (List.map fst par)

(* Worker_exit must cover every pool slot, including workers that ran
   zero tasks of the batch — a 2-item batch on a 4-worker pool leaves
   idle slots, and utilization metrics need to see them. *)
let test_pool_worker_exit_zero () =
  let saved = Ts_base.Parallel.get_observer () in
  let lock = Mutex.create () in
  let exits = ref [] in
  Ts_base.Parallel.set_observer
    (Some
       (function
         | Ts_base.Parallel.Worker_exit { worker; tasks; _ } ->
             Mutex.lock lock;
             exits := (worker, tasks) :: !exits;
             Mutex.unlock lock
         | _ -> ()));
  let r = Ts_base.Parallel.map ~jobs:4 (fun x -> x + 1) [ 1; 2 ] in
  Ts_base.Parallel.set_observer saved;
  Alcotest.(check (list int)) "results" [ 2; 3 ] r;
  let exits = !exits in
  let total = List.fold_left (fun a (_, t) -> a + t) 0 exits in
  check_int "task accounting sums to n" 2 total;
  check_int "one exit per pool slot (caller included)"
    (Ts_base.Parallel.size_now () + 1)
    (List.length exits);
  Alcotest.(check bool) "zero-task workers reported" true
    (List.exists (fun (_, t) -> t = 0) exits)

let test_pool_futures () =
  let futs = List.init 10 (fun i -> Ts_base.Parallel.submit (fun () -> spin i)) in
  Alcotest.(check (list int)) "futures resolve in submission order"
    (List.init 10 spin)
    (List.map Ts_base.Parallel.await futs);
  let bad = Ts_base.Parallel.submit (fun () -> failwith "nope") in
  Alcotest.check_raises "await re-raises" (Failure "nope") (fun () ->
      ignore (Ts_base.Parallel.await bad))

let suite =
  [
    Alcotest.test_case "stats: mean" `Quick test_mean;
    Alcotest.test_case "stats: mean_int" `Quick test_mean_int;
    Alcotest.test_case "stats: geomean" `Quick test_geomean;
    Alcotest.test_case "stats: weighted_mean" `Quick test_weighted_mean;
    Alcotest.test_case "stats: percent_change" `Quick test_percent_change;
    Alcotest.test_case "stats: speedup_percent" `Quick test_speedup;
    Alcotest.test_case "stats: clamp" `Quick test_clamp;
    Alcotest.test_case "stats: round1" `Quick test_round1;
    Alcotest.test_case "intmath: div_floor" `Quick test_div_floor;
    Alcotest.test_case "intmath: div_ceil" `Quick test_div_ceil;
    Alcotest.test_case "intmath: modulo" `Quick test_modulo;
    QCheck_alcotest.to_alcotest prop_floor_ceil;
    Alcotest.test_case "tablefmt: render" `Quick test_table_render;
    Alcotest.test_case "tablefmt: aligned widths" `Quick test_table_align;
    Alcotest.test_case "tablefmt: arity check" `Quick test_table_mismatch;
    Alcotest.test_case "tablefmt: title" `Quick test_table_title;
    Alcotest.test_case "tablefmt: cell formatters" `Quick test_cells;
    Alcotest.test_case "pool: nested maps, no domain explosion" `Quick
      test_pool_nested;
    Alcotest.test_case "pool: steal order vs result order" `Quick
      test_pool_steal_determinism;
    Alcotest.test_case "pool: Map_errors index fidelity" `Quick
      test_pool_map_errors_fidelity;
    Alcotest.test_case "pool: zero-task Worker_exit" `Quick
      test_pool_worker_exit_zero;
    Alcotest.test_case "pool: futures submit/await" `Quick test_pool_futures;
  ]
