(* Partial schedules and scheduling windows. *)

module S = Ts_modsched.Sched

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let window_exn ?prefer s v =
  match S.window ?prefer s v with
  | Some w -> w
  | None -> Alcotest.fail "expected a window"

let test_empty_schedule () =
  let g = Fixtures.chain 3 in
  let s = S.create g ~ii:2 in
  check_int "nothing scheduled" 0 (S.n_scheduled s);
  check_bool "not complete" false (S.is_complete s);
  check_bool "no time" true (S.time s 0 = None)

let test_asap_chain () =
  let g = Fixtures.chain 3 in
  let s = S.create g ~ii:2 in
  check_int "asap n0" 0 (S.asap s 0);
  check_int "asap n1" 1 (S.asap s 1);
  check_int "asap n2" 2 (S.asap s 2)

let test_asap_carried () =
  (* accumulator: load(3) feeds fadd; asap fadd = 3 despite the self dep *)
  let g = Fixtures.accumulator () in
  let s = S.create g ~ii:3 in
  check_int "asap acc" 3 (S.asap s 1)

let test_window_no_neighbours () =
  let g = Fixtures.chain 3 in
  let s = S.create g ~ii:4 in
  let lo, hi, dir = window_exn s 1 in
  check_int "starts at asap" 1 lo;
  check_int "II slots wide" 4 (hi - lo + 1);
  check_bool "ascending" true (dir = S.Up)

let test_window_pred_only () =
  let g = Fixtures.chain 3 in
  let s = S.create g ~ii:4 in
  S.place s 0 ~cycle:2;
  let lo, hi, dir = window_exn s 1 in
  check_int "early = t(pred) + lat" 3 lo;
  check_int "width II" 4 (hi - lo + 1);
  check_bool "ascending" true (dir = S.Up)

let test_window_succ_only () =
  let g = Fixtures.chain 3 in
  let s = S.create g ~ii:4 in
  S.place s 2 ~cycle:10;
  let lo, hi, dir = window_exn s 1 in
  check_int "late = t(succ) - lat" 9 hi;
  check_int "width II" 4 (hi - lo + 1);
  check_bool "descending" true (dir = S.Down)

let test_window_both () =
  let g = Fixtures.chain 3 in
  let s = S.create g ~ii:8 in
  S.place s 0 ~cycle:0;
  S.place s 2 ~cycle:6;
  let lo, hi, dir = window_exn s 1 in
  check_int "early" 1 lo;
  check_int "late" 5 hi;
  check_bool "prefer defaults up" true (dir = S.Up);
  let _, _, dir2 = window_exn ~prefer:S.Down s 1 in
  check_bool "prefer down honoured" true (dir2 = S.Down)

let test_window_carried_distance () =
  (* succ scheduled via a distance-1 edge widens the window by II *)
  let g = Fixtures.accumulator () in
  let s = S.create g ~ii:5 in
  S.place s 1 ~cycle:3 (* the accumulator *);
  (* load -> acc (d0): late = 3 - 3 = 0; also acc's self dep doesn't
     constrain the load *)
  let _, hi, _ = window_exn s 0 in
  check_int "late bound via d0 edge" 0 hi

let test_window_empty () =
  let g = Fixtures.chain 3 in
  let s = S.create g ~ii:2 in
  S.place s 0 ~cycle:0;
  S.place s 2 ~cycle:0;
  (* n1 needs t >= 1 and t <= -1: impossible *)
  check_bool "dead window" true (S.window s 1 = None)

(* The oracle's window walk ([Ref_tms]); the schedulers scan in place. *)
let test_candidate_cycles () =
  Alcotest.(check (list int)) "up" [ 2; 3; 4 ] (Ref_tms.candidate_cycles (2, 4, S.Up));
  Alcotest.(check (list int)) "down" [ 4; 3; 2 ]
    (Ref_tms.candidate_cycles (2, 4, S.Down))

let test_place_reserves_resources () =
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  let l1 = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Load in
  let l2 = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Load in
  let l3 = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Load in
  let g = Ts_ddg.Ddg.Builder.build b in
  let s = S.create g ~ii:2 in
  S.place s l1 ~cycle:0;
  S.place s l2 ~cycle:0;
  check_bool "third load does not fit" false (S.fits s l3 ~cycle:0);
  check_bool "fits next cycle" true (S.fits s l3 ~cycle:1)

let test_double_place_raises () =
  let g = Fixtures.chain 2 in
  let s = S.create g ~ii:2 in
  S.place s 0 ~cycle:0;
  Alcotest.check_raises "double place"
    (Invalid_argument "Sched.place: node 0 already scheduled") (fun () ->
      S.place s 0 ~cycle:1)

let test_times_exn_incomplete () =
  let g = Fixtures.chain 2 in
  let s = S.create g ~ii:2 in
  Alcotest.check_raises "incomplete"
    (Invalid_argument "Sched.times_exn: incomplete schedule") (fun () ->
      ignore (S.times_exn s))

let test_complete () =
  let g = Fixtures.chain 2 in
  let s = S.create g ~ii:2 in
  S.place s 0 ~cycle:0;
  S.place s 1 ~cycle:1;
  check_bool "complete" true (S.is_complete s);
  Alcotest.(check (array int)) "times" [| 0; 1 |] (S.times_exn s);
  Alcotest.(check (list int)) "placement order" [ 0; 1 ] (S.scheduled_nodes s)

let test_create_below_recii_raises () =
  let g = Fixtures.accumulator () in
  check_bool "raises below RecII" true
    (match S.create g ~ii:2 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "create: empty" `Quick test_empty_schedule;
    Alcotest.test_case "asap: chain" `Quick test_asap_chain;
    Alcotest.test_case "asap: carried dep ignored at horizon" `Quick test_asap_carried;
    Alcotest.test_case "window: no neighbours" `Quick test_window_no_neighbours;
    Alcotest.test_case "window: predecessors only" `Quick test_window_pred_only;
    Alcotest.test_case "window: successors only" `Quick test_window_succ_only;
    Alcotest.test_case "window: both sides" `Quick test_window_both;
    Alcotest.test_case "window: carried distance" `Quick test_window_carried_distance;
    Alcotest.test_case "window: empty (dead)" `Quick test_window_empty;
    Alcotest.test_case "candidate_cycles order" `Quick test_candidate_cycles;
    Alcotest.test_case "place: reserves resources" `Quick test_place_reserves_resources;
    Alcotest.test_case "place: double placement raises" `Quick test_double_place_raises;
    Alcotest.test_case "times_exn: incomplete raises" `Quick test_times_exn_incomplete;
    Alcotest.test_case "complete schedule" `Quick test_complete;
    Alcotest.test_case "create: below RecII raises" `Quick test_create_below_recii_raises;
  ]
