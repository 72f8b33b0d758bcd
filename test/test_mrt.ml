(* Modulo reservation table. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let m = Ts_isa.Machine.spmt_core

let test_fits_empty () =
  let t = Ts_modsched.Mrt.create m ~ii:4 in
  List.iter
    (fun op -> check_bool "fits in empty table" true (Ts_modsched.Mrt.fits t op ~cycle:0))
    [ Ts_isa.Opcode.Ialu; Ts_isa.Opcode.Load; Ts_isa.Opcode.Fmul ]

let test_unit_exhaustion () =
  (* spmt has 2 memory ports: a third load in the same modulo cycle fails *)
  let t = Ts_modsched.Mrt.create m ~ii:4 in
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Load ~cycle:1;
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Store ~cycle:1;
  check_bool "ports full" false (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Load ~cycle:1);
  check_bool "other cycle free" true (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Load ~cycle:2)

let test_issue_width () =
  let t = Ts_modsched.Mrt.create m ~ii:4 in
  (* 4-wide: four ALU ops fill cycle 0's issue slots *)
  for _ = 1 to 4 do
    Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Ialu ~cycle:0
  done;
  check_bool "issue slots exhausted" false
    (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Fadd ~cycle:0);
  check_int "used slots" 4 (Ts_modsched.Mrt.used_issue_slots t 0)

let test_modulo_wrap () =
  let t = Ts_modsched.Mrt.create m ~ii:4 in
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Load ~cycle:9;
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Load ~cycle:(-3);
  (* 9 mod 4 = 1 and -3 mod 4 = 1: both ports used at modulo cycle 1 *)
  check_bool "wrapped" false (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Load ~cycle:5)

let test_unpipelined_occupancy () =
  (* toy's multiplier is busy 4 cycles; at ii=8 two muls fit, offset apart *)
  let t = Ts_modsched.Mrt.create Ts_isa.Machine.toy ~ii:8 in
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Fmul ~cycle:0;
  check_bool "occupied cycles 0-3" false
    (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Fmul ~cycle:3);
  check_bool "free at cycle 4" true (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Fmul ~cycle:4)

let test_unpipelined_too_big () =
  (* busy 4 > ii * units = 3: can never fit *)
  let t = Ts_modsched.Mrt.create Ts_isa.Machine.toy ~ii:3 in
  check_bool "cannot fit" false (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Fmul ~cycle:0)

let test_wrap_multiplicity () =
  (* busy 8 multiplier at ii 8 occupies every cycle once: a second cannot fit
     anywhere (1 unit) *)
  let t = Ts_modsched.Mrt.create Ts_isa.Machine.toy ~ii:8 in
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Fdiv ~cycle:0;
  check_bool "fully occupied" false (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Fmul ~cycle:5)

let test_release () =
  let t = Ts_modsched.Mrt.create m ~ii:4 in
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Load ~cycle:0;
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Load ~cycle:0;
  check_bool "full" false (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Load ~cycle:0);
  Ts_modsched.Mrt.release t Ts_isa.Opcode.Load ~cycle:0;
  check_bool "one slot back" true (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Load ~cycle:0)

(* Every [fits] answer of a table: all opcodes at every modulo row. *)
let fits_answers t ii =
  List.concat_map
    (fun op -> List.init ii (fun c -> Ts_modsched.Mrt.fits t op ~cycle:c))
    Ts_isa.Opcode.all

let test_failed_release_leaves_table () =
  (* Row 0's issue slots are full; releasing a load that was never
     reserved must raise without freeing one of them, and a second release
     of a released op must fail the same way. *)
  let t = Ts_modsched.Mrt.create m ~ii:2 in
  for _ = 1 to 3 do
    Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Ialu ~cycle:0
  done;
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Fmul ~cycle:0;
  let before = fits_answers t 2 in
  check_bool "row 0 full" false (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Fadd ~cycle:0);
  let not_reserved = Invalid_argument "Mrt.release: not reserved" in
  Alcotest.check_raises "never reserved" not_reserved (fun () ->
      Ts_modsched.Mrt.release t Ts_isa.Opcode.Load ~cycle:0);
  Alcotest.(check (list bool)) "answers unchanged" before (fits_answers t 2);
  check_int "issue slots unchanged" 4 (Ts_modsched.Mrt.used_issue_slots t 0);
  Ts_modsched.Mrt.release t Ts_isa.Opcode.Fmul ~cycle:0;
  let after_one = fits_answers t 2 in
  Alcotest.check_raises "released twice" not_reserved (fun () ->
      Ts_modsched.Mrt.release t Ts_isa.Opcode.Fmul ~cycle:0);
  Alcotest.(check (list bool)) "answers unchanged" after_one (fits_answers t 2)

(* The toy machine with two multiplier units: an unpipelined op longer
   than II can then fit, wrapping onto some rows twice. *)
let toy2 =
  {
    Ts_isa.Machine.toy with
    name = "toy2";
    fu_counts =
      List.map
        (fun (fu, n) ->
          match fu with
          | Ts_isa.Machine.Fu_imul | Fu_fmul -> (fu, 2)
          | _ -> (fu, n))
        Ts_isa.Machine.toy.fu_counts;
  }

let test_wrapped_occupancy () =
  (* busy 8 at ii 5 takes rows 0-2 twice and rows 3-4 once: every 4-cycle
     multiply window then hits a full row, and releasing frees them all. *)
  let t = Ts_modsched.Mrt.create toy2 ~ii:5 in
  let r = Ts_check.Ref_models.Mrt.create toy2 ~ii:5 in
  check_bool "fdiv wraps and fits" true (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Fdiv ~cycle:10);
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Fdiv ~cycle:10;
  Ts_check.Ref_models.Mrt.reserve r Ts_isa.Opcode.Fdiv ~cycle:10;
  List.iter
    (fun c ->
      check_bool "no multiply fits" false (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Fmul ~cycle:c);
      check_bool "reference agrees" false
        (Ts_check.Ref_models.Mrt.fits r Ts_isa.Opcode.Fmul ~cycle:c))
    [ 0; 1; 2; 3; 4 ];
  check_bool "a second fdiv does not fit" false
    (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Fdiv ~cycle:3);
  Ts_modsched.Mrt.release t Ts_isa.Opcode.Fdiv ~cycle:10;
  check_bool "released" true (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Fmul ~cycle:0);
  Alcotest.check_raises "wrapped release twice"
    (Invalid_argument "Mrt.release: not reserved") (fun () ->
      Ts_modsched.Mrt.release t Ts_isa.Opcode.Fdiv ~cycle:10)

let test_reserve_overflow_raises () =
  let t = Ts_modsched.Mrt.create m ~ii:2 in
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Imul ~cycle:0;
  Alcotest.check_raises "second imul rejected"
    (Invalid_argument "Mrt.reserve: imul does not fit at cycle 0 (ii=2)")
    (fun () -> Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Imul ~cycle:0)

let test_create_bad_ii () =
  Alcotest.check_raises "ii 0" (Invalid_argument "Mrt.create: ii must be positive")
    (fun () -> ignore (Ts_modsched.Mrt.create m ~ii:0))

let prop_capacity_never_exceeded =
  QCheck.Test.make ~count:100 ~name:"greedy fill never exceeds capacity"
    QCheck.(pair small_int (int_range 1 12))
    (fun (seed, ii) ->
      let rng = Ts_base.Rng.create (Int64.of_int seed) in
      let t = Ts_modsched.Mrt.create m ~ii in
      let ops = [| Ts_isa.Opcode.Ialu; Ts_isa.Opcode.Load; Ts_isa.Opcode.Fmul;
                   Ts_isa.Opcode.Fadd; Ts_isa.Opcode.Store |] in
      for _ = 1 to 50 do
        let op = Ts_base.Rng.pick rng ops in
        let c = Ts_base.Rng.int rng (2 * ii) in
        if Ts_modsched.Mrt.fits t op ~cycle:c then Ts_modsched.Mrt.reserve t op ~cycle:c
      done;
      (* issue width is respected at every modulo cycle *)
      List.init ii Fun.id
      |> List.for_all (fun c ->
             Ts_modsched.Mrt.used_issue_slots t c <= m.Ts_isa.Machine.issue_width))

(* Differential streams against the reference bag-of-reservations model:
   every opcode, II 1..24 (below, at and above the busy 4/8/16 unpipelined
   ops, so occupancies wrap), cycles in [-3 II, 3 II]. After each stream
   every [fits] answer of the table is compared too. *)
let prop_matches_reference =
  let machines = [| m; Ts_isa.Machine.toy; toy2 |] in
  let opcodes = Array.of_list Ts_isa.Opcode.all in
  QCheck.Test.make ~count:400 ~name:"fits/reserve/release match Ref_models.Mrt"
    QCheck.(triple small_nat (int_bound 2) (int_range 1 24))
    (fun (seed, mi, ii) ->
      let machine = machines.(mi) in
      let rng = Ts_base.Rng.create (Int64.of_int seed) in
      let t = Ts_modsched.Mrt.create machine ~ii in
      let r = Ts_check.Ref_models.Mrt.create machine ~ii in
      let reserved = ref [] in
      let agree = ref true in
      for _ = 1 to 150 do
        let op = Ts_base.Rng.pick rng opcodes in
        let cycle = Ts_base.Rng.int_in rng (-3 * ii) (3 * ii) in
        let got = Ts_modsched.Mrt.fits t op ~cycle in
        if got <> Ts_check.Ref_models.Mrt.fits r op ~cycle then agree := false;
        if got && Ts_base.Rng.bool rng 0.7 then begin
          Ts_modsched.Mrt.reserve t op ~cycle;
          Ts_check.Ref_models.Mrt.reserve r op ~cycle;
          reserved := (op, cycle) :: !reserved
        end;
        if !reserved <> [] && Ts_base.Rng.bool rng 0.25 then begin
          let i = Ts_base.Rng.int rng (List.length !reserved) in
          let o, c = List.nth !reserved i in
          reserved := List.filteri (fun j _ -> j <> i) !reserved;
          Ts_modsched.Mrt.release t o ~cycle:c;
          Ts_check.Ref_models.Mrt.release r o ~cycle:c
        end
      done;
      !agree
      && List.for_all
           (fun op ->
             List.for_all
               (fun c ->
                 Ts_modsched.Mrt.fits t op ~cycle:c
                 = Ts_check.Ref_models.Mrt.fits r op ~cycle:c)
               (List.init ii Fun.id))
           Ts_isa.Opcode.all)

let suite =
  [
    Alcotest.test_case "fits: empty table" `Quick test_fits_empty;
    Alcotest.test_case "fits: unit exhaustion" `Quick test_unit_exhaustion;
    Alcotest.test_case "fits: issue width" `Quick test_issue_width;
    Alcotest.test_case "fits: modulo wrap" `Quick test_modulo_wrap;
    Alcotest.test_case "fits: unpipelined occupancy" `Quick test_unpipelined_occupancy;
    Alcotest.test_case "fits: busy > capacity" `Quick test_unpipelined_too_big;
    Alcotest.test_case "fits: wrapped multiplicity" `Quick test_wrap_multiplicity;
    Alcotest.test_case "release undoes reserve" `Quick test_release;
    Alcotest.test_case "release: failure leaves the table" `Quick
      test_failed_release_leaves_table;
    Alcotest.test_case "fits: wrapped occupancy, two units" `Quick test_wrapped_occupancy;
    Alcotest.test_case "reserve: overflow raises" `Quick test_reserve_overflow_raises;
    Alcotest.test_case "create: bad ii" `Quick test_create_bad_ii;
    QCheck_alcotest.to_alcotest prop_capacity_never_exceeded;
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
