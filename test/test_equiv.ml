(* Golden equivalence: the optimised TMS search (incremental dependence
   masks, per-II ASAP cache, allocation-free admissibility, parallel
   sweep) must agree with the list-based seed implementation in
   [Ref_tms] on every observable: byte-identical kernels, exact [f_min],
   attempt counts and fallback flags. The float comparisons are
   intentionally exact ([=], no epsilon) — the optimised P_M product
   multiplies in the same edge order as the seed, so any drift is a bug.

   Also here: the sweep's metrics totals must not depend on the domain
   pool size (satellite of the same PR). *)

module K = Ts_modsched.Kernel

let params = Ts_isa.Spmt_params.default
let two_core = Ts_isa.Spmt_params.two_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let check_kernel name (expect : K.t) (got : K.t) =
  check_int (name ^ ": ii") expect.K.ii got.K.ii;
  Alcotest.(check (array int)) (name ^ ": issue times") expect.K.time got.K.time;
  Alcotest.(check (array int)) (name ^ ": rows") expect.K.row got.K.row;
  Alcotest.(check (array int)) (name ^ ": stages") expect.K.stage got.K.stage

(* Every field of the result record, kernel first. Without [attempts],
   the reference may only have tried more points. *)
let check_result ?(attempts = true) name (e : Ref_tms.result)
    (r : Ts_tms.Tms.result) =
  check_kernel name e.Ref_tms.kernel r.Ts_tms.Tms.kernel;
  Alcotest.(check (float 0.0)) (name ^ ": f_min") e.Ref_tms.f_min r.Ts_tms.Tms.f_min;
  if attempts then
    check_int (name ^ ": attempts") e.Ref_tms.attempts r.Ts_tms.Tms.attempts
  else
    check_bool (name ^ ": no fewer attempts") true
      (e.Ref_tms.attempts >= r.Ts_tms.Tms.attempts);
  check_bool (name ^ ": fell_back") e.Ref_tms.fell_back r.Ts_tms.Tms.fell_back;
  Alcotest.(check (float 0.0)) (name ^ ": p_max") e.Ref_tms.p_max r.Ts_tms.Tms.p_max;
  check_int (name ^ ": c_delay_threshold") e.Ref_tms.c_delay_threshold
    r.Ts_tms.Tms.c_delay_threshold;
  Alcotest.(check (float 0.0)) (name ^ ": misspec") e.Ref_tms.misspec
    r.Ts_tms.Tms.misspec

(* The reference walks the grid from a given first [C_delay]; the
   optimised search starts at its floor. [against_ref] runs [reference]
   twice: from the same start, where every field must agree, and from
   Figure 3's [1 + c_reg_com], where the points below the floor are tried
   too and everything but the attempt count must still agree: skipping
   them changes nothing else. *)
let against_ref name g ~(params : Ts_isa.Spmt_params.t) ~reference got =
  let c_reg_com = params.c_reg_com in
  let start = max (1 + c_reg_com) (Ts_tms.Tms.c_delay_floor ~c_reg_com g) in
  check_result name (reference ~cd_min:start) got;
  if start > 1 + c_reg_com then
    check_result ~attempts:false (name ^ " (Fig 3 start)")
      (reference ~cd_min:(1 + c_reg_com))
      got

let check_schedule name g ~params ~p_max =
  against_ref name g ~params
    ~reference:(fun ~cd_min -> Ref_tms.schedule ~p_max ~cd_min ~params g)
    (Ts_tms.Tms.schedule ~p_max ~params g)

let p_maxes = [ 0.0; 0.01; 0.05; 0.25; 1.0 ]

let test_motivating () =
  let g = Fixtures.motivating () in
  List.iter
    (fun p_max ->
      check_schedule (Printf.sprintf "motivating p_max=%g" p_max) g ~params ~p_max;
      check_schedule
        (Printf.sprintf "motivating/2core p_max=%g" p_max)
        g ~params:two_core ~p_max)
    p_maxes

(* A sweep stops after one search where C2 cannot bind; the reference
   sweep runs every search, so a short-circuited result labelled with the
   wrong P_max shows up here. *)
let check_sweep ?p_maxes name g ~params =
  against_ref name g ~params
    ~reference:(fun ~cd_min -> Ref_tms.schedule_sweep ?p_maxes ~cd_min ~params g)
    (Ts_tms.Tms.schedule_sweep ?p_maxes ~params g)

(* The default ascending list and two orders where the smallest value,
   searched first, is not the head of the list. *)
let sweep_orders = [ None; Some [ 0.25; 0.05; 0.01 ]; Some [ 0.05; 0.01; 0.25 ] ]

let check_sweeps name g ~params =
  List.iter
    (fun p_maxes ->
      let tag =
        match p_maxes with
        | None -> ""
        | Some l -> " [" ^ String.concat ";" (List.map string_of_float l) ^ "]"
      in
      check_sweep ?p_maxes (name ^ tag) g ~params)
    sweep_orders

let test_motivating_sweep () =
  check_sweeps "sweep pick" (Fixtures.motivating ()) ~params

let test_spec_suite () =
  List.iter
    (fun (bench : Ts_workload.Spec_suite.bench) ->
      let loops = Ts_workload.Spec_suite.loops bench in
      List.iteri
        (fun i g ->
          if i < 2 then
            check_schedule
              (Printf.sprintf "%s[%d]" bench.name i)
              g ~params ~p_max:Ts_tms.Tms.default_p_max)
        loops)
    Ts_workload.Spec_suite.benchmarks

let test_doacross () =
  List.iter
    (fun (sel : Ts_workload.Doacross.selected) ->
      List.iteri
        (fun i g ->
          check_schedule
            (Printf.sprintf "doacross %s[%d]" sel.bench i)
            g ~params ~p_max:Ts_tms.Tms.default_p_max)
        sel.loops)
    Ts_workload.Doacross.all

(* 50 generated DDGs under fixed seeds, at varied sizes and P_max, both
   machine models. Covers fallback loops as well as schedulable ones. *)
let test_generated () =
  for seed = 0 to 49 do
    let n_inst = 8 + (seed mod 5 * 7) in
    let g = Fixtures.generated ~seed ~n_inst () in
    let p_max = List.nth p_maxes (seed mod List.length p_maxes) in
    let ps = if seed mod 2 = 0 then params else two_core in
    check_schedule
      (Printf.sprintf "gen seed=%d n=%d p_max=%g" seed n_inst p_max)
      g ~params:ps ~p_max
  done

(* The same 50 DDGs and machines swept in three orders (on these C2
   never binds, so each sweep stops after one search and relabels its
   result), plus loops where C2 binds, so that every value is searched,
   in both directions: the smallest value is always searched first. *)
let test_generated_sweeps () =
  for seed = 0 to 49 do
    let n_inst = 8 + (seed mod 5 * 7) in
    let g = Fixtures.generated ~seed ~n_inst () in
    let ps = if seed mod 2 = 0 then params else two_core in
    check_sweeps (Printf.sprintf "gen sweep seed=%d n=%d" seed n_inst) g ~params:ps
  done;
  List.iteri
    (fun i g ->
      check_sweep (Printf.sprintf "c2 sweep %d" i) g ~params;
      check_sweep ~p_maxes:[ 0.25; 0.05; 0.01 ]
        (Printf.sprintf "c2 descending sweep %d" i)
        g ~params)
    (Fixtures.c2_loops ())

(* The tms.* counters of a sweep and of a TMS-over-IMS search must
   total the same whatever the pool size: slot verdicts are flushed per
   attempt and the grid walk itself is unchanged, so jobs must only
   change who increments, never by how much. *)
let test_counters_jobs_invariant () =
  let loops =
    Fixtures.motivating ()
    :: List.init 6 (fun i -> Fixtures.generated ~seed:(100 + i) ~n_inst:18 ())
  in
  let names =
    [
      "tms.attempts"; "tms.schedules"; "tms.fallbacks"; "tms.slots.admitted";
      "tms.slots.resource_reject"; "tms.slots.c1_reject"; "tms.slots.c2_reject";
    ]
  in
  let totals jobs =
    Ts_obs.Metrics.reset Ts_obs.Metrics.default;
    ignore
      (Ts_base.Parallel.map ~jobs
         (fun g ->
           ( Ts_tms.Tms.schedule_sweep ~params g,
             Ts_tms.Tms_ims.schedule ~params g ))
         loops);
    List.map
      (fun n ->
        Ts_obs.Metrics.counter_value (Ts_obs.Metrics.counter Ts_obs.Metrics.default n))
      names
  in
  let serial = totals 1 in
  let parallel = totals 4 in
  List.iter2
    (fun name (s, p) -> check_int ("counter " ^ name) s p)
    names
    (List.combine serial parallel);
  check_bool "attempts counted" true (List.hd serial > 0)

let suite =
  [
    Alcotest.test_case "motivating example = seed algorithm" `Quick test_motivating;
    Alcotest.test_case "sweep pick = seed algorithm" `Quick test_motivating_sweep;
    Alcotest.test_case "spec suite loops = seed algorithm" `Slow test_spec_suite;
    Alcotest.test_case "doacross loops = seed algorithm" `Slow test_doacross;
    Alcotest.test_case "50 generated loops = seed algorithm" `Slow test_generated;
    Alcotest.test_case "generated + C2 sweeps = seed algorithm" `Slow
      test_generated_sweeps;
    Alcotest.test_case "metrics totals independent of --jobs" `Quick
      test_counters_jobs_invariant;
  ]
