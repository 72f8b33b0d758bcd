(* The TMS algorithm (Figure 3). *)

module K = Ts_modsched.Kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let params = Ts_isa.Spmt_params.default
let two_core = Ts_isa.Spmt_params.two_core

let test_motivating_beats_sms () =
  let g = Fixtures.motivating () in
  let sms = (Ts_sms.Sms.schedule g).Ts_sms.Sms.kernel in
  let tms = Ts_tms.Tms.schedule_sweep ~params:two_core g in
  check_int "SMS C_delay (paper: 11)" 11 (K.c_delay sms ~c_reg_com:3);
  check_int "TMS C_delay (paper: small)" 4 tms.Ts_tms.Tms.achieved_c_delay;
  check_int "same II as SMS" 8 tms.Ts_tms.Tms.kernel.K.ii;
  check_bool "did not fall back" false tms.Ts_tms.Tms.fell_back

let test_c1_enforced () =
  (* every attempted threshold bounds the achieved delay *)
  let g = Fixtures.motivating () in
  let order = Ts_sms.Order.compute_with_dirs g ~ii:8 in
  List.iter
    (fun cd ->
      match Ts_tms.Tms.try_schedule g ~order ~ii:8 ~c_delay:cd ~p_max:1.0 ~c_reg_com:3 with
      | Some k ->
          check_bool
            (Printf.sprintf "achieved %d <= threshold %d" (K.c_delay k ~c_reg_com:3) cd)
            true
            (K.c_delay k ~c_reg_com:3 <= cd)
      | None -> ())
    [ 4; 5; 7; 9; 11; 15 ]

let test_c2_enforced () =
  (* with p_max 1.0 the motivating example schedules at cd=4; with a
     p_max below any single dependence probability it cannot keep all
     three mem deps speculated at that threshold *)
  let g = Fixtures.motivating () in
  let order = Ts_sms.Order.compute_with_dirs g ~ii:8 in
  let loose = Ts_tms.Tms.try_schedule g ~order ~ii:8 ~c_delay:4 ~p_max:1.0 ~c_reg_com:3 in
  check_bool "loose P_max succeeds" true (loose <> None);
  (match loose with
  | Some k ->
      check_bool "misspec positive when speculating" true
        (Ts_tms.Overheads.misspec_prob k ~c_reg_com:3 > 0.0)
  | None -> ());
  let strict = Ts_tms.Tms.try_schedule g ~order ~ii:8 ~c_delay:4 ~p_max:0.0 ~c_reg_com:3 in
  (match strict with
  | Some k ->
      Alcotest.(check (float 1e-9)) "P_max=0 forces zero misspec" 0.0
        (Ts_tms.Overheads.misspec_prob k ~c_reg_com:3)
  | None -> ())

let test_p_max_zero_end_to_end () =
  let g = Fixtures.motivating () in
  let r = Ts_tms.Tms.schedule ~p_max:0.0 ~params:two_core g in
  Alcotest.(check (float 1e-9)) "no residual misspeculation" 0.0 r.Ts_tms.Tms.misspec

let test_f_min_is_achieved_objective () =
  let g = Fixtures.motivating () in
  let r = Ts_tms.Tms.schedule ~p_max:0.25 ~params:two_core g in
  (* the search returns the first (II, C_delay) group that schedules, so
     the reported F_min equals F at the returned threshold *)
  Alcotest.(check (float 1e-9)) "F consistency" r.Ts_tms.Tms.f_min
    (Ts_tms.Cost_model.f_value two_core ~ii:r.Ts_tms.Tms.kernel.K.ii
       ~c_delay:r.Ts_tms.Tms.c_delay_threshold)

let test_doall_loop_trivial () =
  (* a pure chain has no carried deps, but at II = MII its tail wraps into
     the next stage and becomes an inter-thread dependence; TMS may trade
     a cycle or two of II to keep that sync small, never more *)
  let g = Fixtures.chain 6 in
  let r = Ts_tms.Tms.schedule ~params g in
  let mii = Ts_ddg.Mii.mii g in
  check_bool "II within MII + 2" true
    (r.Ts_tms.Tms.kernel.K.ii >= mii && r.Ts_tms.Tms.kernel.K.ii <= mii + 2);
  check_bool "achieved delay bounded by threshold" true
    (r.Ts_tms.Tms.achieved_c_delay <= r.Ts_tms.Tms.c_delay_threshold);
  check_bool "objective matches the cost model" true
    (r.Ts_tms.Tms.f_min
     <= Ts_tms.Cost_model.f_value params ~ii:mii
          ~c_delay:(max 4 r.Ts_tms.Tms.achieved_c_delay)
        +. 1.0)

let test_sweep_picks_lowest_cost () =
  let g = Fixtures.motivating () in
  let rs =
    List.map (fun p_max -> Ts_tms.Tms.schedule ~p_max ~params:two_core g)
      [ 0.01; 0.05; 0.25 ]
  in
  let best = Ts_tms.Tms.schedule_sweep ~params:two_core g in
  let cost (r : Ts_tms.Tms.result) =
    Ts_tms.Cost_model.estimate two_core ~ii:r.Ts_tms.Tms.kernel.K.ii
      ~c_delay:r.Ts_tms.Tms.achieved_c_delay ~p_m:r.Ts_tms.Tms.misspec ~n:1000
  in
  List.iter (fun r -> check_bool "sweep minimal" true (cost best <= cost r)) rs

let test_fallback_on_impossible () =
  (* a probability-1 memory recurrence with P_max 0 that no register sync
     can preserve within the tiny grid: TMS must fall back to SMS *)
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  let st = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Store in
  let ld = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Load in
  Ts_ddg.Ddg.Builder.dep b ld st;
  Ts_ddg.Ddg.Builder.mem_dep b ~dist:1 ~prob:1.0 st ld;
  let g = Ts_ddg.Ddg.Builder.build b in
  let r = Ts_tms.Tms.schedule ~p_max:0.0 ~params g in
  check_bool "fell back or preserved" true
    (r.Ts_tms.Tms.fell_back || r.Ts_tms.Tms.misspec = 0.0);
  K.validate r.Ts_tms.Tms.kernel

let prop_tms_valid_and_bounded =
  QCheck.Test.make ~count:25 ~name:"TMS kernels valid; II >= MII; C1 respected"
    Fixtures.arb_loop (fun arb ->
      let g = Fixtures.loop_of_arb arb in
      match Ts_tms.Tms.schedule ~params g with
      | exception Ts_sms.Sms.No_schedule _ -> QCheck.assume_fail ()
      | r ->
          K.validate r.Ts_tms.Tms.kernel;
          r.Ts_tms.Tms.kernel.K.ii >= Ts_ddg.Mii.mii g
          && (r.Ts_tms.Tms.fell_back
             || r.Ts_tms.Tms.achieved_c_delay <= r.Ts_tms.Tms.c_delay_threshold))

let test_ims_eviction_keeps_claims () =
  (* Regression (found by `tsms check`, seed 35 shrunk): IMS eviction can
     unschedule the register dependence that preserved a speculative
     memory dependence, so a kernel whose every placement passed
     admission still ends up violating C2. TMS-over-IMS must re-derive
     C1/C2 on the finished kernel and reject the grid point instead of
     returning the kernel with a false claim. *)
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  let n0 = Ts_ddg.Ddg.Builder.add b ~latency:3 Ts_isa.Opcode.Load in
  let n1 = Ts_ddg.Ddg.Builder.add b ~latency:3 Ts_isa.Opcode.Fadd in
  let n2 = Ts_ddg.Ddg.Builder.add b ~latency:3 Ts_isa.Opcode.Fadd in
  let n8 = Ts_ddg.Ddg.Builder.add b ~latency:3 Ts_isa.Opcode.Load in
  let n17 = Ts_ddg.Ddg.Builder.add b ~latency:1 Ts_isa.Opcode.Store in
  Ts_ddg.Ddg.Builder.dep b n0 n1;
  Ts_ddg.Ddg.Builder.dep b n1 n2;
  Ts_ddg.Ddg.Builder.dep b n2 n8;
  Ts_ddg.Ddg.Builder.dep b n8 n17;
  Ts_ddg.Ddg.Builder.mem_dep b ~dist:1 ~prob:0.145595 n17 n0;
  let g = Ts_ddg.Ddg.Builder.build b in
  let params8 = { params with Ts_isa.Spmt_params.ncore = 8; c_reg_com = 8 } in
  let r = Ts_tms.Tms_ims.schedule ~params:params8 g in
  K.validate r.Ts_tms.Tms_ims.kernel;
  check_bool
    (Printf.sprintf "claimed P_max honoured (misspec %.4f, P_max %.4f)"
       r.Ts_tms.Tms_ims.misspec r.Ts_tms.Tms_ims.p_max)
    true
    (r.Ts_tms.Tms_ims.fell_back
    || r.Ts_tms.Tms_ims.misspec <= r.Ts_tms.Tms_ims.p_max +. 1e-12);
  check_bool "claimed C_delay honoured" true
    (r.Ts_tms.Tms_ims.fell_back
    || r.Ts_tms.Tms_ims.achieved_c_delay <= r.Ts_tms.Tms_ims.c_delay_threshold)

let test_doacross_c_delay_regression () =
  (* on the Table 3 loops TMS's achieved C_delay never exceeds SMS's
     (lucas ties: its recurrence pins the delay for both schedulers) *)
  List.iter
    (fun (sel : Ts_workload.Doacross.selected) ->
      List.iter
        (fun g ->
          let sms = (Ts_sms.Sms.schedule g).Ts_sms.Sms.kernel in
          let tms = Ts_tms.Tms.schedule_sweep ~params g in
          check_bool
            (Printf.sprintf "%s: TMS %d <= SMS %d" g.Ts_ddg.Ddg.name
               tms.Ts_tms.Tms.achieved_c_delay (K.c_delay sms ~c_reg_com:3))
            true
            (tms.Ts_tms.Tms.achieved_c_delay <= K.c_delay sms ~c_reg_com:3))
        sel.loops)
    Ts_workload.Doacross.all

(* Pin the sweep's counters over equake's suite loops plus one loop with
   high dependence probabilities (the only one here where C2 rejects
   slots): a change that skips or reorders slot checks, or flushes the
   wrong tally, moves them, and any move must be deliberate. *)
let high_prob_loop () =
  let rng = Ts_base.Rng.of_string "pinned-counters/4" in
  Ts_workload.Gen.generate rng
    { Ts_workload.Gen.default_profile with
      n_inst = 20; mem_dep_rate = 1.5; mem_prob = (0.2, 0.3); mem_rec = true }

let test_search_counters_pinned () =
  let loops =
    Ts_workload.Spec_suite.loops (Ts_workload.Spec_suite.find "equake")
    @ [ high_prob_loop () ]
  in
  let cval name =
    Ts_obs.Metrics.counter_value
      (Ts_obs.Metrics.counter Ts_obs.Metrics.default name)
  in
  let pinned =
    [
      ("tms.attempts", 345);
      ("tms.slots.admitted", 9598);
      ("tms.slots.resource_reject", 2587);
      ("tms.slots.c1_reject", 24584);
      ("tms.slots.c2_reject", 1774);
    ]
  in
  let before = List.map (fun (n, _) -> cval n) pinned in
  List.iter (fun g -> ignore (Ts_tms.Tms.schedule_sweep ~params g)) loops;
  List.iter2
    (fun (name, expect) b -> check_int name expect (cval name - b))
    pinned before

let cval name =
  Ts_obs.Metrics.counter_value
    (Ts_obs.Metrics.counter Ts_obs.Metrics.default name)

(* Every grid point a sweep tries is placed, so [tms.attempt_ms] has
   exactly one sample per attempt. The loops are the C2 ones, where a
   sweep runs every P_max. *)
let test_sweep_attempt_ms_times_placements () =
  let h = Ts_obs.Metrics.histogram Ts_obs.Metrics.default "tms.attempt_ms" in
  let a0 = cval "tms.attempts" in
  let n0 = Ts_obs.Metrics.histogram_count h in
  List.iter
    (fun g -> ignore (Ts_tms.Tms.schedule_sweep ~params g))
    (Fixtures.c2_loops ());
  check_int "attempt_ms samples = attempts" (cval "tms.attempts" - a0)
    (Ts_obs.Metrics.histogram_count h - n0)

(* Where C2 cannot bind, a sweep is one search: the walk at the smallest
   P_max is the walk at every other. Where it binds, every swept value
   is still searched. *)
let test_sweep_one_search_where_c2_cannot_bind () =
  let searches g =
    let s0 = cval "tms.schedules" in
    ignore (Ts_tms.Tms.schedule_sweep ~params g);
    cval "tms.schedules" - s0
  in
  List.iter
    (fun g -> check_int (g.Ts_ddg.Ddg.name ^ ": one search") 1 (searches g))
    (List.init 4 (fun i -> Fixtures.generated ~seed:(200 + i) ()));
  let kernel p_max g = (Ts_tms.Tms.schedule ~p_max ~params g).Ts_tms.Tms.kernel in
  let binding =
    List.filter
      (fun g ->
        let a = kernel 0.01 g and b = kernel 0.25 g in
        (a.K.ii, a.K.time) <> (b.K.ii, b.K.time))
      (Fixtures.c2_loops ())
  in
  check_bool "some C2 loop binds" true (binding <> []);
  List.iter
    (fun g -> check_int (g.Ts_ddg.Ddg.name ^ ": every P_max") 3 (searches g))
    binding

(* The C2 loops are what the sweep tests above rely on: C2 rejects slots
   on them, and P_max changes some loop's kernel. *)
let test_sweep_c2_binds () =
  let loops = Fixtures.c2_loops () in
  let c0 = cval "tms.slots.c2_reject" in
  List.iter (fun g -> ignore (Ts_tms.Tms.schedule_sweep ~params g)) loops;
  check_bool "C2 rejected slots" true (cval "tms.slots.c2_reject" - c0 > 0);
  let kernel p_max g = (Ts_tms.Tms.schedule ~p_max ~params g).Ts_tms.Tms.kernel in
  check_bool "P_max 0.01 and 0.25 schedule some loop differently" true
    (List.exists
       (fun g ->
         let a = kernel 0.01 g and b = kernel 0.25 g in
         (a.K.ii, a.K.time) <> (b.K.ii, b.K.time))
       loops)

(* --- the C_delay floor ([Tms.c_delay_floor]) --- *)

let floor_fixtures () =
  [
    Fixtures.chain 4; Fixtures.accumulator (); Fixtures.diamond ();
    Fixtures.two_scc (); Fixtures.spec_loop (); Fixtures.motivating ();
  ]
  @ Fixtures.c2_loops ()

let floor_params =
  [ params; two_core; { params with Ts_isa.Spmt_params.ncore = 8; c_reg_com = 8 } ]

let floor ~c_reg_com g = Ts_tms.Tms.c_delay_floor ~c_reg_com g

(* Every kernel the four schedulers return: SMS and IMS at their own II
   and at each of the first four IIs from MII, TMS and TMS-IMS on each
   machine of [floor_params]. Paired with the c_reg_com it was priced
   at. *)
let kernels_of g =
  let mii = Ts_ddg.Mii.mii g in
  let at_ii =
    List.concat_map
      (fun ii ->
        let order = Ts_sms.Order.compute_with_dirs g ~ii in
        [ Ts_sms.Sms.try_ii g ~ii ~order; Ts_sms.Ims.try_ii g ~ii ])
      (List.init 4 (fun d -> mii + d))
    |> List.filter_map Fun.id
  in
  let base =
    (Ts_sms.Sms.schedule g).Ts_sms.Sms.kernel
    :: (match Ts_sms.Ims.schedule g with
       | r -> [ r.Ts_sms.Ims.kernel ]
       | exception Ts_sms.Ims.No_schedule _ -> [])
  in
  List.map (fun k -> (k, params.Ts_isa.Spmt_params.c_reg_com)) (at_ii @ base)
  @ List.concat_map
      (fun (p : Ts_isa.Spmt_params.t) ->
        let tms = (Ts_tms.Tms.schedule_sweep ~params:p g).Ts_tms.Tms.kernel in
        let ims =
          match Ts_tms.Tms_ims.schedule ~params:p g with
          | r -> [ r.Ts_tms.Tms_ims.kernel ]
          | exception Ts_sms.Ims.No_schedule _ -> []
        in
        List.map (fun k -> (k, p.c_reg_com)) (tms :: ims))
      floor_params

let floor_violations g =
  List.filter_map
    (fun (k, c_reg_com) ->
      let f = floor ~c_reg_com g in
      let c = K.c_delay k ~c_reg_com in
      if c >= f then None
      else Some (Printf.sprintf "%s: ii=%d C_delay %d < floor %d" g.Ts_ddg.Ddg.name k.K.ii c f))
    (kernels_of g)

let prop_floor_bounds_generated =
  QCheck.Test.make ~count:20 ~name:"C_delay floor bounds every kernel (generated)"
    Fixtures.arb_loop (fun arb ->
      match floor_violations (Fixtures.loop_of_arb arb) with
      | [] -> true
      | vs -> QCheck.Test.fail_report (String.concat "\n" vs)
      | exception Ts_sms.Sms.No_schedule _ -> QCheck.assume_fail ())

let test_floor_bounds_fixtures () =
  List.iter
    (fun g ->
      Alcotest.(check (list string)) (g.Ts_ddg.Ddg.name ^ ": kernels at or above the floor")
        [] (floor_violations g))
    (floor_fixtures ())

(* The soundness half of the floor, tried directly: on small loops, every
   grid point below it fails under both base schedulers. For SMS, the
   swing order and each single-node hoist of it (the orders order repair
   tries); for IMS, the pass plus TMS-IMS's post-check. *)
let test_below_floor_fails () =
  let loops =
    floor_fixtures ()
    @ List.init 6 (fun i -> Fixtures.generated ~seed:(400 + i) ~n_inst:(8 + i) ())
  in
  let tried = ref 0 in
  List.iter
    (fun g ->
      List.iter
        (fun (p : Ts_isa.Spmt_params.t) ->
          let c_reg_com = p.c_reg_com in
          let mii = Ts_ddg.Mii.mii g in
          let swing = Ts_sms.Order.compute_with_dirs g ~ii:mii in
          let orders =
            swing
            :: List.map
                 (fun ((v, _) as entry) ->
                   entry :: List.filter (fun (u, _) -> u <> v) swing)
                 swing
          in
          for ii = mii to mii + 3 do
            for c_delay = 1 + c_reg_com to floor ~c_reg_com g - 1 do
              List.iter
                (fun p_max ->
                  incr tried;
                  let name =
                    Printf.sprintf "%s ii=%d c_delay=%d p_max=%g c_reg_com=%d"
                      g.Ts_ddg.Ddg.name ii c_delay p_max c_reg_com
                  in
                  List.iter
                    (fun order ->
                      check_bool (name ^ ": SMS attempt fails") true
                        (Ts_tms.Tms.try_schedule g ~order ~ii ~c_delay ~p_max
                           ~c_reg_com
                        = None))
                    orders;
                  let admissible s v ~cycle =
                    Ts_tms.Tms.admissible s v ~cycle ~c_delay ~p_max ~c_reg_com
                  in
                  check_bool (name ^ ": IMS attempt fails") true
                    (match Ts_sms.Ims.try_ii ~admissible g ~ii with
                    | None -> true
                    | Some k -> K.c_delay k ~c_reg_com > c_delay))
                [ 0.05; 1.0 ]
            done
          done)
        floor_params)
    loops;
  check_bool (Printf.sprintf "points below a floor tried (%d)" !tried) true
    (!tried > 0)

(* The floor is tight: TMS ends at exactly the floor on the motivating
   example (register RecII 1, so the floor is Figure 3's first C_delay)
   and on the accumulator (register RecII 3, two cycles above it). A
   floor one cycle too high fails here and in the properties above. *)
let test_floor_tight () =
  List.iter
    (fun (g, expect) ->
      let name = g.Ts_ddg.Ddg.name in
      check_int (name ^ ": floor") expect (floor ~c_reg_com:3 g);
      let r = Ts_tms.Tms.schedule_sweep ~params:two_core g in
      check_int (name ^ ": threshold at the floor") expect
        r.Ts_tms.Tms.c_delay_threshold;
      check_int (name ^ ": achieved at the floor") expect
        r.Ts_tms.Tms.achieved_c_delay)
    [ (Fixtures.motivating (), 4); (Fixtures.accumulator (), 6) ];
  check_int "no floor without a register recurrence" 0
    (floor ~c_reg_com:3 (Fixtures.chain 4))

let suite =
  [
    Alcotest.test_case "motivating: beats SMS (paper Fig 2)" `Quick
      test_motivating_beats_sms;
    Alcotest.test_case "C1: threshold enforced" `Quick test_c1_enforced;
    Alcotest.test_case "C2: P_max enforced" `Quick test_c2_enforced;
    Alcotest.test_case "P_max = 0 end to end" `Quick test_p_max_zero_end_to_end;
    Alcotest.test_case "F_min consistency" `Quick test_f_min_is_achieved_objective;
    Alcotest.test_case "DOALL chain: trivial" `Quick test_doall_loop_trivial;
    Alcotest.test_case "sweep: lowest estimated cost" `Quick test_sweep_picks_lowest_cost;
    Alcotest.test_case "fallback on impossible constraints" `Quick
      test_fallback_on_impossible;
    QCheck_alcotest.to_alcotest prop_tms_valid_and_bounded;
    Alcotest.test_case "IMS eviction cannot break C1/C2 claims" `Quick
      test_ims_eviction_keeps_claims;
    Alcotest.test_case "DOACROSS loops: C_delay regression" `Slow
      test_doacross_c_delay_regression;
    Alcotest.test_case "sweep: search counters pinned" `Quick
      test_search_counters_pinned;
    Alcotest.test_case "sweep: attempt_ms times placements only" `Quick
      test_sweep_attempt_ms_times_placements;
    Alcotest.test_case "sweep: C2 binds on the C2 loops" `Quick
      test_sweep_c2_binds;
    Alcotest.test_case "sweep: one search where C2 cannot bind" `Quick
      test_sweep_one_search_where_c2_cannot_bind;
    QCheck_alcotest.to_alcotest prop_floor_bounds_generated;
    Alcotest.test_case "C_delay floor bounds every kernel (fixtures)" `Quick
      test_floor_bounds_fixtures;
    Alcotest.test_case "C_delay floor: points below it fail" `Quick
      test_below_floor_fails;
    Alcotest.test_case "C_delay floor: TMS ends at it" `Quick
      test_floor_tight;
  ]
