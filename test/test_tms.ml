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
   slots): a change that skips or reorders slot checks, or a replayed
   point that flushes the wrong tally, moves them, and any move must be
   deliberate. *)
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
      ("tms.attempts", 1168);
      ("tms.slots.admitted", 24403);
      ("tms.slots.resource_reject", 2665);
      ("tms.slots.c1_reject", 108591);
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

(* A point one search of a sweep replays from another's recorded outcome
   counts on [tms.attempts] and [tms.warm.point_hits], but it was looked
   up, not placed: [tms.attempt_ms] must time placements only. Only
   sweeps where C2 binds run more than one search, so the loops are the
   C2 ones. *)
let test_sweep_attempt_ms_times_placements () =
  let h = Ts_obs.Metrics.histogram Ts_obs.Metrics.default "tms.attempt_ms" in
  let a0 = cval "tms.attempts" and h0 = cval "tms.warm.point_hits" in
  let n0 = Ts_obs.Metrics.histogram_count h in
  List.iter
    (fun g -> ignore (Ts_tms.Tms.schedule_sweep ~params g))
    (Fixtures.c2_loops ());
  let attempts = cval "tms.attempts" - a0
  and hits = cval "tms.warm.point_hits" - h0 in
  check_bool "the sweeps replayed points" true (hits > 0);
  check_int "attempt_ms samples = attempts - point_hits" (attempts - hits)
    (Ts_obs.Metrics.histogram_count h - n0)

(* Where C2 cannot bind, a sweep is one search: the walk at the smallest
   P_max is the walk at every other, so nothing is replayed. Where it
   binds, every swept value is still searched. *)
let test_sweep_one_search_where_c2_cannot_bind () =
  let searches g =
    let s0 = cval "tms.schedules" and h0 = cval "tms.warm.point_hits" in
    ignore (Ts_tms.Tms.schedule_sweep ~params g);
    (cval "tms.schedules" - s0, cval "tms.warm.point_hits" - h0)
  in
  List.iter
    (fun g ->
      let n, hits = searches g in
      check_int (g.Ts_ddg.Ddg.name ^ ": one search") 1 n;
      check_int (g.Ts_ddg.Ddg.name ^ ": no replays") 0 hits)
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
    (fun g -> check_int (g.Ts_ddg.Ddg.name ^ ": every P_max") 3 (fst (searches g)))
    binding

(* Where C2 binds, a point recorded at one P_max often does not transfer
   to another: the sweep must replay some points and place the rest
   (the exactness of every replay is checked against the reference
   search in [Test_equiv]). *)
let test_sweep_sharing_where_c2_binds () =
  let loops = Fixtures.c2_loops () in
  let a0 = cval "tms.attempts" and h0 = cval "tms.warm.point_hits" in
  let c0 = cval "tms.slots.c2_reject" in
  List.iter (fun g -> ignore (Ts_tms.Tms.schedule_sweep ~params g)) loops;
  let attempts = cval "tms.attempts" - a0
  and hits = cval "tms.warm.point_hits" - h0 in
  check_bool "C2 rejected slots" true (cval "tms.slots.c2_reject" - c0 > 0);
  check_bool
    (Printf.sprintf "0 < point_hits (%d) < 2/3 attempts (%d)" hits attempts)
    true
    (hits > 0 && 3 * hits < 2 * attempts);
  let kernel p_max g = (Ts_tms.Tms.schedule ~p_max ~params g).Ts_tms.Tms.kernel in
  check_bool "P_max 0.01 and 0.25 schedule some loop differently" true
    (List.exists
       (fun g ->
         let a = kernel 0.01 g and b = kernel 0.25 g in
         (a.K.ii, a.K.time) <> (b.K.ii, b.K.time))
       loops)

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
    Alcotest.test_case "sweep: points shared where C2 binds" `Quick
      test_sweep_sharing_where_c2_binds;
    Alcotest.test_case "sweep: one search where C2 cannot bind" `Quick
      test_sweep_one_search_where_c2_cannot_bind;
  ]
