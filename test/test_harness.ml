(* End-to-end experiment harness on reduced inputs: the paper's qualitative
   claims must hold on every run. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let params = Ts_isa.Spmt_params.default
let cfg = Ts_spmt.Config.default

let suite_pass = lazy (Ts_harness.Suite.compute ~limit:3 ~cfg ())
let table2_rows = lazy (Ts_harness.Table2.compute ~params (Lazy.force suite_pass))
let fig4_rows = lazy (Ts_harness.Fig4.compute (Lazy.force suite_pass))
let doacross = lazy (Ts_harness.Doacross_runs.compute ~cfg)

let test_table2_shape () =
  let rows = Lazy.force table2_rows in
  check_int "13 rows" 13 (List.length rows);
  List.iter
    (fun (r : Ts_harness.Table2.row) ->
      (* TMS's order-repair retries can out-place SMS's single greedy
         pass on individual loops, so per-benchmark TMS II may dip below
         SMS II on small subsets — but never below MII. *)
      check_bool (r.bench ^ ": TMS II >= MII") true (r.tms_ii >= r.avg_mii -. 1e-9);
      check_bool (r.bench ^ ": TMS C_delay <= SMS C_delay") true
        (r.tms_c_delay <= r.sms_c_delay);
      check_bool (r.bench ^ ": SMS II >= MII") true (r.sms_ii >= r.avg_mii -. 1e-9))
    rows;
  (* Suite-wide, TMS still trades a larger II than SMS for its C_delay. *)
  let mean f = Ts_base.Stats.mean (List.map f rows) in
  let tms_ii = mean (fun (r : Ts_harness.Table2.row) -> r.tms_ii) in
  let sms_ii = mean (fun (r : Ts_harness.Table2.row) -> r.sms_ii) in
  check_bool "suite mean: TMS II >= SMS II" true (tms_ii >= sms_ii -. 1e-9)

let test_table2_ii_band () =
  (* §7.9(a): the paper reports TMS IIs ~25-40% above MII. Before the
     F-plateau/lowest-II fix we sat at 40-60%; assert the per-benchmark
     II inflation stays in the paper's ballpark on average and never
     returns to the old regime. *)
  let rows = Lazy.force table2_rows in
  let ratios =
    List.map
      (fun (r : Ts_harness.Table2.row) -> r.tms_ii /. r.avg_mii)
      rows
  in
  let mean = Ts_base.Stats.mean ratios in
  check_bool
    (Printf.sprintf "mean TMS II / MII = %.2f in [1.0, 1.45]" mean)
    true
    (mean >= 1.0 && mean <= 1.45);
  List.iter2
    (fun (r : Ts_harness.Table2.row) ratio ->
      check_bool
        (Printf.sprintf "%s: TMS II %.0f%% above MII (< 75%%)" r.bench
           ((ratio -. 1.) *. 100.))
        true (ratio < 1.75))
    rows ratios

let test_table2_tlp_gap () =
  (* the gap between II and C_delay (the paper's TLP indicator) must be
     wider under TMS for most benchmarks *)
  let rows = Lazy.force table2_rows in
  let wider =
    List.length
      (List.filter
         (fun (r : Ts_harness.Table2.row) ->
           r.tms_ii -. r.tms_c_delay > r.sms_ii -. r.sms_c_delay)
         rows)
  in
  check_bool (Printf.sprintf "%d/13 wider" wider) true (wider >= 10)

let test_fig4_positive () =
  let rows = Lazy.force fig4_rows in
  check_int "13 rows" 13 (List.length rows);
  List.iter
    (fun (r : Ts_harness.Fig4.row) ->
      check_bool (r.bench ^ " loop speedup not negative") true
        (r.loop_speedup >= -2.0);
      check_bool (r.bench ^ " program <= loop speedup") true
        (r.program_speedup <= r.loop_speedup +. 1e-9))
    rows;
  let lavg, pavg = Ts_harness.Fig4.averages rows in
  check_bool "meaningful average loop speedup" true (lavg > 10.0);
  check_bool "program speedup diluted by coverage" true (pavg < lavg)

let test_amdahl () =
  Alcotest.(check (float 1e-6)) "full coverage passes through" 50.0
    (Ts_harness.Fig4.program_speedup_of ~coverage:1.0 ~loop_speedup_pct:50.0);
  Alcotest.(check (float 1e-6)) "zero coverage, no speedup" 0.0
    (Ts_harness.Fig4.program_speedup_of ~coverage:0.0 ~loop_speedup_pct:50.0);
  let half = Ts_harness.Fig4.program_speedup_of ~coverage:0.5 ~loop_speedup_pct:50.0 in
  check_bool "half coverage in between" true (half > 0.0 && half < 50.0)

let test_table3_shape () =
  let rows = Ts_harness.Table3.compute (Lazy.force doacross) in
  check_int "four rows" 4 (List.length rows);
  List.iter
    (fun (r : Ts_harness.Table3.row) ->
      check_bool (r.bench ^ ": LDP above MII") true (r.avg_ldp > r.avg_mii);
      check_bool (r.bench ^ ": II >= MII") true (r.tms_ii >= r.avg_mii))
    rows;
  let lucas = List.find (fun (r : Ts_harness.Table3.row) -> r.bench = "lucas") rows in
  check_bool "lucas: C_delay of the order of II (paper: 62 vs 64)" true
    (lucas.tms_c_delay >= 0.8 *. lucas.tms_ii)

let test_fig5_shape () =
  let rows = Ts_harness.Fig5.compute (Lazy.force doacross) in
  check_int "four rows" 4 (List.length rows);
  List.iter
    (fun (r : Ts_harness.Fig5.row) ->
      check_bool (r.bench ^ " positive speedup over single-threaded") true
        (r.loop_speedup > 0.0))
    rows;
  (* equake has the largest coverage, hence the largest program speedup *)
  let best =
    List.fold_left
      (fun acc (r : Ts_harness.Fig5.row) ->
        if r.program_speedup > acc.Ts_harness.Fig5.program_speedup then r else acc)
      (List.hd rows) rows
  in
  Alcotest.(check string) "equake leads program speedup (paper: 24%)" "equake"
    best.bench

let test_fig6_shape () =
  let rows = Ts_harness.Fig6.compute (Lazy.force doacross) in
  List.iter
    (fun (r : Ts_harness.Fig6.row) ->
      check_bool (r.bench ^ ": TMS stalls never above SMS") true
        (r.stall_norm <= 1.0 +. 1e-9);
      check_bool (r.bench ^ ": comm overhead never above SMS") true
        (r.comm_norm <= 1.0 +. 1e-9))
    rows;
  (* strong reduction for the resource-bound loops, none for lucas *)
  let by name = List.find (fun (r : Ts_harness.Fig6.row) -> r.bench = name) rows in
  check_bool "art reduced > 50%" true ((by "art").stall_norm < 0.5);
  check_bool "equake reduced > 50%" true ((by "equake").stall_norm < 0.5);
  check_bool "fma3d reduced > 50%" true ((by "fma3d").stall_norm < 0.5);
  check_bool "lucas least impressive (paper)" true
    ((by "lucas").stall_norm >= (by "art").stall_norm);
  (* Fig. 6b: TMS trades extra SEND/RECV pairs for fewer stalls. The
     §7.9(a) lowest-II tie-break restores the paper's direction on the
     resource-bound art (pre-fix, every benchmark showed a decrease). *)
  check_bool "art: TMS issues more SEND/RECV pairs" true
    ((by "art").pairs_increase > 0.0)

let test_ablation_shape () =
  let rows = Ts_harness.Ablation.compute ~cfg (Lazy.force doacross) in
  List.iter
    (fun (r : Ts_harness.Ablation.row) ->
      check_bool (r.bench ^ ": no-spec never faster") true
        (r.nospec_gain <= r.spec_gain +. 1e-9);
      (* §7.9(b): workload probabilities are calibrated so simulated
         misspeculation stays in the paper's reported range (< 0.1%). *)
      check_bool (r.bench ^ ": misspec below 0.1%") true (r.misspec_rate < 0.001))
    rows;
  let by name = List.find (fun (r : Ts_harness.Ablation.row) -> r.bench = name) rows in
  check_bool "equake loses from disabling speculation (paper: 19%)" true
    ((by "equake").gain_reduction > 5.0);
  check_bool "fma3d loses from disabling speculation (paper: 21.4%)" true
    ((by "fma3d").gain_reduction > 5.0)

let has_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let render name =
  let out = Buffer.create 1024 in
  Ts_harness.Experiments.run ~names:[ name ] (Buffer.add_string out);
  Buffer.contents out

let test_experiments_renderers () =
  (* every renderer produces non-empty output with its headline *)
  let t1 = render "table1" in
  check_bool "table1" true (String.length t1 > 100);
  (* the simulator keeps no write-buffer limit, so Table 1 states none *)
  check_bool "table1 claims no buffer size" false (has_sub ~sub:"64 entries" t1);
  check_bool "table1 write-buffer row" true
    (has_sub ~sub:"Speculative write buffer not modelled (unbounded)" t1);
  check_bool "fig2" true (String.length (render "fig2") > 200);
  let t2 = Ts_harness.Table2.render (Lazy.force table2_rows) in
  check_bool "table2 text" true (String.length t2 > 200)

let test_experiments_unknown_name () =
  let rejected names =
    let printed = ref 0 in
    match Ts_harness.Experiments.run ~names (fun _ -> incr printed) with
    | () -> false
    | exception Invalid_argument _ -> !printed = 0
  in
  check_bool "unknown experiment rejected" true (rejected [ "fig9" ]);
  (* every name is checked before the first experiment runs *)
  check_bool "known name before it neither runs nor prints" true
    (rejected [ "table1"; "fig9" ])

(* Table 2 and Fig 4 read one suite pass: asking for both costs no
   schedule more than Fig 4 alone. No store, so every schedule runs. *)
let test_suite_pass_shared () =
  let count name = Ts_obs.Metrics.(counter_value (counter default name)) in
  let schedules names =
    let t0 = count "tms.schedules" and s0 = count "sms.schedules" in
    Ts_harness.Experiments.run ~limit:1 ~names ignore;
    (count "tms.schedules" - t0, count "sms.schedules" - s0)
  in
  Ts_harness.Cached.set_store None;
  let fig4 = schedules [ "fig4" ] in
  check_bool "fig4 schedules" true (fst fig4 > 0 && snd fig4 > 0);
  Alcotest.(check (pair int int)) "table2 fig4 (tms, sms) = fig4" fig4
    (schedules [ "table2"; "fig4" ])

let suite =
  [
    Alcotest.test_case "table2: SMS/TMS shape" `Slow test_table2_shape;
    Alcotest.test_case "table2: II within paper band of MII" `Slow
      test_table2_ii_band;
    Alcotest.test_case "table2: TLP gap widens" `Slow test_table2_tlp_gap;
    Alcotest.test_case "fig4: speedups" `Slow test_fig4_positive;
    Alcotest.test_case "amdahl helper" `Quick test_amdahl;
    Alcotest.test_case "table3: shape" `Slow test_table3_shape;
    Alcotest.test_case "fig5: single-threaded comparison" `Slow test_fig5_shape;
    Alcotest.test_case "fig6: stalls and communication" `Slow test_fig6_shape;
    Alcotest.test_case "ablation: speculation matters" `Slow test_ablation_shape;
    Alcotest.test_case "experiments: renderers" `Slow test_experiments_renderers;
    Alcotest.test_case "experiments: unknown name" `Quick test_experiments_unknown_name;
    Alcotest.test_case "experiments: table2 and fig4 share the suite pass" `Quick
      test_suite_pass_shared;
  ]
