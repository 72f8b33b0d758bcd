(* The Section 4.2 cost model and the Definitions 3-4 overhead analysis. *)

let feq = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

let p = Ts_isa.Spmt_params.default (* 4 cores, spn 3, ci 2, inv 15, com 3 *)

let test_f_value_serial_bound () =
  (* big C_delay dominates: F = C_delay *)
  feq "serial" 20.0 (Ts_tms.Cost_model.f_value p ~ii:10 ~c_delay:20)

let test_f_value_throughput_bound () =
  (* T_lb/ncore dominates: (40 + 2 + max(3,4)) / 4 = 11.5 *)
  feq "throughput" 11.5 (Ts_tms.Cost_model.f_value p ~ii:40 ~c_delay:4)

let test_f_value_spawn_floor () =
  (* tiny loop: the spawn overhead floors F at 3 *)
  feq "floor" 3.0 (Ts_tms.Cost_model.f_value p ~ii:2 ~c_delay:1)

let test_f_min_start () =
  (* F(MII, 1 + c_reg_com) *)
  feq "start" (Ts_tms.Cost_model.f_value p ~ii:8 ~c_delay:4)
    (Ts_tms.Cost_model.f_min_start p ~mii:8)

let test_f_monotone () =
  check_bool "monotone in ii" true
    (Ts_tms.Cost_model.f_value p ~ii:20 ~c_delay:5
     >= Ts_tms.Cost_model.f_value p ~ii:10 ~c_delay:5);
  check_bool "monotone in c_delay" true
    (Ts_tms.Cost_model.f_value p ~ii:10 ~c_delay:9
     >= Ts_tms.Cost_model.f_value p ~ii:10 ~c_delay:5)

let test_t_nomiss_scales () =
  feq "N scaling" (100.0 *. Ts_tms.Cost_model.f_value p ~ii:10 ~c_delay:5)
    (Ts_tms.Cost_model.t_nomiss p ~ii:10 ~c_delay:5 ~n:100)

let test_p_m () =
  feq "empty" 0.0 (Ts_tms.Cost_model.p_m []);
  feq "single" 0.1 (Ts_tms.Cost_model.p_m [ 0.1 ]);
  feq "composition" (1.0 -. (0.9 *. 0.8)) (Ts_tms.Cost_model.p_m [ 0.1; 0.2 ])

let test_misspec_penalty () =
  (* II + C_inv - max(0, C_delay - C_spn) *)
  feq "penalty" 20.0 (Ts_tms.Cost_model.misspec_penalty p ~ii:10 ~c_delay:8);
  feq "no credit below spawn" 25.0
    (Ts_tms.Cost_model.misspec_penalty p ~ii:10 ~c_delay:2)

let test_estimate_components () =
  let n = 50 in
  feq "estimate = nomiss + misspec"
    (Ts_tms.Cost_model.t_nomiss p ~ii:10 ~c_delay:5 ~n
     +. Ts_tms.Cost_model.t_mis_spec p ~ii:10 ~c_delay:5 ~p_m:0.1 ~n)
    (Ts_tms.Cost_model.estimate p ~ii:10 ~c_delay:5 ~p_m:0.1 ~n)

(* --- Overheads (Definitions 3-4) --- *)

module B = Ts_ddg.Ddg.Builder
module K = Ts_modsched.Kernel

(* producer store at a late row, consumer load at row 0 next iteration,
   plus a register dependence whose sync may or may not preserve it *)
let preserved_fixture ~reg_row ~reg_lat =
  let b = B.create Ts_isa.Machine.spmt_core in
  let u = B.add b ~latency:reg_lat Ts_isa.Opcode.Ialu in
  let v = B.add b Ts_isa.Opcode.Ialu in
  let st = B.add b Ts_isa.Opcode.Store in
  let ld = B.add b Ts_isa.Opcode.Load in
  B.dep b ~dist:1 u v;
  B.mem_dep b ~dist:1 ~prob:0.2 st ld;
  let g = B.build b in
  let k = K.of_times g ~ii:8 [| reg_row; 1; 6; 0 |] in
  (g, k)

let test_preserved_yes () =
  (* reg dep u(row 2, lat 6) -> v: sync = 2 - 1 + 6 + 3 = 10;
     mem dep needs (6 + 1 - 0)/1 = 7 <= 10 and row(u)=2 < row(st)=6 *)
  let _, k = preserved_fixture ~reg_row:2 ~reg_lat:6 in
  let reg_deps = K.inter_iter_reg_deps k in
  let mem = List.hd (K.inter_iter_mem_deps k) in
  check_bool "preserved" true
    (Ts_tms.Overheads.preserved k ~c_reg_com:3 ~reg_deps mem);
  feq "P_M excludes preserved deps" 0.0 (Ts_tms.Overheads.misspec_prob k ~c_reg_com:3)

let test_preserved_insufficient_sync () =
  (* reg dep with lat 1: sync = 2 - 1 + 1 + 3 = 5 < 7 -> not preserved *)
  let _, k = preserved_fixture ~reg_row:2 ~reg_lat:1 in
  let reg_deps = K.inter_iter_reg_deps k in
  let mem = List.hd (K.inter_iter_mem_deps k) in
  check_bool "not preserved" false
    (Ts_tms.Overheads.preserved k ~c_reg_com:3 ~reg_deps mem);
  feq "P_M counts it" 0.2 (Ts_tms.Overheads.misspec_prob k ~c_reg_com:3)

let test_preserved_guard_row_order () =
  (* the synchronising producer must issue before the store: u at row 7
     (after the store's row 6) cannot preserve it even with enough sync
     (sync = 7 - 1 + 2 + 3 = 11 >= 7) *)
  let _, k = preserved_fixture ~reg_row:7 ~reg_lat:2 in
  let reg_deps = K.inter_iter_reg_deps k in
  let mem = List.hd (K.inter_iter_mem_deps k) in
  check_bool "guard rejects" false
    (Ts_tms.Overheads.preserved k ~c_reg_com:3 ~reg_deps mem)

let test_no_reg_deps_nothing_preserved () =
  let b = B.create Ts_isa.Machine.spmt_core in
  let st = B.add b Ts_isa.Opcode.Store in
  let ld = B.add b Ts_isa.Opcode.Load in
  B.mem_dep b ~dist:1 ~prob:0.3 st ld;
  let g = B.build b in
  let k = K.of_times g ~ii:4 [| 2; 0 |] in
  feq "bare mem dep counts fully" 0.3 (Ts_tms.Overheads.misspec_prob k ~c_reg_com:3)

(* The lazy frontier walks exactly the groups of the reference's eager
   rectangle enumeration: same F values, same points, same order. The
   machines cover 1-8 cores with random overheads, plus heterogeneous
   mixes seen through a placement's effective params; the grids include
   empty ones ([ii_max < mii] or [cd_max < 1 + c_reg_com]). *)
let arb_grid =
  let open QCheck.Gen in
  let gen =
    let* ncore = int_range 1 8 in
    let* c_spawn = int_range 0 12 and* c_commit = int_range 0 12 in
    let* c_reg_com = int_range 0 12 in
    let base = { Ts_isa.Spmt_params.default with ncore; c_spawn; c_commit; c_reg_com } in
    let* params =
      frequency
        [
          (2, return base);
          ( 1,
            let* mix =
              array_size (int_range 1 8)
                (oneofl Ts_isa.Spmt_params.[ fast_core; slow_core ])
            in
            let+ policy = oneofl Ts_isa.Placement.all in
            Ts_isa.Placement.effective_params policy
              (Ts_isa.Spmt_params.with_cores base mix) );
        ]
    in
    let* mii = int_range 1 30 in
    let* ii_span = int_range (-3) 20 and* cd_span = int_range (-3) 40 in
    (* Figure 3's start half the time, otherwise a floor above it. *)
    let* lift = frequency [ (1, return 0); (1, int_range 1 12) ] in
    let c_reg_com = params.Ts_isa.Spmt_params.c_reg_com in
    return (params, mii, mii + ii_span, 1 + c_reg_com + lift, c_reg_com + cd_span)
  in
  QCheck.make gen
    ~print:(fun ((p : Ts_isa.Spmt_params.t), mii, ii_max, cd_min, cd_max) ->
      Printf.sprintf
        "ncore=%d c_spawn=%d c_commit=%d c_reg_com=%d mii=%d ii_max=%d \
         cd_min=%d cd_max=%d"
        p.ncore p.c_spawn p.c_commit p.c_reg_com mii ii_max cd_min cd_max)

let prop_frontier_is_reference =
  QCheck.Test.make ~count:2000 ~name:"F frontier = eager F-group enumeration"
    arb_grid (fun (params, mii, ii_max, cd_min, cd_max) ->
      List.of_seq
        (Ts_tms.Cost_model.f_frontier params ~mii ~ii_max ~cd_min ~cd_max)
      = Ref_tms.f_groups params ~mii ~ii_max ~cd_min ~cd_max)

let suite =
  [
    Alcotest.test_case "F: serial bound" `Quick test_f_value_serial_bound;
    Alcotest.test_case "F: throughput bound" `Quick test_f_value_throughput_bound;
    Alcotest.test_case "F: spawn floor" `Quick test_f_value_spawn_floor;
    Alcotest.test_case "F_min start (Fig 3 line 5)" `Quick test_f_min_start;
    Alcotest.test_case "F: monotonicity" `Quick test_f_monotone;
    Alcotest.test_case "T_nomiss scales with N" `Quick test_t_nomiss_scales;
    Alcotest.test_case "P_M (equation 3)" `Quick test_p_m;
    Alcotest.test_case "misspeculation penalty" `Quick test_misspec_penalty;
    Alcotest.test_case "estimate = sum of components" `Quick test_estimate_components;
    Alcotest.test_case "preserved: sufficient sync (Def 3)" `Quick test_preserved_yes;
    Alcotest.test_case "preserved: insufficient sync" `Quick test_preserved_insufficient_sync;
    Alcotest.test_case "preserved: row-order guard" `Quick test_preserved_guard_row_order;
    Alcotest.test_case "P_M without register deps" `Quick test_no_reg_deps_nothing_preserved;
    QCheck_alcotest.to_alcotest prop_frontier_is_reference;
  ]
