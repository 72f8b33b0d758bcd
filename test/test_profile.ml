(* Dependence profiling, prologue/epilogue slices, register-pressure check,
   and a reference-model property for the cache. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Profile --- *)

let test_measure_tracks_ground_truth () =
  let g = Fixtures.spec_loop () in
  (* ground truth probability is 0.1 *)
  match Ts_spmt.Profile.measure g ~train_iters:20_000 with
  | [ p ] ->
      check_bool
        (Printf.sprintf "measured %.3f near 0.1" p.probability)
        true
        (p.probability > 0.08 && p.probability < 0.12)
  | _ -> Alcotest.fail "expected one memory edge profile"

let test_measure_certain_dependence () =
  (* probability-1 dependences alias every iteration *)
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  let ld = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Load in
  let f = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Fadd in
  let st = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Store in
  Ts_ddg.Ddg.Builder.dep b ld f;
  Ts_ddg.Ddg.Builder.dep b f st;
  Ts_ddg.Ddg.Builder.mem_dep b ~dist:1 ~prob:1.0 st ld;
  let g = Ts_ddg.Ddg.Builder.build b in
  match Ts_spmt.Profile.measure g ~train_iters:500 with
  | [ p ] ->
      (* iteration 0 has no producer; all others alias *)
      check_int "occurrences" 499 p.occurrences;
      (* 499 hits out of 499 observable iterations: the first [distance]
         iterations have no producer and must not dilute the estimate *)
      Alcotest.(check (float 1e-9)) "probability exactly 1" 1.0 p.probability
  | _ -> Alcotest.fail "expected one profile"

let test_measure_window_excludes_warmup () =
  (* distance-3 dependence firing every iteration: only [train_iters - 3]
     iterations can observe it, and the probability is over that window *)
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  let ld = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Load in
  let st = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Store in
  Ts_ddg.Ddg.Builder.dep b ld st;
  Ts_ddg.Ddg.Builder.mem_dep b ~dist:3 ~prob:1.0 st ld;
  let g = Ts_ddg.Ddg.Builder.build b in
  (match Ts_spmt.Profile.measure g ~train_iters:10 with
  | [ p ] ->
      check_int "7 observable occurrences" 7 p.occurrences;
      Alcotest.(check (float 1e-9)) "probability over the window" 1.0 p.probability
  | _ -> Alcotest.fail "expected one profile");
  (* degenerate: training shorter than the dependence distance *)
  match Ts_spmt.Profile.measure g ~train_iters:2 with
  | [ p ] ->
      check_int "no observable iterations" 0 p.occurrences;
      Alcotest.(check (float 1e-9)) "empty window measures 0" 0.0 p.probability
  | _ -> Alcotest.fail "expected one profile"

let test_apply_replaces_probabilities () =
  let g = Fixtures.spec_loop () in
  let profiled = Ts_spmt.Profile.profile ~train_iters:20_000 g in
  check_int "same structure" (Array.length g.edges) (Array.length profiled.edges);
  (match Ts_ddg.Ddg.mem_edges profiled with
  | [ e ] -> check_bool "measured prob in place" true (e.prob > 0.05 && e.prob < 0.15)
  | _ -> Alcotest.fail "one mem edge");
  check_int "MII unchanged" (Ts_ddg.Mii.mii g) (Ts_ddg.Mii.mii profiled)

let test_apply_floor () =
  (* a dependence that never fires still gets a non-zero compiler-visible
     probability *)
  let g = Fixtures.spec_loop () in
  let profiles =
    [ { Ts_spmt.Profile.edge_index = 2; occurrences = 0; probability = 0.0 } ]
  in
  (* edge 2 is the mem edge in spec_loop's edge order *)
  let idx = ref (-1) in
  Array.iteri
    (fun i (e : Ts_ddg.Ddg.edge) -> if e.kind = Ts_ddg.Ddg.Mem then idx := i)
    g.edges;
  let profiles =
    List.map (fun p -> { p with Ts_spmt.Profile.edge_index = !idx }) profiles
  in
  let g' = Ts_spmt.Profile.apply g profiles in
  match Ts_ddg.Ddg.mem_edges g' with
  | [ e ] -> Alcotest.(check (float 1e-9)) "floored" 0.001 e.prob
  | _ -> Alcotest.fail "one mem edge"

let test_profile_then_schedule () =
  (* the compiler pipeline: profile, then schedule with measured probs *)
  let g = Fixtures.generated ~seed:21 ~n_inst:20 () in
  let profiled = Ts_spmt.Profile.profile ~train_iters:3000 g in
  let r = Ts_tms.Tms.schedule ~params:Ts_isa.Spmt_params.default profiled in
  Ts_modsched.Kernel.validate r.Ts_tms.Tms.kernel

(* The simulator's profile span names the engine that ran, not the flag
   asked for: an observed run always takes the exact engine, and an
   unobserved one takes the fast path on a heterogeneous machine too. *)
let test_sim_span_names_engine () =
  let params =
    match Ts_isa.Spmt_params.mix_of_string "2fast+2slow" with
    | Ok m -> Ts_isa.Spmt_params.apply_mix Ts_isa.Spmt_params.default m
    | Error e -> Alcotest.fail e
  in
  let cfg = { Ts_spmt.Config.default with Ts_spmt.Config.params } in
  let k = (Ts_sms.Sms.schedule (Fixtures.motivating ())).Ts_sms.Sms.kernel in
  let module Prof = Ts_obs.Prof in
  Prof.set_enabled true;
  Fun.protect ~finally:(fun () -> Prof.set_enabled false) @@ fun () ->
  ignore (Ts_spmt.Sim.run ~fast:true ~observe:ignore cfg k ~trip:200);
  ignore (Ts_spmt.Sim.run ~fast:true cfg k ~trip:200);
  let count name =
    match
      List.find_opt (fun (row : Prof.row) -> row.name = name) (Prof.report ()).rows
    with
    | Some row -> row.count
    | None -> 0
  in
  check_int "sim.run.exact" 1 (count "sim.run.exact");
  check_int "sim.run.fast" 1 (count "sim.run.fast")

let test_measure_bad_iters () =
  check_bool "zero train iters rejected" true
    (match Ts_spmt.Profile.measure (Fixtures.spec_loop ()) ~train_iters:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- prologue / epilogue --- *)

let slices_kernel () =
  (* 3-node chain at ii=2: stages 0,0,1 *)
  Ts_modsched.Kernel.of_times (Fixtures.chain 3) ~ii:2 [| 0; 1; 2 |]

let test_thread_slice_prologue () =
  let k = slices_kernel () in
  (* thread 0 runs only stage-0 instructions *)
  Alcotest.(check (list int)) "prologue thread" [ 0; 1 ]
    (Ts_modsched.Codegen.thread_slice k ~thread:0 ~trip:5);
  (* middle threads run everything, in row order (ties by id) *)
  Alcotest.(check (list int)) "steady state" [ 0; 2; 1 ]
    (Ts_modsched.Codegen.thread_slice k ~thread:2 ~trip:5);
  (* the final thread drains stage 1 *)
  Alcotest.(check (list int)) "epilogue thread" [ 2 ]
    (Ts_modsched.Codegen.thread_slice k ~thread:5 ~trip:5)

let test_thread_slice_conservation () =
  let k = slices_kernel () in
  let trip = 7 in
  let total = ref 0 in
  for j = 0 to Ts_modsched.Codegen.n_threads k ~trip - 1 do
    total := !total + List.length (Ts_modsched.Codegen.thread_slice k ~thread:j ~trip)
  done;
  check_int "every source instruction exactly once"
    (trip * Ts_ddg.Ddg.n_nodes k.Ts_modsched.Kernel.g)
    !total

let prop_slice_conservation =
  QCheck.Test.make ~count:25 ~name:"thread slices conserve instructions"
    Fixtures.arb_loop (fun arb ->
      let g = Fixtures.loop_of_arb arb in
      match Ts_sms.Sms.schedule g with
      | exception Ts_sms.Sms.No_schedule _ -> QCheck.assume_fail ()
      | r ->
          let k = r.Ts_sms.Sms.kernel in
          let trip = 11 in
          let total = ref 0 in
          for j = 0 to Ts_modsched.Codegen.n_threads k ~trip - 1 do
            total :=
              !total + List.length (Ts_modsched.Codegen.thread_slice k ~thread:j ~trip)
          done;
          !total = trip * Ts_ddg.Ddg.n_nodes g)

(* --- register pressure --- *)

let test_fits_registers () =
  let g = Fixtures.motivating () in
  let k = (Ts_sms.Sms.schedule g).Ts_sms.Sms.kernel in
  check_bool "small kernel fits" true (Ts_modsched.Kernel.fits_registers k)

let test_suite_register_pressure () =
  (* TMS's aggressive stage counts must still fit the register file *)
  let params = Ts_isa.Spmt_params.default in
  let loops = Ts_workload.Spec_suite.loops (Ts_workload.Spec_suite.find "mgrid") in
  List.iter
    (fun g ->
      let r = Ts_tms.Tms.schedule ~params g in
      check_bool
        (g.Ts_ddg.Ddg.name ^ " within register budget")
        true
        (Ts_modsched.Kernel.fits_registers r.Ts_tms.Tms.kernel))
    loops

(* --- cache vs reference model --- *)

let prop_cache_reference_model =
  QCheck.Test.make ~count:60 ~name:"set-associative cache matches a reference LRU"
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 200) (int_bound 40)))
    (fun (_, blocks) ->
      let line = 32 and assoc = 2 and size = 256 in
      let n_sets = size / (assoc * line) in
      let cache = Ts_spmt.Cache.create ~size ~assoc ~line in
      (* reference: per set, a most-recent-first list truncated to assoc *)
      let ref_sets = Array.make n_sets [] in
      List.for_all
        (fun blk ->
          let addr = blk * line in
          let set = blk mod n_sets in
          let expect_hit = List.mem blk ref_sets.(set) in
          let got_hit = Ts_spmt.Cache.access cache addr in
          ref_sets.(set) <-
            blk :: List.filter (fun b -> b <> blk) ref_sets.(set);
          (if List.length ref_sets.(set) > assoc then
             ref_sets.(set) <-
               List.filteri (fun i _ -> i < assoc) ref_sets.(set));
          got_hit = expect_hit)
        blocks)

let suite =
  [
    Alcotest.test_case "profile: measures ground truth" `Quick
      test_measure_tracks_ground_truth;
    Alcotest.test_case "profile: certain dependence" `Quick
      test_measure_certain_dependence;
    Alcotest.test_case "profile: window excludes warmup" `Quick
      test_measure_window_excludes_warmup;
    Alcotest.test_case "profile: apply" `Quick test_apply_replaces_probabilities;
    Alcotest.test_case "profile: zero floored" `Quick test_apply_floor;
    Alcotest.test_case "profile: pipeline to scheduler" `Quick
      test_profile_then_schedule;
    Alcotest.test_case "profile: argument validation" `Quick test_measure_bad_iters;
    Alcotest.test_case "profile: sim span names the engine" `Quick
      test_sim_span_names_engine;
    Alcotest.test_case "slices: prologue/kernel/epilogue" `Quick
      test_thread_slice_prologue;
    Alcotest.test_case "slices: conservation" `Quick test_thread_slice_conservation;
    QCheck_alcotest.to_alcotest prop_slice_conservation;
    Alcotest.test_case "registers: small kernel fits" `Quick test_fits_registers;
    Alcotest.test_case "registers: TMS suite pressure" `Slow
      test_suite_register_pressure;
    QCheck_alcotest.to_alcotest prop_cache_reference_model;
  ]
