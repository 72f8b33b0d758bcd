(* The SpMT simulator, the address plans, the list scheduler and the
   single-threaded baseline. *)

module K = Ts_modsched.Kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cfg = Ts_spmt.Config.default
let params = cfg.Ts_spmt.Config.params

(* --- Address plans --- *)

let test_plan_deterministic () =
  let g = Fixtures.spec_loop () in
  let p1 = Ts_spmt.Address_plan.create ~seed:"s" g in
  let p2 = Ts_spmt.Address_plan.create ~seed:"s" g in
  for i = 0 to 50 do
    check_int "same stream"
      (Ts_spmt.Address_plan.addr p1 ~node:0 ~iter:i)
      (Ts_spmt.Address_plan.addr p2 ~node:0 ~iter:i)
  done

let test_plan_non_memory_rejected () =
  let g = Fixtures.spec_loop () in
  check_bool "fmul has no address" true
    (match Ts_spmt.Address_plan.addr (Ts_spmt.Address_plan.create g) ~node:1 ~iter:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_plan_collision_forcing () =
  let g = Fixtures.spec_loop () in
  let plan = Ts_spmt.Address_plan.create g in
  (* locate the mem edge index *)
  let idx = ref (-1) in
  Array.iteri
    (fun i (e : Ts_ddg.Ddg.edge) -> if e.kind = Ts_ddg.Ddg.Mem then idx := i)
    g.edges;
  let hits = ref 0 and total = 5000 in
  for i = 1 to total do
    if Ts_spmt.Address_plan.realised plan ~edge_index:!idx ~iter:i then begin
      incr hits;
      (* when realised, the consumer load reads the producer store's
         previous-iteration address *)
      check_int "collision address"
        (Ts_spmt.Address_plan.addr plan ~node:2 ~iter:(i - 1))
        (Ts_spmt.Address_plan.addr plan ~node:0 ~iter:i)
    end
  done;
  let rate = float_of_int !hits /. float_of_int total in
  check_bool (Printf.sprintf "rate %.3f tracks p=0.1" rate) true
    (rate > 0.07 && rate < 0.13)

let test_plan_before_distance () =
  let g = Fixtures.spec_loop () in
  let plan = Ts_spmt.Address_plan.create g in
  let idx = ref (-1) in
  Array.iteri
    (fun i (e : Ts_ddg.Ddg.edge) -> if e.kind = Ts_ddg.Ddg.Mem then idx := i)
    g.edges;
  check_bool "iteration 0 has no producer" false
    (Ts_spmt.Address_plan.realised plan ~edge_index:!idx ~iter:0)

(* --- List scheduler --- *)

let test_list_sched_chain () =
  let ls = Ts_modsched.List_sched.run (Fixtures.chain 3) in
  Alcotest.(check (array int)) "serial chain" [| 0; 1; 2 |] ls.time;
  check_int "makespan" 3 ls.makespan;
  Ts_modsched.List_sched.validate ls

let test_list_sched_width () =
  (* 8 independent ALU ops, 4-wide: two cycles *)
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  for _ = 1 to 8 do
    ignore (Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Ialu)
  done;
  let g = Ts_ddg.Ddg.Builder.build b in
  let ls = Ts_modsched.List_sched.run g in
  check_int "two cycles" 2 (1 + Array.fold_left max 0 ls.time);
  Ts_modsched.List_sched.validate ls

let test_list_sched_unit_contention () =
  (* three fmuls on the toy machine's unpipelined multiplier: starts 0,4,8 *)
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.toy in
  for _ = 1 to 3 do
    ignore (Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Fmul)
  done;
  let g = Ts_ddg.Ddg.Builder.build b in
  let ls = Ts_modsched.List_sched.run g in
  let sorted = Array.copy ls.time in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "serialised on the unit" [| 0; 4; 8 |] sorted

let test_list_sched_ignores_carried () =
  let ls = Ts_modsched.List_sched.run (Fixtures.accumulator ()) in
  check_int "fadd after load" 3 ls.time.(1);
  Ts_modsched.List_sched.validate ls

let prop_list_sched_valid =
  QCheck.Test.make ~count:50 ~name:"list schedules valid on generated loops"
    Fixtures.arb_loop (fun arb ->
      let g = Fixtures.loop_of_arb arb in
      let ls = Ts_modsched.List_sched.run g in
      Ts_modsched.List_sched.validate ls;
      ls.makespan >= Ts_ddg.Mii.ldp g)

(* --- Sim --- *)

let kernel_of g = (Ts_sms.Sms.schedule g).Ts_sms.Sms.kernel

let test_sim_basic_counts () =
  let g = Fixtures.motivating () in
  let st = Ts_spmt.Sim.run cfg (kernel_of g) ~trip:200 in
  check_int "committed" 200 st.Ts_spmt.Sim.committed;
  check_bool "cycles positive" true (st.Ts_spmt.Sim.cycles > 0);
  check_bool "comm = stalls + pair cycles" true
    (st.Ts_spmt.Sim.communication_overhead
     = st.Ts_spmt.Sim.sync_stall_cycles + st.Ts_spmt.Sim.send_recv_cycles);
  check_int "pairs = plan * trip"
    (K.send_recv_pairs_per_iter (kernel_of g) * 200)
    st.Ts_spmt.Sim.send_recv_pairs

let test_sim_deterministic () =
  let g = Fixtures.motivating () in
  let k = kernel_of g in
  let plan = Ts_spmt.Address_plan.create g in
  let a = Ts_spmt.Sim.run ~plan cfg k ~trip:300 in
  let b = Ts_spmt.Sim.run ~plan cfg k ~trip:300 in
  check_int "same cycles" a.Ts_spmt.Sim.cycles b.Ts_spmt.Sim.cycles;
  check_int "same squashes" a.Ts_spmt.Sim.squashes b.Ts_spmt.Sim.squashes

let test_sim_rate_floor () =
  (* throughput can never beat II / ncore *)
  let g = Fixtures.motivating () in
  let k = kernel_of g in
  let trip = 500 in
  let st = Ts_spmt.Sim.run cfg k ~trip in
  check_bool "bounded by II/ncore" true
    (st.Ts_spmt.Sim.cycles * params.ncore >= k.K.ii * trip)

let test_sim_more_cores_not_slower () =
  let g = List.hd Ts_workload.Doacross.equake.Ts_workload.Doacross.loops in
  let k = (Ts_tms.Tms.schedule_sweep ~params g).Ts_tms.Tms.kernel in
  let plan = Ts_spmt.Address_plan.create g in
  let run n =
    (Ts_spmt.Sim.run ~plan ~warmup:256 (Ts_spmt.Config.with_ncore cfg n) k ~trip:500)
      .Ts_spmt.Sim.cycles
  in
  let c2 = run 2 and c8 = run 8 in
  check_bool "8 cores at least as fast as 2" true (c8 <= c2)

let test_sim_sync_mem_no_squashes () =
  let g = Fixtures.spec_loop () in
  let k = kernel_of g in
  let st = Ts_spmt.Sim.run ~sync_mem:true cfg k ~trip:2000 in
  check_int "no speculation, no squashes" 0 st.Ts_spmt.Sim.squashes

let test_sim_speculation_squashes () =
  (* spec_loop's carried store->load (p=0.1) with a tight schedule produces
     genuine violations *)
  let g = Fixtures.spec_loop () in
  let k = kernel_of g in
  let st = Ts_spmt.Sim.run cfg k ~trip:2000 in
  check_bool "some squashes" true (st.Ts_spmt.Sim.squashes > 0);
  check_bool "rate near p" true (st.Ts_spmt.Sim.misspec_rate < 0.2)

let test_sim_warmup_excluded () =
  let g = Fixtures.motivating () in
  let k = kernel_of g in
  let plan = Ts_spmt.Address_plan.create g in
  let cold = Ts_spmt.Sim.run ~plan cfg k ~trip:400 in
  let warm = Ts_spmt.Sim.run ~plan ~warmup:512 cfg k ~trip:400 in
  check_bool "steady state at least as fast" true
    (warm.Ts_spmt.Sim.cycles <= cold.Ts_spmt.Sim.cycles);
  check_bool "fewer cold misses counted" true
    (warm.Ts_spmt.Sim.l2_misses <= cold.Ts_spmt.Sim.l2_misses)

let test_sim_stall_breakdown_consistent () =
  let g = Fixtures.motivating () in
  let st = Ts_spmt.Sim.run cfg (kernel_of g) ~trip:300 in
  let total =
    List.fold_left (fun acc (_, c) -> acc + c) 0 st.Ts_spmt.Sim.stall_breakdown
  in
  check_int "breakdown sums to total" st.Ts_spmt.Sim.sync_stall_cycles total

let test_sim_bad_args () =
  let g = Fixtures.motivating () in
  let k = kernel_of g in
  check_bool "trip 0 rejected" true
    (match Ts_spmt.Sim.run cfg k ~trip:0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "negative warmup rejected" true
    (match Ts_spmt.Sim.run ~warmup:(-1) cfg k ~trip:10 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_sim_check_does_not_perturb () =
  (* ~check:true must observe only: stats byte-identical to an unchecked
     run, on both a squash-heavy loop and the motivating one *)
  List.iter
    (fun g ->
      let k = kernel_of g in
      let plan = Ts_spmt.Address_plan.create g in
      let plain = Ts_spmt.Sim.run ~plan ~warmup:64 cfg k ~trip:300 in
      let checked =
        Ts_spmt.Sim.run ~plan ~warmup:64 ~check:true cfg k ~trip:300
      in
      check_bool
        (g.Ts_ddg.Ddg.name ^ ": checked stats identical")
        true (plain = checked))
    [ Fixtures.spec_loop (); Fixtures.motivating () ]

let cval name =
  Ts_obs.Metrics.counter_value
    (Ts_obs.Metrics.counter Ts_obs.Metrics.default name)

(* The fast path's window extrapolation must actually engage, and stay
   exact, on loops whose probabilistic memory dependences squash threads:
   a coin thread disengages the fast path and the window has to
   re-engage after it. *)
let test_sim_fast_engages_around_squashes () =
  let e0 = cval "sim.fastpath.engagements"
  and x0 = cval "sim.fastpath.extrapolated_threads" in
  let squashes =
    List.fold_left
      (fun acc g ->
        let k = kernel_of g in
        let plan = Ts_spmt.Address_plan.create g in
        let exact = Ts_spmt.Sim.run ~plan ~fast:false cfg k ~trip:2000 in
        let fast = Ts_spmt.Sim.run ~plan ~fast:true cfg k ~trip:2000 in
        check_bool
          (g.Ts_ddg.Ddg.name ^ ": fast stats identical to exact")
          true (exact = fast);
        acc + fast.Ts_spmt.Sim.squashes)
      0 (Fixtures.c2_loops ())
  in
  let engaged = cval "sim.fastpath.engagements" - e0
  and extrapolated = cval "sim.fastpath.extrapolated_threads" - x0 in
  check_bool (Printf.sprintf "engagements (%d) > 0" engaged) true (engaged > 0);
  check_bool
    (Printf.sprintf "extrapolated threads (%d) > 0" extrapolated)
    true (extrapolated > 0);
  check_bool (Printf.sprintf "squashes (%d) > 0" squashes) true (squashes > 0)

let test_ipc () =
  let g = Fixtures.motivating () in
  let k = kernel_of g in
  let st = Ts_spmt.Sim.run cfg k ~trip:300 in
  let ipc = Ts_spmt.Sim.ipc k st in
  check_bool "0 < ipc <= width * ncore" true
    (ipc > 0.0 && ipc <= 16.0)

(* --- Heterogeneous machines under [~check] --- *)

let hetero_cfg mix policy =
  match Ts_isa.Spmt_params.mix_of_string mix with
  | Ok m ->
      Ts_spmt.Config.with_placement
        { cfg with Ts_spmt.Config.params = Ts_isa.Spmt_params.apply_mix params m }
        policy
  | Error e -> failwith e

let hetero_loops () =
  [
    Fixtures.motivating ();
    Fixtures.spec_loop ();
    Fixtures.diamond ();
    Fixtures.accumulator ();
    Fixtures.two_scc ();
  ]
  @ List.map (fun seed -> Fixtures.generated ~seed ~n_inst:(16 + (8 * seed)) ())
      [ 0; 1; 2; 3 ]

(* Finite issue width, the reference cache and MDT models and the
   pre-rolled addresses are all checked on every thread of a
   heterogeneous run; the checked stats must equal the unchecked ones. *)
let test_sim_hetero_checked mix policy () =
  let mcfg = hetero_cfg mix policy in
  List.iter
    (fun g ->
      let k = kernel_of g in
      let plan = Ts_spmt.Address_plan.create g in
      let plain = Ts_spmt.Sim.run ~plan ~warmup:64 mcfg k ~trip:300 in
      let checked =
        Ts_spmt.Sim.run ~plan ~warmup:64 ~check:true mcfg k ~trip:300
      in
      check_bool
        (g.Ts_ddg.Ddg.name ^ ": checked stats identical")
        true (plain = checked))
    (hetero_loops ())

(* The arena's scratch must not leak from one run into the next: a short
   cold run (no warmup to wash a perturbation out) repeats exactly after
   other runs on the same domain. *)
let test_sim_hetero_runs_independent () =
  let mcfg = hetero_cfg "2fast+2slow" Ts_isa.Placement.Locality in
  let ks = List.map kernel_of (hetero_loops ()) in
  let firsts = List.map (fun k -> Ts_spmt.Sim.run mcfg k ~trip:50) ks in
  List.iter2
    (fun k first ->
      check_bool "same stats on a rerun" true
        (Ts_spmt.Sim.run mcfg k ~trip:50 = first))
    (List.rev ks) (List.rev firsts)

(* The fast path engages, and stays exact, under every placement of a
   big.LITTLE ring: its windows follow the placement period, so a thread
   keeps its core and its period position from window to window. *)
let test_sim_fast_engages_every_placement () =
  List.iter
    (fun policy ->
      let mcfg = hetero_cfg "2fast+2slow" policy in
      let e0 = cval "sim.fastpath.engagements" in
      List.iter
        (fun g ->
          let k = kernel_of g in
          let plan = Ts_spmt.Address_plan.create g in
          let run fast = Ts_spmt.Sim.run ~plan ~warmup:64 ~fast mcfg k ~trip:1000 in
          check_bool
            (Printf.sprintf "%s, %s: fast stats identical to exact"
               g.Ts_ddg.Ddg.name
               (Ts_isa.Placement.policy_to_string policy))
            true
            (run false = run true))
        (hetero_loops ());
      let engaged = cval "sim.fastpath.engagements" - e0 in
      check_bool
        (Printf.sprintf "%s: engagements (%d) > 0"
           (Ts_isa.Placement.policy_to_string policy)
           engaged)
        true (engaged > 0))
    Ts_isa.Placement.all

(* The arena keeps its L2 when only the core count changes: runs at 4,
   then 8, then 4 cores (then on 2fast+2slow) on this domain's arena
   equal runs on a fresh domain's arena, field by field. *)
let test_sim_arena_across_core_counts () =
  let fields (s : Ts_spmt.Sim.stats) =
    [
      ("cycles", s.cycles); ("committed", s.committed);
      ("squashes", s.squashes); ("sync_stall_cycles", s.sync_stall_cycles);
      ("spawn_stall_cycles", s.spawn_stall_cycles);
      ("send_recv_pairs", s.send_recv_pairs);
      ("send_recv_cycles", s.send_recv_cycles);
      ("communication_overhead", s.communication_overhead);
      ("l1_hits", s.l1_hits); ("l1_misses", s.l1_misses);
      ("l2_hits", s.l2_hits); ("l2_misses", s.l2_misses);
      ("mdt_peak", s.mdt_peak);
    ]
  in
  let machines =
    [
      cfg;
      Ts_spmt.Config.with_ncore cfg 8;
      cfg;
      hetero_cfg "2fast+2slow" Ts_isa.Placement.Locality;
    ]
  in
  List.iter
    (fun g ->
      let k = kernel_of g in
      List.iteri
        (fun i mcfg ->
          let run () = Ts_spmt.Sim.run ~warmup:64 ~fast:true mcfg k ~trip:600 in
          let fresh = Domain.join (Domain.spawn run) in
          let reused = run () in
          List.iter2
            (fun (name, want) (_, got) ->
              check_int
                (Printf.sprintf "%s, machine %d: %s" g.Ts_ddg.Ddg.name i name)
                want got)
            (fields fresh) (fields reused);
          check_bool
            (Printf.sprintf "%s, machine %d: equal stats" g.Ts_ddg.Ddg.name i)
            true (fresh = reused))
        machines)
    [ Fixtures.spec_loop (); Fixtures.motivating (); Fixtures.generated () ]

(* Load -> fmul -> store, the store at time 6 of [ii] (stage 1 at II 4,
   stage 0 at II 8), and a register recurrence of distance [dist] from
   the fmul back to the load. *)
let deep_recurrence_kernel ~ii ~dist =
  let b = Ts_ddg.Ddg.Builder.create ~name:"deep" Ts_isa.Machine.spmt_core in
  let ld = Ts_ddg.Ddg.Builder.add b ~latency:2 Ts_isa.Opcode.Load in
  let f = Ts_ddg.Ddg.Builder.add b ~latency:4 Ts_isa.Opcode.Fmul in
  let sto = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Store in
  Ts_ddg.Ddg.Builder.dep b ld f;
  Ts_ddg.Ddg.Builder.dep b f sto;
  Ts_ddg.Ddg.Builder.dep b ~dist f ld;
  K.of_times (Ts_ddg.Ddg.Builder.build b) ~ii [| 0; 2; 6 |]

(* The fast path's analytic MDT model against the exact engine's pooled
   MDT: [~check] compares every stats field, [mdt_peak] included. A
   recurrence of distance 63, 127 or 600 puts the history horizon at or
   above the store stream's period [P_v] (64 to 512 threads). In stage
   1 the store's prologue thread 0 writes below the stream's base, so
   thread [P_v] does not overwrite that entry, and it lives until a
   retire passes it; in stage 0 there is no such thread. *)
let test_sim_analytic_mdt_deep_lookback () =
  let periods = ref [] in
  List.iter
    (fun ii ->
      List.iter
        (fun dist ->
          let k = deep_recurrence_kernel ~ii ~dist in
          for seed = 0 to 19 do
            let plan =
              Ts_spmt.Address_plan.create ~seed:(string_of_int seed) k.K.g
            in
            (* the store is node 2; a stride divides its working set *)
            let st = Ts_spmt.Address_plan.streams plan in
            periods := ((st.(8) + 1) / st.(7)) :: !periods;
            ignore
              (Ts_spmt.Sim.run ~plan ~fast:true ~check:true cfg k ~trip:1000
                : Ts_spmt.Sim.stats)
          done)
        [ 63; 127; 600 ])
    [ 4; 8 ];
  check_bool "store periods 64 and 128 both covered" true
    (List.mem 64 !periods && List.mem 128 !periods)

(* --- Allocation --- *)

(* Minor-heap words per extra simulated thread: the difference between a
   run of [2 * trip] and one of [trip], over [trip]. Per-run setup
   cancels out; what remains is what the per-thread path allocates. The
   first run grows the domain's scratch arena to the larger size. *)
let words_per_thread ?(fast = false) mcfg g =
  let k = kernel_of g in
  let plan = Ts_spmt.Address_plan.create g in
  let trip = 2000 and warmup = 64 in
  let words trip =
    let w0 = Gc.minor_words () in
    ignore (Ts_spmt.Sim.run ~plan ~warmup ~fast mcfg k ~trip);
    Gc.minor_words () -. w0
  in
  ignore (words (2 * trip));
  let short = words trip in
  let long = words (2 * trip) in
  (long -. short) /. float_of_int trip

let test_sim_allocation_free () =
  let hetero = hetero_cfg "2fast+2slow" Ts_isa.Placement.Locality in
  List.iter
    (fun g ->
      List.iter
        (fun (what, w) ->
          check_bool
            (Printf.sprintf "%s, %s: %.3f words per thread" g.Ts_ddg.Ddg.name
               what w)
            true (w < 0.5))
        [
          ("exact", words_per_thread cfg g);
          ("exact heterogeneous", words_per_thread hetero g);
          ("fast path", words_per_thread ~fast:true cfg g);
          ("fast path heterogeneous", words_per_thread ~fast:true hetero g);
        ])
    [ Fixtures.spec_loop (); Fixtures.motivating (); Fixtures.generated () ]

(* --- Single-threaded baseline --- *)

let test_single_basic () =
  let g = Fixtures.motivating () in
  let st = Ts_spmt.Single.run cfg g ~trip:300 in
  check_int "iterations" 300 st.Ts_spmt.Single.iterations;
  check_bool "cycles positive" true (st.Ts_spmt.Single.cycles > 0)

let test_single_res_ii_floor () =
  (* steady state cannot beat ResII per iteration *)
  let g = Fixtures.generated ~seed:3 ~n_inst:30 () in
  let trip = 500 in
  let st = Ts_spmt.Single.run ~warmup:512 cfg g ~trip in
  check_bool "bounded by ResII" true
    (st.Ts_spmt.Single.cycles >= Ts_ddg.Mii.res_ii g * trip)

let test_single_recurrence_bound () =
  (* the accumulator chains at its realised latency: >= 3 cycles/iter *)
  let g = Fixtures.accumulator () in
  let trip = 500 in
  let st = Ts_spmt.Single.run ~warmup:128 cfg g ~trip in
  check_bool "recurrence-bound" true (st.Ts_spmt.Single.cycles >= 3 * trip)

let test_single_deterministic () =
  let g = Fixtures.spec_loop () in
  let plan = Ts_spmt.Address_plan.create g in
  let a = Ts_spmt.Single.run ~plan cfg g ~trip:400 in
  let b = Ts_spmt.Single.run ~plan cfg g ~trip:400 in
  check_int "same cycles" a.Ts_spmt.Single.cycles b.Ts_spmt.Single.cycles



(* --- observation + timeline --- *)

let test_observe_callback () =
  let g = Fixtures.motivating () in
  let k = kernel_of g in
  let seen = ref [] in
  ignore (Ts_spmt.Sim.run ~observe:(fun o -> seen := o :: !seen) cfg k ~trip:20);
  check_int "one observation per thread" 20 (List.length !seen);
  List.iter
    (fun (o : Ts_spmt.Sim.thread_obs) ->
      check_int "core = index mod ncore" (o.index mod params.ncore) o.core;
      check_bool "lifecycle ordered" true
        (o.start <= o.end_exec && o.end_exec <= o.commit_start
        && o.commit_start < o.commit_end))
    !seen

let test_observe_commit_order () =
  let g = Fixtures.motivating () in
  let k = kernel_of g in
  let commits = ref [] in
  ignore
    (Ts_spmt.Sim.run
       ~observe:(fun o -> commits := o.commit_end :: !commits)
       cfg k ~trip:50);
  (* head-thread commits are strictly ordered *)
  let rec ordered = function
    | a :: (b :: _ as rest) -> a > b && ordered rest
    | _ -> true
  in
  check_bool "commits strictly increasing" true (ordered !commits)

let test_timeline_render () =
  let g = Fixtures.motivating () in
  let k = kernel_of g in
  let obs = Ts_spmt.Timeline.collect ~n_threads:8 ~warmup:16 cfg k in
  check_int "eight threads" 8 (List.length obs);
  let s = Ts_spmt.Timeline.render ~ncore:params.ncore obs in
  check_bool "one lane per core + header" true
    (List.length (String.split_on_char '\n' s) >= params.ncore + 1);
  check_bool "has execution marks" true (String.contains s '=');
  check_bool "has commit marks" true (String.contains s 'c')

let test_timeline_empty () =
  Alcotest.(check string) "empty render" "(no threads observed)\n"
    (Ts_spmt.Timeline.render ~ncore:4 [])



let test_ring_latency_monotone () =
  (* slowing the ring can only slow a synchronisation-bound loop *)
  let g = Fixtures.motivating () in
  let k = kernel_of g in
  let plan = Ts_spmt.Address_plan.create g in
  let cycles c_reg_com =
    let cfg' =
      { cfg with Ts_spmt.Config.params = { params with c_reg_com } }
    in
    (Ts_spmt.Sim.run ~plan ~warmup:256 cfg' k ~trip:800).Ts_spmt.Sim.cycles
  in
  let c1 = cycles 1 and c3 = cycles 3 and c8 = cycles 8 in
  check_bool "1-cycle ring fastest" true (c1 <= c3);
  check_bool "8-cycle ring slowest" true (c3 <= c8)

let test_spawn_cost_monotone () =
  let g = Fixtures.motivating () in
  let k = kernel_of g in
  let plan = Ts_spmt.Address_plan.create g in
  let cycles c_spawn =
    let cfg' = { cfg with Ts_spmt.Config.params = { params with c_spawn } } in
    (Ts_spmt.Sim.run ~plan ~warmup:256 cfg' k ~trip:800).Ts_spmt.Sim.cycles
  in
  check_bool "cheaper spawn at least as fast" true (cycles 1 <= cycles 12)

(* --- Stages, driven thread by thread --- *)

module St = Ts_spmt.Sim.Stage
module Ref = Ts_check.Ref_models

let addr_of plan (k : K.t) v j =
  Ts_spmt.Address_plan.addr plan ~node:v ~iter:(j - k.K.stage.(v))

(* A fast-path run reads a thread's own stream addresses by mask, skipping
   the coins, except for negative prologue iterations (where [land] and
   [mod] differ) and coin iterations: each must still be
   [Address_plan.addr], for every memory node and every iteration in
   [-max_stage, warmup + trip). The C2 loops' probabilistic memory
   dependences cover both exceptions. *)
let test_stage_fast_addr () =
  let warmup = 16 and trip = 200 in
  let negative = ref 0 and coins = ref 0 in
  List.iter
    (fun g ->
      let k = kernel_of g in
      let plan = Ts_spmt.Address_plan.create g in
      let st = St.create ~plan ~warmup ~fast:true cfg k ~trip in
      let max_stage = Array.fold_left max 0 k.K.stage in
      let st_tbl = Ts_spmt.Address_plan.streams plan in
      for v = 0 to Ts_ddg.Ddg.n_nodes g - 1 do
        if Ts_isa.Opcode.is_mem (Ts_ddg.Ddg.node g v).op then
          for it = -max_stage to warmup + trip - 1 do
            let want = Ts_spmt.Address_plan.addr plan ~node:v ~iter:it in
            let own =
              st_tbl.(3 * v) + (st_tbl.((3 * v) + 1) * it land st_tbl.((3 * v) + 2))
            in
            if it < 0 && want <> own then incr negative;
            if it >= 0 && want <> own then incr coins;
            check_int
              (Printf.sprintf "%s: node %d, iteration %d" g.Ts_ddg.Ddg.name v it)
              want
              (St.addr st v (it + k.K.stage.(v)))
          done
      done)
    (Fixtures.c2_loops ());
  check_bool "some negative iteration where land and mod differ" true
    (!negative > 0);
  check_bool "some coin-redirected iteration" true (!coins > 0)

(* The fast path's coin marks are [Address_plan.realised] rolled from
   hoisted keys: they must be exactly the iterations in [0, warmup +
   trip) where some memory-dependence edge is realised, on the C2 fixture
   loops and on a suite loop with a speculated dependence. *)
let test_stage_coin_marks () =
  let warmup = 512 and trip = 2000 in
  (* the realised iterations, and the marks *)
  let marks (g : Ts_ddg.Ddg.t) =
    let plan = Ts_spmt.Address_plan.create g in
    let st = St.create ~plan ~warmup ~fast:true cfg (kernel_of g) ~trip in
    let realised it =
      let hit = ref false in
      Array.iteri
        (fun idx (e : Ts_ddg.Ddg.edge) ->
          if e.kind = Ts_ddg.Ddg.Mem then
            hit := !hit || Ts_spmt.Address_plan.realised plan ~edge_index:idx ~iter:it)
        g.edges;
      !hit
    in
    (List.filter realised (List.init (warmup + trip) Fun.id), St.coin_iters st)
  in
  let speculated (g : Ts_ddg.Ddg.t) =
    Array.for_all (fun (e : Ts_ddg.Ddg.edge) -> e.prob < 1.0) g.mem_arr
    && fst (marks g) <> []
  in
  let suite_loop =
    List.find speculated
      (List.concat_map Ts_workload.Spec_suite.loops
         Ts_workload.Spec_suite.benchmarks)
  in
  List.iter
    (fun (g : Ts_ddg.Ddg.t) ->
      let want, got = marks g in
      check_bool (g.name ^ ": some coin fires") true (want <> []);
      Alcotest.(check (list int)) g.name want (Array.to_list got))
    (suite_loop :: Fixtures.c2_loops ())

(* [spawn]: a thread starts at [max (previous start + c_spawn) core_free]
   (round-robin: the core's previous thread committed), and spawn stalls
   count only from [warmup] on. *)
let test_stage_spawn () =
  let k = kernel_of (Fixtures.motivating ()) in
  let warmup = 8 and trip = 40 and ncore = params.ncore in
  let st = St.create ~warmup cfg k ~trip in
  let commit_end = Array.make (warmup + trip) 0 in
  let prev_start = ref (-params.c_spawn) and stall = ref 0 in
  for j = 0 to warmup + trip - 1 do
    let ready = !prev_start + params.c_spawn in
    let free = if j >= ncore then commit_end.(j - ncore) else 0 in
    let start = St.spawn st j in
    check_int (Printf.sprintf "thread %d start" j) (max ready free) start;
    if j >= warmup then stall := !stall + max 0 (free - ready);
    check_int (Printf.sprintf "stall after thread %d" j) !stall
      (St.spawn_stall_cycles st);
    St.execute st j ~start;
    St.verify st j;
    St.commit st j;
    prev_start := St.start st;
    commit_end.(j) <- St.last_commit_end st
  done;
  check_bool "the cores were busy at some spawn" true (!stall > 0)

(* [execute]: with one distance-1 register edge [x -> y], thread [j]'s
   RECV waits for thread [j-1]'s [x] plus the ring cost — [c_reg_com]
   under round-robin, [Placement.comm_cycles] under locality on
   2fast+2slow — and the stall blames [(x, y)]. *)
let test_stage_execute mcfg () =
  let b = Ts_ddg.Ddg.Builder.create ~name:"recv" Ts_isa.Machine.spmt_core in
  let x = Ts_ddg.Ddg.Builder.add b ~latency:6 Ts_isa.Opcode.Fmul in
  let y = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Ialu in
  Ts_ddg.Ddg.Builder.dep b ~dist:1 x y;
  let k = K.of_times (Ts_ddg.Ddg.Builder.build b) ~ii:8 [| 0; 1 |] in
  let p = mcfg.Ts_spmt.Config.params in
  let place = Ts_isa.Placement.make mcfg.Ts_spmt.Config.placement p in
  let trip = 30 in
  let st = St.create mcfg k ~trip in
  let stalled = ref 0 in
  for j = 0 to trip - 1 do
    let start = St.spawn st j in
    St.execute st j ~start;
    let ready = start + k.K.row.(y) in
    let expect =
      if j = 0 then ready
      else max ready (St.finish st (j - 1) x + Ts_isa.Placement.comm_cycles place ~dk:1 ~dst:j)
    in
    check_int (Printf.sprintf "thread %d y issue" j) expect (St.issue st j y);
    stalled := !stalled + (expect - ready);
    St.verify st j;
    St.commit st j
  done;
  check_bool "the RECV stalled" true (!stalled > 0);
  Alcotest.(check (list (pair (pair int int) int)))
    "stall blamed on (x, y)" [ ((x, y), !stalled) ] (St.stall_breakdown st)

(* Load [0] -> fmul [1] -> store [2], and a certain memory dependence
   from the store to the next iteration's load: every load reads the
   line the previous iteration stored (a collision-forced plan). *)
let forced_loop () =
  let b = Ts_ddg.Ddg.Builder.create ~name:"forced" Ts_isa.Machine.spmt_core in
  let ld = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Load in
  let f = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Fmul in
  let sto = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Store in
  Ts_ddg.Ddg.Builder.dep b ld f;
  Ts_ddg.Ddg.Builder.dep b f sto;
  Ts_ddg.Ddg.Builder.mem_dep b ~dist:1 ~prob:1.0 sto ld;
  Ts_ddg.Ddg.Builder.build b

(* [verify]: under a collision-forced plan, a thread whose load the MDT
   catches restarts at [t_detect + c_inv], and the naive MDT model, fed
   the same stores, agrees on [t_detect]. *)
let test_stage_verify () =
  let g = forced_loop () and ld = 0 and sto = 2 in
  let k = kernel_of g in
  let plan = Ts_spmt.Address_plan.create g in
  (* under 64 threads: no MDT retire to mirror *)
  let trip = 60 in
  let st = St.create ~plan cfg k ~trip in
  let rmdt = Ref.Mdt.create ~horizon:params.ncore in
  let squashes = ref 0 in
  for j = 0 to trip - 1 do
    let start = St.spawn st j in
    St.execute st j ~start;
    let detect =
      Ref.Mdt.conflicting_store rmdt ~thread:j ~addr:(addr_of plan k ld j)
        ~issue:(St.issue st j ld)
    in
    St.verify st j;
    (match detect with
    | None -> check_int (Printf.sprintf "thread %d runs once" j) start (St.start st)
    | Some t_detect ->
        incr squashes;
        check_int (Printf.sprintf "thread %d restart" j)
          (t_detect + params.c_inv) (St.start st));
    St.commit st j;
    Ref.Mdt.record_store rmdt ~thread:j ~addr:(addr_of plan k sto j)
      ~finish:(St.finish st j sto)
  done;
  check_bool (Printf.sprintf "threads squashed (%d)" !squashes) true
    (!squashes > 0)

(* [commit]: [commit_start = max end_exec previous_commit_end], and after
   the stores' L2 fills and peer-L1 invalidations the caches agree with
   the naive LRU models driven through the same accesses. The forced
   loop's loads read stored lines, so the invalidations matter; under
   [sync_mem] nothing squashes. *)
let test_stage_commit () =
  let g = forced_loop () in
  let k = kernel_of g in
  let plan = Ts_spmt.Address_plan.create g in
  let ncore = params.ncore and trip = 2000 in
  let st = St.create ~plan ~sync_mem:true cfg k ~trip in
  let line = cfg.Ts_spmt.Config.line in
  let rl1 =
    Array.init ncore (fun _ ->
        Ref.Cache.create ~size:cfg.l1_size ~assoc:cfg.l1_assoc ~line)
  in
  let rl2 = Ref.Cache.create ~size:cfg.l2_size ~assoc:cfg.l2_assoc ~line in
  let n = Ts_ddg.Ddg.n_nodes g in
  let op v = (Ts_ddg.Ddg.node g v).Ts_ddg.Ddg.op in
  let loads =
    List.filter (fun v -> op v = Ts_isa.Opcode.Load) (List.init n Fun.id)
    |> List.stable_sort (fun a b -> compare k.K.row.(a) k.K.row.(b))
  in
  let stores =
    List.filter (fun v -> op v = Ts_isa.Opcode.Store) (List.init n Fun.id)
  in
  let touched = Hashtbl.create 256 in
  for j = 0 to trip - 1 do
    let core = j mod ncore in
    let start = St.spawn st j in
    St.execute st j ~start;
    List.iter
      (fun v ->
        let a = addr_of plan k v j in
        Hashtbl.replace touched a ();
        if not (Ref.Cache.access rl1.(core) a) then
          ignore (Ref.Cache.access rl2 a))
      loads;
    St.verify st j;
    check_int "no squash under sync_mem" start (St.start st);
    let end_exec =
      List.fold_left (fun acc v -> max acc (St.finish st j v)) start
        (List.init n Fun.id)
    in
    let expect = max end_exec (St.last_commit_end st) + params.c_commit in
    St.commit st j;
    check_int (Printf.sprintf "thread %d commit end" j) expect
      (St.last_commit_end st);
    List.iter
      (fun v ->
        let a = addr_of plan k v j in
        Hashtbl.replace touched a ();
        Ref.Cache.fill rl2 a;
        Array.iteri (fun c r -> if c <> core then Ref.Cache.invalidate r a) rl1)
      stores
  done;
  Hashtbl.iter
    (fun a () ->
      for c = 0 to ncore - 1 do
        check_bool "L1 residency" (Ref.Cache.probe rl1.(c) a)
          (Ts_spmt.Cache.probe (St.l1 st c) a)
      done;
      check_bool "L2 residency" (Ref.Cache.probe rl2 a)
        (Ts_spmt.Cache.probe (St.l2 st) a))
    touched;
  Alcotest.(check (pair int int)) "L2 hits/misses" (Ref.Cache.stats rl2)
    (Ts_spmt.Cache.stats (St.l2 st))

(* [sim.mdt_peak] is a high-water mark across runs, not the last run's. *)
let test_mdt_peak_gauge_keeps_max () =
  let gauge = Ts_obs.Metrics.gauge Ts_obs.Metrics.default "sim.mdt_peak" in
  let big = kernel_of (Fixtures.generated ~n_inst:40 ()) in
  let small = kernel_of (Fixtures.spec_loop ()) in
  let b = Ts_spmt.Sim.run cfg big ~trip:300 in
  let s = Ts_spmt.Sim.run (Ts_spmt.Config.with_ncore cfg 1) small ~trip:10 in
  check_bool "the second run's peak is lower" true
    (s.Ts_spmt.Sim.mdt_peak < b.Ts_spmt.Sim.mdt_peak);
  check_bool "the gauge keeps the first" true
    (Ts_obs.Metrics.gauge_value gauge >= float_of_int b.Ts_spmt.Sim.mdt_peak)

let suite =
  [
    Alcotest.test_case "plan: deterministic" `Quick test_plan_deterministic;
    Alcotest.test_case "plan: non-memory rejected" `Quick test_plan_non_memory_rejected;
    Alcotest.test_case "plan: collision forcing" `Quick test_plan_collision_forcing;
    Alcotest.test_case "plan: before distance" `Quick test_plan_before_distance;
    Alcotest.test_case "list_sched: chain" `Quick test_list_sched_chain;
    Alcotest.test_case "list_sched: width" `Quick test_list_sched_width;
    Alcotest.test_case "list_sched: unit contention" `Quick test_list_sched_unit_contention;
    Alcotest.test_case "list_sched: carried deps ignored" `Quick
      test_list_sched_ignores_carried;
    QCheck_alcotest.to_alcotest prop_list_sched_valid;
    Alcotest.test_case "sim: basic counters" `Quick test_sim_basic_counts;
    Alcotest.test_case "sim: deterministic" `Quick test_sim_deterministic;
    Alcotest.test_case "sim: II/ncore floor" `Quick test_sim_rate_floor;
    Alcotest.test_case "sim: more cores helps" `Quick test_sim_more_cores_not_slower;
    Alcotest.test_case "sim: sync_mem disables squashes" `Quick
      test_sim_sync_mem_no_squashes;
    Alcotest.test_case "sim: speculation squashes" `Quick test_sim_speculation_squashes;
    Alcotest.test_case "sim: warmup excluded" `Quick test_sim_warmup_excluded;
    Alcotest.test_case "sim: stall breakdown" `Quick test_sim_stall_breakdown_consistent;
    Alcotest.test_case "sim: argument validation" `Quick test_sim_bad_args;
    Alcotest.test_case "sim: check does not perturb" `Quick
      test_sim_check_does_not_perturb;
    Alcotest.test_case "sim: fast path engages around squashes" `Quick
      test_sim_fast_engages_around_squashes;
    Alcotest.test_case "sim: ipc sanity" `Quick test_ipc;
    Alcotest.test_case "sim: checked 2fast+2slow round-robin" `Quick
      (test_sim_hetero_checked "2fast+2slow" Ts_isa.Placement.Round_robin);
    Alcotest.test_case "sim: checked 2fast+2slow locality" `Quick
      (test_sim_hetero_checked "2fast+2slow" Ts_isa.Placement.Locality);
    Alcotest.test_case "sim: checked 1fast+3slow round-robin" `Quick
      (test_sim_hetero_checked "fast+3slow" Ts_isa.Placement.Round_robin);
    Alcotest.test_case "sim: checked 1fast+3slow locality" `Quick
      (test_sim_hetero_checked "fast+3slow" Ts_isa.Placement.Locality);
    Alcotest.test_case "sim: heterogeneous reruns are independent" `Quick
      test_sim_hetero_runs_independent;
    Alcotest.test_case "sim: fast path engages under every placement" `Quick
      test_sim_fast_engages_every_placement;
    Alcotest.test_case "sim: arena reuse across core counts" `Quick
      test_sim_arena_across_core_counts;
    Alcotest.test_case "sim: allocation-free per thread" `Quick
      test_sim_allocation_free;
    Alcotest.test_case "stage: spawn" `Quick test_stage_spawn;
    Alcotest.test_case "stage: fast address path" `Quick test_stage_fast_addr;
    Alcotest.test_case "stage: coin marks" `Quick test_stage_coin_marks;
    Alcotest.test_case "stage: execute, round-robin" `Quick
      (test_stage_execute cfg);
    Alcotest.test_case "stage: execute, 2fast+2slow locality" `Quick
      (test_stage_execute (hetero_cfg "2fast+2slow" Ts_isa.Placement.Locality));
    Alcotest.test_case "stage: verify" `Quick test_stage_verify;
    Alcotest.test_case "stage: commit" `Quick test_stage_commit;
    Alcotest.test_case "sim: analytic MDT under a deep lookback" `Quick
      test_sim_analytic_mdt_deep_lookback;
    Alcotest.test_case "sim: mdt_peak gauge keeps the maximum" `Quick
      test_mdt_peak_gauge_keeps_max;
    Alcotest.test_case "single: basic" `Quick test_single_basic;
    Alcotest.test_case "single: ResII floor" `Quick test_single_res_ii_floor;
    Alcotest.test_case "single: recurrence bound" `Quick test_single_recurrence_bound;
    Alcotest.test_case "single: deterministic" `Quick test_single_deterministic;
    Alcotest.test_case "observe: per-thread callback" `Quick test_observe_callback;
    Alcotest.test_case "observe: commit order" `Quick test_observe_commit_order;
    Alcotest.test_case "timeline: render" `Quick test_timeline_render;
    Alcotest.test_case "timeline: empty" `Quick test_timeline_empty;
    Alcotest.test_case "invariant: ring latency monotone" `Quick
      test_ring_latency_monotone;
    Alcotest.test_case "invariant: spawn cost monotone" `Quick
      test_spawn_cost_monotone;
  ]
