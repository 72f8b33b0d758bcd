(* bench/main.exe — wall-clock and micro benchmarks of the pipeline
   stages. (The paper's tables and figures are regenerated by
   `tsms experiments`.)

   Usage:
     bench/main.exe micro                Bechamel micro-benchmarks
                                         (one Test.make per table/figure)
     bench/main.exe --jobs 4 search      TMS grid-search wall-clock bench;
                                         writes BENCH_search.json
     bench/main.exe sim                  simulator fast-path + result-cache
                                         wall-clock bench; writes
                                         BENCH_sim.json
     bench/main.exe pool                 resident pool vs spawn-per-call;
                                         writes BENCH_pool.json
     bench/main.exe --check DIR          run search, sim and pool and compare
                                         them against the baselines in DIR *)

let usage () =
  prerr_endline
    "usage: main.exe [--limit N] [--jobs N] [--repeat N] [--out FILE] \
     [--fault-plan S] [--check DIR] [--check-tolerance F] [--metrics-out FILE] \
     [micro|search|sim|pool]...";
  exit 2

(* ------------------------------------------------------------------ *)
(* The `search` group: wall-clock the TMS grid search itself (the unit
   future perf PRs must not regress). Workloads: the equake DOACROSS loop
   of Table 3 and the first applu loops of the Table 2 suite — both
   resource-bound bodies with real memory-dependence grids. Each search
   walks its grid from the loop's C_delay floor, so the points below it,
   which cannot schedule, cost nothing. Emits BENCH_search.json:
   per-workload wall seconds (best of --repeat), attempts and
   attempts/sec, plus the pool size used. *)

let search_workloads () =
  let applu = Ts_workload.Spec_suite.find "applu" in
  [
    ("equake", Ts_workload.Doacross.equake.Ts_workload.Doacross.loops);
    ("applu", Ts_workload.Spec_suite.loops ~limit:8 applu);
  ]

(* One grid search finishes in milliseconds, so each measurement runs the
   sweep over [rounds] copies of the loop set — enough independent tasks
   to keep a 4-domain pool busy and lift wall time out of timer noise. *)
let search_rounds = 24

let search ~repeat ~out () =
  let params = Ts_isa.Spmt_params.default in
  let jobs = Ts_base.Parallel.get_jobs () in
  let time_once loops =
    let tasks =
      List.concat (List.init search_rounds (fun _ -> loops))
    in
    let t0 = Unix.gettimeofday () in
    let results =
      Ts_base.Parallel.map
        (fun g ->
          (* Fault point inside the timed window: an armed slow fault here
             (e.g. bench.search.task@*:slow5) shows up as a genuine
             wall-clock regression, which is how the --check gate's
             failure path is exercised. *)
          Ts_resil.Fault.guard "bench.search.task";
          Ts_tms.Tms.schedule_sweep ~params g)
        tasks
    in
    let wall = Unix.gettimeofday () -. t0 in
    let attempts =
      List.fold_left (fun a (r : Ts_tms.Tms.result) -> a + r.attempts) 0 results
    in
    (wall, attempts)
  in
  let best runs =
    List.fold_left (fun (bw, ba) (w, a) -> if w < bw then (w, a) else (bw, ba))
      (List.hd runs) (List.tl runs)
  in
  let bench_one (name, loops) =
    (* Warm once (fills no caches across runs — the search is pure — but
       pays domain-pool startup), then keep the best of [repeat]. *)
    ignore (time_once loops);
    let runs = List.init (max 1 repeat) (fun _ -> time_once loops) in
    let wall, attempts = best runs in
    let rate = float_of_int attempts /. wall in
    Printf.printf "  search:%-8s %8.4f s  %6d attempts  %10.0f attempts/s\n%!"
      name wall attempts rate;
    ( name,
      Ts_obs.Json.Obj
        [
          ("wall_s", Ts_obs.Json.Float wall);
          ("attempts", Ts_obs.Json.Int attempts);
          ("attempts_per_sec", Ts_obs.Json.Float rate);
          ("loops", Ts_obs.Json.Int (List.length loops));
        ] )
  in
  Printf.printf "TMS grid-search benchmark (jobs=%d, best of %d):\n%!" jobs repeat;
  let t0 = Unix.gettimeofday () in
  let rows = List.map bench_one (search_workloads ()) in
  let total = Unix.gettimeofday () -. t0 in
  let json =
    Ts_obs.Json.Obj
      [
        ("bench", Ts_obs.Json.Str "search");
        ("jobs", Ts_obs.Json.Int jobs);
        ("repeat", Ts_obs.Json.Int repeat);
        ("workloads", Ts_obs.Json.Obj rows);
        ("total_wall_s", Ts_obs.Json.Float total);
      ]
  in
  let oc = open_out out in
  output_string oc (Ts_obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n%!" out

(* ------------------------------------------------------------------ *)
(* The `sim` group: wall-clock the simulator on the Fig. 4 / Fig. 5
   regeneration workloads (each loop simulated under its SMS and TMS
   kernels at the drivers' trip and warmup), three ways:

     exact          the cycle-by-cycle simulator (fast path off)
     fast           the steady-state fast path (stats proven identical)
     cache cold/warm one full schedule+simulate regeneration into an
                    empty result store, then the same regeneration again

   Scheduling is done up front and not timed in the exact/fast legs, so
   their ratio is the simulator speedup alone. The exact and fast legs
   also report the minor-heap words their [Sim.run] calls allocate per
   simulated thread (warmup included), measured on the domain that runs
   each task. Emits BENCH_sim.json. *)

let sim_workloads ~limit () =
  let limit = Option.value limit ~default:3 in
  let fig4 =
    List.concat_map
      (fun (b : Ts_workload.Spec_suite.bench) ->
        List.map (fun g -> (g, b.trip)) (Ts_workload.Spec_suite.loops ~limit b))
      Ts_workload.Spec_suite.benchmarks
  in
  let fig5 =
    List.concat_map
      (fun (sel : Ts_workload.Doacross.selected) ->
        List.map (fun g -> (g, sel.trip)) sel.loops)
      Ts_workload.Doacross.all
  in
  [ ("fig4", fig4); ("fig5", fig5) ]

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let sim_bench ~limit ~repeat ~out () =
  let params = Ts_isa.Spmt_params.default in
  let cfg = Ts_spmt.Config.default in
  let warmup = Ts_harness.Defaults.warmup in
  let jobs = Ts_base.Parallel.get_jobs () in
  let groups = sim_workloads ~limit () in
  Printf.printf "simulator benchmark (jobs=%d, best of %d):\n%!" jobs repeat;
  (* Schedule everything once, untimed: the legs below time simulation. *)
  let scheduled =
    List.map
      (fun (name, loops) ->
        ( name,
          Ts_base.Parallel.map
            (fun ((g : Ts_ddg.Ddg.t), trip) ->
              ( g,
                trip,
                (Ts_sms.Sms.schedule g).Ts_sms.Sms.kernel,
                (Ts_tms.Tms.schedule_sweep ~params g).Ts_tms.Tms.kernel ))
            loops ))
      groups
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let time f = fst (timed f) in
  (* Best wall time of [repeat] passes after a warm-up one, with the
     first timed pass's result. *)
  let best f =
    ignore (f ());
    let runs = List.init (max 1 repeat) (fun _ -> timed f) in
    (List.fold_left (fun m (s, _) -> min m s) max_float runs, snd (List.hd runs))
  in
  (* One pass over [tasks]; returns the words per simulated thread its
     [Sim.run] calls allocated. *)
  let leg ~fast tasks () =
    let per_task =
      Ts_base.Parallel.map
        (fun ((g : Ts_ddg.Ddg.t), trip, sms_k, tms_k) ->
          (* Same trick as bench.search.task: a timed fault point so the
             regression gate can be demonstrated to fail. *)
          Ts_resil.Fault.guard "bench.sim.task";
          let plan = Ts_spmt.Address_plan.create g in
          let w0 = Gc.minor_words () in
          ignore (Ts_spmt.Sim.run ~plan ~warmup ~fast cfg sms_k ~trip);
          ignore (Ts_spmt.Sim.run ~plan ~warmup ~fast cfg tms_k ~trip);
          (Gc.minor_words () -. w0, 2 * (warmup + trip)))
        tasks
    in
    let words, threads =
      List.fold_left
        (fun (w, t) (w', t') -> (w +. w', t + t'))
        (0.0, 0) per_task
    in
    words /. float_of_int (max 1 threads)
  in
  let rows =
    List.map
      (fun (name, tasks) ->
        let exact_s, exact_wpt = best (leg ~fast:false tasks) in
        let fast_s, fast_wpt = best (leg ~fast:true tasks) in
        let speedup = exact_s /. fast_s in
        Printf.printf
          "  sim:%-6s %3d loops  exact %7.3f s  fast %7.3f s  speedup %4.2fx  \
           words/thread exact %.1f fast %.1f\n%!"
          name (List.length tasks) exact_s fast_s speedup exact_wpt fast_wpt;
        ( name,
          Ts_obs.Json.Obj
            [
              ("loops", Ts_obs.Json.Int (List.length tasks));
              ("exact_wall_s", Ts_obs.Json.Float exact_s);
              ("fast_wall_s", Ts_obs.Json.Float fast_s);
              ("speedup", Ts_obs.Json.Float speedup);
              ("exact_words_per_thread", Ts_obs.Json.Float exact_wpt);
              ("fast_words_per_thread", Ts_obs.Json.Float fast_wpt);
            ] ))
      scheduled
  in
  (* Cache legs: one full regeneration (schedules + simulations through
     the result store) cold, then again warm. Single-shot — a "best of"
     warm pass against a cold store would not be cold. *)
  let cache_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tsms-bench-cache-%d" (Unix.getpid ()))
  in
  rm_rf cache_dir;
  Ts_harness.Cached.set_store (Some (Ts_persist.open_store ~dir:cache_dir));
  let regen () =
    List.iter
      (fun (_, loops) ->
        ignore
          (Ts_base.Parallel.map
             (fun ((g : Ts_ddg.Ddg.t), trip) ->
               let r = Ts_harness.Suite.schedule_loop ~params g in
               let s =
                 Ts_harness.Cached.sim ~warmup cfg
                   r.Ts_harness.Suite.sms.Ts_sms.Sms.kernel ~trip
               in
               let t =
                 Ts_harness.Cached.sim ~warmup cfg
                   r.Ts_harness.Suite.tms.Ts_tms.Tms.kernel ~trip
               in
               s.Ts_spmt.Sim.cycles + t.Ts_spmt.Sim.cycles)
             loops))
      groups
  in
  let cold_s = time regen in
  let warm_s = time regen in
  Ts_harness.Cached.set_store None;
  rm_rf cache_dir;
  let ratio = warm_s /. cold_s in
  Printf.printf
    "  cache       regen cold %7.3f s  warm %7.3f s  warm/cold %4.1f%%\n%!"
    cold_s warm_s (100.0 *. ratio);
  let json =
    Ts_obs.Json.Obj
      [
        ("bench", Ts_obs.Json.Str "sim");
        ("jobs", Ts_obs.Json.Int jobs);
        ("repeat", Ts_obs.Json.Int repeat);
        ("warmup", Ts_obs.Json.Int warmup);
        ("workloads", Ts_obs.Json.Obj rows);
        ( "cache",
          Ts_obs.Json.Obj
            [
              ("cold_wall_s", Ts_obs.Json.Float cold_s);
              ("warm_wall_s", Ts_obs.Json.Float warm_s);
              ("warm_over_cold", Ts_obs.Json.Float ratio);
            ] );
      ]
  in
  let oc = open_out out in
  output_string oc (Ts_obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n%!" out

(* ------------------------------------------------------------------ *)
(* The `pool` group: the resident pool's run queue vs spawn-per-call on
   fine-grained tasks — the per-map overhead the pool removes.
   [spawn_map] replicates the pre-pool Parallel.map shape (Domain.spawn
   per call, one shared Atomic cursor); the pool side is Parallel.map
   itself. Both sides run the same workload and produce the same values;
   wall seconds are best of --repeat. Emits BENCH_pool.json. *)

let spawn_map jobs f xs =
  let input = Array.of_list xs in
  let n = Array.length input in
  let out = Array.make n 0 in
  if jobs <= 1 || n <= 1 then
    Array.iteri (fun i x -> out.(i) <- f x) input
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          out.(i) <- f input.(i);
          go ()
        end
      in
      go ()
    in
    let doms = List.init (min jobs n) (fun _ -> Domain.spawn worker) in
    List.iter Domain.join doms
  end;
  Array.to_list out

(* A fine-grained task: a few hundred integer ops, far below the cost of
   one Domain.spawn — the regime where per-call spawn overhead dominates
   and a resident pool pays off. *)
let pool_task seed =
  let x = ref seed in
  for _ = 1 to 200 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF
  done;
  !x

let pool_bench ~repeat ~out () =
  (* Force at least two domains so the spawn side actually spawns and the
     pool side actually crosses domains, whatever the default jobs. *)
  let jobs = max 2 (Ts_base.Parallel.get_jobs ()) in
  (* (name, parallel-map calls, tasks per call) *)
  let workloads = [ ("fine", 400, 16); ("wide", 100, 128) ] in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let best f =
    ignore (time f);
    List.fold_left min max_float (List.init (max 1 repeat) (fun _ -> time f))
  in
  Printf.printf "pool benchmark (jobs=%d, best of %d):\n%!" jobs repeat;
  let rows =
    List.map
      (fun (name, calls, tasks) ->
        let items = List.init tasks (fun i -> i) in
        let checksum m = List.fold_left ( + ) 0 (m pool_task items) in
        let expected = checksum (fun f xs -> List.map f xs) in
        let run m () =
          for _ = 1 to calls do
            if checksum m <> expected then failwith "pool bench: wrong result"
          done
        in
        let pool_s = best (run (fun f xs -> Ts_base.Parallel.map ~jobs f xs)) in
        let spawn_s = best (run (spawn_map jobs)) in
        let speedup = spawn_s /. pool_s in
        Printf.printf
          "  pool:%-6s %4d calls x %3d tasks  pool %7.4f s  spawn %7.4f s  \
           speedup %4.2fx\n\
           %!"
          name calls tasks pool_s spawn_s speedup;
        ( name,
          Ts_obs.Json.Obj
            [
              ("calls", Ts_obs.Json.Int calls);
              ("tasks_per_call", Ts_obs.Json.Int tasks);
              ("pool_wall_s", Ts_obs.Json.Float pool_s);
              ("spawn_wall_s", Ts_obs.Json.Float spawn_s);
              ("speedup", Ts_obs.Json.Float speedup);
            ] ))
      workloads
  in
  let json =
    Ts_obs.Json.Obj
      [
        ("bench", Ts_obs.Json.Str "pool");
        ("jobs", Ts_obs.Json.Int jobs);
        ("repeat", Ts_obs.Json.Int repeat);
        ("workloads", Ts_obs.Json.Obj rows);
      ]
  in
  let oc = open_out out in
  output_string oc (Ts_obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n%!" out

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per table/figure, timing the unit of
   work that experiment repeats (a schedule, a simulation, ...). *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let params = Ts_isa.Spmt_params.default in
  let cfg4 = Ts_spmt.Config.default in
  let motivating = Ts_workload.Motivating.ddg () in
  let swim = List.hd (Ts_workload.Spec_suite.loops (Ts_workload.Spec_suite.find "swim")) in
  let equake = List.hd Ts_workload.Doacross.equake.Ts_workload.Doacross.loops in
  let equake_kernel =
    (Ts_tms.Tms.schedule_sweep ~params equake).Ts_tms.Tms.kernel
  in
  let equake_sms = (Ts_sms.Sms.schedule equake).Ts_sms.Sms.kernel in
  let plan = Ts_spmt.Address_plan.create equake in
  let tests =
    [
      (* Table 1 is configuration only: time its pretty-printer. *)
      Test.make ~name:"table1:render-config"
        (Staged.stage (fun () ->
             ignore (Format.asprintf "%a" Ts_spmt.Config.pp Ts_spmt.Config.default)));
      (* Figure 2: SMS and TMS on the motivating example. *)
      Test.make ~name:"fig2:sms+tms-motivating"
        (Staged.stage (fun () ->
             ignore (Ts_sms.Sms.schedule motivating);
             ignore (Ts_tms.Tms.schedule_sweep ~params motivating)));
      (* Table 2's unit of work: scheduling one suite loop both ways. *)
      Test.make ~name:"table2:schedule-suite-loop"
        (Staged.stage (fun () ->
             ignore (Ts_sms.Sms.schedule swim);
             ignore (Ts_tms.Tms.schedule_sweep ~params swim)));
      (* Figure 4's unit of work: one SpMT simulation of a scheduled loop. *)
      Test.make ~name:"fig4:simulate-400-iters"
        (Staged.stage (fun () ->
             ignore (Ts_spmt.Sim.run ~plan cfg4 equake_kernel ~trip:400)));
      (* Table 3: DOACROSS analysis metrics. *)
      Test.make ~name:"table3:loop-metrics"
        (Staged.stage (fun () ->
             ignore (Ts_ddg.Mii.mii equake);
             ignore (Ts_ddg.Mii.ldp equake);
             ignore (Ts_ddg.Scc.count_non_trivial equake)));
      (* Figure 5: the single-threaded baseline simulation. *)
      Test.make ~name:"fig5:single-threaded-400-iters"
        (Staged.stage (fun () ->
             ignore (Ts_spmt.Single.run ~plan cfg4 equake ~trip:400)));
      (* Figure 6: stall/communication accounting (simulation + analysis). *)
      Test.make ~name:"fig6:sim-with-accounting"
        (Staged.stage (fun () ->
             let st = Ts_spmt.Sim.run ~plan cfg4 equake_sms ~trip:400 in
             ignore st.Ts_spmt.Sim.stall_breakdown));
      (* Ablation: TMS at P_max = 0 plus a synchronised-memory run. *)
      Test.make ~name:"ablation:nospec-schedule+sim"
        (Staged.stage (fun () ->
             let r = Ts_tms.Tms.schedule ~p_max:0.0 ~params equake in
             ignore
               (Ts_spmt.Sim.run ~plan ~sync_mem:true cfg4 r.Ts_tms.Tms.kernel
                  ~trip:400)));
    ]
  in
  let test = Test.make_grouped ~name:"tsms" ~fmt:"%s %s" tests in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~stabilize:false ()
    in
    let raw = Benchmark.all cfg instances test in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw) instances
    in
    Analyze.merge ols instances results
  in
  let results = benchmark () in
  (* Plain-text report: nanoseconds per run, OLS estimate. *)
  print_endline "Bechamel micro-benchmarks (monotonic clock, ns/run):";
  Hashtbl.iter
    (fun _ tbl ->
      let rows =
        Hashtbl.fold (fun name result acc -> (name, result) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      List.iter
        (fun (name, result) ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-40s %12.0f\n" name est
          | _ -> Printf.printf "  %-40s (no estimate)\n" name)
        rows)
    results

(* ------------------------------------------------------------------ *)

let () =
  (* Surface a malformed TSMS_JOBS or TSMS_FAULT_PLAN now, as a startup
     error, rather than as an uncaught exception mid-sweep. *)
  (try ignore (Ts_base.Parallel.env_jobs ())
   with Invalid_argument msg ->
     prerr_endline ("bench: " ^ msg);
     exit 2);
  (match Ts_resil.Fault.arm_from_env () with
  | Ok () -> ()
  | Error msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2);
  let args = Array.to_list Sys.argv |> List.tl in
  let limit = ref None in
  let repeat = ref 3 in
  let out = ref None in
  let names = ref [] in
  let check_dir = ref None in
  let check_tolerance = ref 1.5 in
  let metrics_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--limit" :: n :: rest ->
        (match int_of_string_opt n with
        | Some v when v > 0 -> limit := Some v
        | _ -> usage ());
        parse rest
    | "--jobs" :: n :: rest | "-j" :: n :: rest ->
        (match int_of_string_opt n with
        | Some v when v >= 1 -> Ts_base.Parallel.set_jobs v
        | _ -> usage ());
        parse rest
    | "--repeat" :: n :: rest ->
        (match int_of_string_opt n with
        | Some v when v >= 1 -> repeat := v
        | _ -> usage ());
        parse rest
    | "--out" :: path :: rest ->
        out := Some path;
        parse rest
    | "--fault-plan" :: s :: rest ->
        (match Ts_resil.Fault.parse s with
        | Ok plan -> Ts_resil.Fault.arm plan
        | Error msg ->
            prerr_endline ("bench: --fault-plan: " ^ msg);
            exit 2);
        parse rest
    | "--check" :: dir :: rest ->
        check_dir := Some dir;
        parse rest
    | "--check-tolerance" :: f :: rest ->
        (match float_of_string_opt f with
        | Some v when v >= 1.0 -> check_tolerance := v
        | _ -> usage ());
        parse rest
    | "--metrics-out" :: path :: rest ->
        metrics_out := Some path;
        parse rest
    | "--help" :: _ | "-h" :: _ -> usage ()
    | name :: rest ->
        names := name :: !names;
        parse rest
  in
  parse args;
  (* The groups that write a BENCH_<group>.json result file. *)
  let json_groups =
    [
      ("search", fun out -> search ~repeat:!repeat ~out ());
      ("sim", fun out -> sim_bench ~limit:!limit ~repeat:!repeat ~out ());
      ("pool", fun out -> pool_bench ~repeat:!repeat ~out ());
    ]
  in
  let names =
    match List.rev !names with
    | [] when !check_dir <> None -> List.map fst json_groups
    | [] -> usage ()
    | ns -> ns
  in
  if not (List.for_all (fun n -> n = "micro" || List.mem_assoc n json_groups) names)
  then usage ();
  (* One --out path cannot hold two groups' results: the second would
     overwrite the first and --check would then miss its leaves. *)
  if
    !out <> None
    && List.length (List.filter (fun n -> List.mem_assoc n json_groups) names) > 1
  then begin
    prerr_endline "bench: --out names one file; give it with a single group";
    exit 2
  end;
  (* Fresh result files produced this run, by group — the check step
     below compares each against the committed baseline of the same
     name. *)
  let written =
    List.filter_map
      (fun name ->
        match List.assoc_opt name json_groups with
        | None ->
            micro ();
            None
        | Some run ->
            let out = Option.value !out ~default:("BENCH_" ^ name ^ ".json") in
            run out;
            Some (name, out))
      names
  in
  (match !metrics_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc
        (Ts_obs.Json.to_string (Ts_obs.Metrics.to_json Ts_obs.Metrics.default));
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "  wrote %s\n%!" path);
  (match !check_dir with
  | None -> ()
  | Some dir ->
      let read_json what path =
        let contents =
          try
            let ic = open_in_bin path in
            let n = in_channel_length ic in
            let s = really_input_string ic n in
            close_in ic;
            s
          with Sys_error msg ->
            Printf.eprintf "bench --check: cannot read %s for %s: %s\n%!" path
              what msg;
            exit 1
        in
        match Ts_obs.Json.parse contents with
        | Ok j -> j
        | Error msg ->
            Printf.eprintf "bench --check: %s: malformed JSON: %s\n%!" path msg;
            exit 1
      in
      let outcomes =
        List.map
          (fun (group, fresh_path) ->
            let base_path =
              Filename.concat dir ("BENCH_" ^ group ^ ".json")
            in
            let outcome =
              Ts_harness.Regress.compare_json ~what:group
                ~tolerance:!check_tolerance
                ~baseline:(read_json "baseline" base_path)
                ~fresh:(read_json "fresh results" fresh_path)
            in
            print_string (Ts_harness.Regress.render outcome);
            print_newline ();
            outcome)
          written
      in
      if outcomes = [] then begin
        Printf.eprintf
          "bench --check: nothing to check (run the search/sim groups)\n%!";
        exit 1
      end;
      let bad = List.filter (fun o -> not (Ts_harness.Regress.ok o)) outcomes in
      if bad <> [] then begin
        List.iter
          (fun (o : Ts_harness.Regress.outcome) ->
            (match o.Ts_harness.Regress.missing with
            | [] -> ()
            | ms ->
                Printf.eprintf
                  "bench --check: %s: %d baseline metric(s) missing from the \
                   fresh run (%s)\n%!"
                  o.Ts_harness.Regress.what (List.length ms)
                  (String.concat ", " ms));
            match Ts_harness.Regress.worst o with
            | Some w when not w.Ts_harness.Regress.ok ->
                Printf.eprintf
                  "bench --check: REGRESSION in %s: %s is %.2fx baseline \
                   (%.4g s vs %.4g s, tolerance %.2fx)\n%!"
                  o.Ts_harness.Regress.what w.Ts_harness.Regress.path
                  w.Ts_harness.Regress.ratio w.Ts_harness.Regress.fresh
                  w.Ts_harness.Regress.baseline o.Ts_harness.Regress.tolerance
            | _ -> ())
          bad;
        exit 1
      end;
      Printf.printf "bench --check: PASS (tolerance %.2fx, baseline %s)\n%!"
        !check_tolerance dir)
