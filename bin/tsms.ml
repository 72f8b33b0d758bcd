(* tsms — command-line front end.

   Subcommands:
     schedule    run SMS and TMS on a .ddg loop and print both kernels
     simulate    schedule a .ddg loop and simulate it on the SpMT machine
     compare     all four schedulers plus the single core, one table
     dot         emit Graphviz for a .ddg loop
     suite       print scheduling statistics for a synthetic benchmark
     check       differential-fuzz the schedulers, checker and simulator
     experiments regenerate the paper's tables and figures
     serve       long-running scheduler-as-a-service daemon (ts_serve)
     client      send one request to a running serve daemon *)

open Cmdliner

let read_loop path =
  try Ok (Ts_ddg.Parse.of_file path) with
  | Ts_ddg.Parse.Error (ln, msg) ->
      Error (Printf.sprintf "%s:%d: %s" path ln msg)
  | Sys_error msg -> Error msg

let loop_arg =
  let doc = "Loop description in the .ddg format (see Ts_ddg.Parse)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"LOOP.ddg" ~doc)

(* --cores accepts either a bare core count or a heterogeneous mix; both
   are validated (1..max_ncore) at parse time so a bad value is a CLI
   error, not a library exception later. *)
let mix_conv =
  let parse s =
    match Ts_isa.Spmt_params.mix_of_string s with
    | Ok m -> Ok m
    | Error e -> Error (`Msg e)
  in
  let print ppf m =
    Format.pp_print_string ppf
      (Ts_isa.Spmt_params.mix_to_string
         (Ts_isa.Spmt_params.apply_mix Ts_isa.Spmt_params.default m))
  in
  Arg.conv (parse, print) ~docv:"MIX"

let ncore_arg =
  let doc =
    "SpMT machine: a core count (e.g. $(b,4)) or a heterogeneous mix of \
     '+'-separated groups of $(b,fast)/$(b,slow) cores in ring order (e.g. \
     $(b,2fast+2slow), $(b,fast+3slow)). At most 64 cores."
  in
  Arg.(value & opt mix_conv (4, [||]) & info [ "cores" ] ~docv:"MIX" ~doc)

let placement_conv =
  let parse s =
    match Ts_isa.Placement.policy_of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown placement policy %S (expected round-robin, locality \
                or sync)"
               s))
  in
  Arg.conv (parse, Ts_isa.Placement.pp_policy) ~docv:"POLICY"

let placement_arg =
  let doc =
    "Thread-to-core allocation policy: $(b,round-robin) (the paper's thread \
     j on core j mod N), $(b,locality) (weighted ring walk that loads fast \
     cores harder on asymmetric mixes) or $(b,sync) (round-robin over the \
     fastest tier only). All three coincide on homogeneous machines."
  in
  Arg.(
    value
    & opt placement_conv Ts_isa.Placement.Round_robin
    & info [ "placement" ] ~docv:"POLICY" ~doc)

(* Print the compiled thread→core map — but only when it differs from the
   paper's machine, keeping the default homogeneous round-robin output
   byte-identical to what it always was. *)
let print_placement placement (params : Ts_isa.Spmt_params.t) =
  if
    placement <> Ts_isa.Placement.Round_robin
    || Ts_isa.Spmt_params.heterogeneous params
  then
    Printf.printf "placement %s\n"
      (Ts_isa.Placement.describe (Ts_isa.Placement.make placement params))

let p_max_arg =
  let doc = "Misspeculation threshold P_max for TMS (0..1)." in
  Arg.(value & opt (some float) None & info [ "p-max" ] ~docv:"P" ~doc)

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("tsms: " ^ msg);
      exit 1

(* --- Parallelism flag shared across subcommands --- *)

let jobs_arg =
  let doc =
    "Worker domains for the parallel sweeps (per-P_max TMS searches, \
     per-loop harness tasks). Defaults to the \
     $(b,TSMS_JOBS) environment variable, else to the machine's \
     recommended domain count minus one. Results are identical at every \
     jobs level; $(docv)=1 disables the pool."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let apply_jobs = function
  | None -> (
      (* Surface a malformed TSMS_JOBS now, as a CLI error, rather than as
         an uncaught exception from the first parallel map. *)
      try ignore (Ts_base.Parallel.env_jobs ())
      with Invalid_argument msg ->
        prerr_endline ("tsms: " ^ msg);
        exit 1)
  | Some n ->
      if n < 1 then begin
        prerr_endline "tsms: --jobs must be >= 1";
        exit 1
      end;
      Ts_base.Parallel.set_jobs n

(* --- Result-cache flags shared by the sweep subcommands --- *)

let cache_dir_arg =
  let doc =
    "Root of the persistent result cache (schedules and steady-state \
     simulations, keyed by loop + configuration content). Defaults to \
     $(b,TSMS_CACHE_DIR), else $(b,XDG_CACHE_HOME)/tsms, else \
     ~/.cache/tsms. A killed sweep resumes by rerunning it on the same \
     store: only the results it had not finished are recomputed."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let no_cache_arg =
  let doc = "Disable the persistent result cache (recompute everything)." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let apply_cache ~no_cache ~dir =
  if no_cache then Ts_harness.Cached.set_store None
  else begin
    let dir =
      match dir with Some d -> d | None -> Ts_persist.default_dir ()
    in
    match Ts_persist.open_store ~dir with
    | s -> Ts_harness.Cached.set_store (Some s)
    | exception e ->
        (* An unopenable cache costs speed, never the run: degrade to
           uncached with one warning. *)
        Ts_obs.Metrics.incr
          (Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.degraded");
        Ts_resil.Warn.once ~key:"cli.cache"
          (Printf.sprintf
             "cannot open cache directory %s (%s); continuing uncached" dir
             (Printexc.to_string e));
        Ts_harness.Cached.set_store None
  end

(* --- Resilience flags shared by the sweep subcommands --- *)

let keep_going_arg =
  let doc =
    "Let a sweep record per-loop failures and finish the remaining loops. \
     The failed loops are summarised on stderr at the end and the exit \
     status is non-zero; the surviving numbers are identical to what a \
     fault-free run would report for them."
  in
  Arg.(value & flag & info [ "keep-going" ] ~doc)

let max_retries_arg =
  let doc =
    "Retry a failed sweep task up to $(docv) extra times, with \
     deterministic exponential backoff (100 ms base)."
  in
  Arg.(value & opt int 0 & info [ "max-retries" ] ~docv:"N" ~doc)

let task_timeout_arg =
  let doc =
    "Soft per-task deadline in milliseconds: a sweep task that runs longer \
     is reported (one warning and the supervise.deadline_exceeded metric) \
     but its result is kept — hard enforcement would make results \
     timing-dependent."
  in
  Arg.(value & opt (some int) None & info [ "task-timeout" ] ~docv:"MS" ~doc)

let fault_plan_arg =
  let doc =
    "Arm a deterministic fault-injection plan to exercise the failure \
     paths (see Ts_resil.Fault for the format, e.g. \
     $(b,persist.write@*,worker@3)). Also read from $(b,TSMS_FAULT_PLAN)."
  in
  Arg.(value & opt (some string) None & info [ "fault-plan" ] ~docv:"PLAN" ~doc)

let apply_resil ~keep_going ~max_retries ~task_timeout ~fault_plan =
  if max_retries < 0 then begin
    prerr_endline "tsms: --max-retries must be >= 0";
    exit 1
  end;
  Ts_resil.Supervise.set_keep_going keep_going;
  Ts_resil.Supervise.set_policy
    {
      Ts_resil.Supervise.default_policy with
      max_retries;
      deadline_ms = task_timeout;
    };
  match fault_plan with
  | Some s -> (
      match Ts_resil.Fault.parse s with
      | Ok plan -> Ts_resil.Fault.arm plan
      | Error msg ->
          prerr_endline ("tsms: --fault-plan: " ^ msg);
          exit 1)
  | None -> (
      match Ts_resil.Fault.arm_from_env () with
      | Ok () -> ()
      | Error msg ->
          prerr_endline ("tsms: " ^ msg);
          exit 1)

(* --- Observability flags shared across subcommands --- *)

let metrics_arg =
  let fmt = Arg.enum [ ("table", `Table); ("json", `Json) ] in
  let doc =
    "After the subcommand finishes, dump the metrics registry (scheduler \
     attempts, slot rejections, simulator totals) to stdout as $(docv): \
     $(b,table) or $(b,json)."
  in
  Arg.(value & opt (some fmt) None & info [ "metrics" ] ~docv:"FMT" ~doc)

let metrics_out_arg =
  let doc =
    "Write a JSON snapshot of the metrics registry to $(docv) when the \
     subcommand finishes (on the failure path too). Independent of \
     $(b,--metrics), which prints to stdout."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let profile_arg =
  let fmt = Arg.enum [ ("table", `Table); ("json", `Json) ] in
  let doc =
    "Enable the span profiler and print a phase report ($(b,table) or \
     $(b,json)) when the subcommand finishes: per-span calls, total and \
     self wall-time, allocation and GC counts (see Ts_obs.Prof)."
  in
  Arg.(value & opt (some fmt) None & info [ "profile" ] ~docv:"FMT" ~doc)

let profile_out_arg =
  let doc =
    "Write the profile report to $(docv) instead of stdout (implies \
     profiling; format defaults to json unless $(b,--profile table))."
  in
  Arg.(value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Print a throttled heartbeat line to stderr while a sweep runs: \
     done/total, elapsed, ETA, cache hit-rate, retry and failure counts."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

type obs = {
  metrics : [ `Table | `Json ] option;
  metrics_out : string option;
  profile : [ `Table | `Json ] option;
  profile_out : string option;
  progress : bool;
}

let obs_term =
  let mk metrics metrics_out profile profile_out progress =
    { metrics; metrics_out; profile; profile_out; progress }
  in
  Term.(
    const mk $ metrics_arg $ metrics_out_arg $ profile_arg $ profile_out_arg
    $ progress_arg)

let apply_obs obs =
  Ts_obs.Progress.set_enabled obs.progress;
  if obs.profile <> None || obs.profile_out <> None then
    Ts_obs.Prof.set_enabled true

let dump_metrics = function
  | None -> ()
  | Some `Table ->
      print_newline ();
      print_string (Ts_obs.Metrics.render_table Ts_obs.Metrics.default)
  | Some `Json ->
      print_endline
        (Ts_obs.Json.to_string (Ts_obs.Metrics.to_json Ts_obs.Metrics.default))

let write_file path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* Telemetry dump shared by every exit path. File-writing problems are
   reported but never mask the run's own outcome. *)
let dump_obs obs =
  dump_metrics obs.metrics;
  (match obs.metrics_out with
  | None -> ()
  | Some path -> (
      try
        write_file path
          (Ts_obs.Json.to_string (Ts_obs.Metrics.to_json Ts_obs.Metrics.default)
          ^ "\n")
      with Sys_error msg -> prerr_endline ("tsms: --metrics-out: " ^ msg)));
  if obs.profile <> None || obs.profile_out <> None then begin
    let r = Ts_obs.Prof.report () in
    let fmt = match obs.profile with Some f -> f | None -> `Json in
    let s =
      match fmt with
      | `Table -> Ts_obs.Prof.render_table r
      | `Json -> Ts_obs.Json.to_string (Ts_obs.Prof.to_json r) ^ "\n"
    in
    match obs.profile_out with
    | Some path -> (
        try write_file path s
        with Sys_error msg -> prerr_endline ("tsms: --profile-out: " ^ msg))
    | None ->
        print_newline ();
        print_string s
  end

(* Run a subcommand body under the supervision contract: without
   --keep-going a sweep failure aborts with the aggregated per-task
   summary; with it the body finishes, the summary follows the output,
   and the exit status is non-zero. The telemetry (metrics, profile,
   --metrics-out snapshot) is dumped on every path — including arbitrary
   exceptions, where a crashed run would otherwise lose exactly the
   counters that explain the crash. *)
let supervised ~obs f =
  (match f () with
  | () -> ()
  | exception e -> (
      dump_obs obs;
      match Ts_resil.Supervise.failures_of_exn e with
      | None -> raise e
      | Some fs ->
          prerr_string (Ts_resil.Supervise.render_failures fs);
          exit 1));
  dump_obs obs;
  match Ts_resil.Supervise.summary () with
  | None -> ()
  | Some s ->
      prerr_string s;
      exit 1

(* Invalid_argument from the libraries (e.g. an invalid --trace combination)
   and Sys_error (e.g. an unwritable --trace path) are user errors, not
   internal ones. *)
let or_invalid f =
  try f ()
  with Invalid_argument msg | Sys_error msg ->
    prerr_endline ("tsms: " ^ msg);
    exit 1

(* Open a tracer for [path] (or the null sink), run [f], always close. *)
let with_trace ?format path f =
  let trace =
    match path with
    | None -> Ts_obs.Trace.null
    | Some path -> Ts_obs.Trace.to_file ?format path
  in
  Fun.protect ~finally:(fun () -> Ts_obs.Trace.close trace) (fun () -> f trace)

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON file of the simulated execution to \
     $(docv) (open in Perfetto or chrome://tracing): per-core exec/commit \
     spans, squash and sync-stall instant events, sampled MDT/write-buffer \
     occupancy."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let print_kernel tag (k : Ts_modsched.Kernel.t) ~c_reg_com =
  Format.printf "%s %a" tag Ts_modsched.Kernel.pp k;
  Printf.printf
    "%s: II=%d, stages=%d, MaxLive=%d, C_delay=%d, copies=%d, SEND/RECV pairs/iter=%d\n\n"
    tag k.Ts_modsched.Kernel.ii k.Ts_modsched.Kernel.n_stages
    (Ts_modsched.Kernel.max_live k)
    (Ts_modsched.Kernel.c_delay k ~c_reg_com)
    (Ts_modsched.Kernel.copies_needed k)
    (Ts_modsched.Kernel.send_recv_pairs_per_iter k)

let code_arg =
  let doc = "Also print the generated thread program (SEND/RECV/copies)." in
  Arg.(value & flag & info [ "code" ] ~doc)

let unroll_arg =
  let doc = "Unroll the loop body this many times before scheduling." in
  Arg.(value & opt int 1 & info [ "unroll" ] ~docv:"K" ~doc)

let schedule_cmd =
  let search_log_arg =
    let doc =
      "Write a JSONL log of the TMS search to $(docv): one tms.attempt event \
       per (II, C_delay) point tried, plus SMS phase spans and the final \
       tms.result event."
    in
    Arg.(value & opt (some string) None & info [ "search-log" ] ~docv:"FILE" ~doc)
  in
  let run jobs loop mix placement p_max code unroll search_log obs =
    apply_jobs jobs;
    apply_obs obs;
    let g = or_die (read_loop loop) in
    let g = if unroll > 1 then Ts_ddg.Unroll.by g ~factor:unroll else g in
    let params = Ts_isa.Spmt_params.apply_mix Ts_isa.Spmt_params.default mix in
    print_placement placement params;
    Printf.printf "loop %s: %d instructions, ResII=%d, RecII=%d, MII=%d, LDP=%d, SCCs=%d\n\n"
      g.Ts_ddg.Ddg.name (Ts_ddg.Ddg.n_nodes g) (Ts_ddg.Mii.res_ii g)
      (Ts_ddg.Mii.rec_ii g) (Ts_ddg.Mii.mii g) (Ts_ddg.Mii.ldp g)
      (Ts_ddg.Scc.count_non_trivial g);
    or_invalid @@ fun () ->
    supervised ~obs @@ fun () ->
    with_trace ~format:Ts_obs.Trace.Jsonl search_log (fun trace ->
        let sms = Ts_sms.Sms.schedule ~trace g in
        print_kernel "SMS" sms.Ts_sms.Sms.kernel ~c_reg_com:params.c_reg_com;
        let tms =
          match p_max with
          | Some p -> Ts_tms.Tms.schedule ~trace ~placement ~p_max:p ~params g
          | None -> Ts_tms.Tms.schedule_sweep ~trace ~placement ~params g
        in
        print_kernel "TMS" tms.Ts_tms.Tms.kernel ~c_reg_com:params.c_reg_com;
        Printf.printf
          "TMS search: P_max=%g, F_min=%.2f, threshold C_delay=%d, misspec P_M=%.4f, %d attempts%s\n"
          tms.Ts_tms.Tms.p_max tms.Ts_tms.Tms.f_min tms.Ts_tms.Tms.c_delay_threshold
          tms.Ts_tms.Tms.misspec tms.Ts_tms.Tms.attempts
          (if tms.Ts_tms.Tms.fell_back then " (fell back to SMS)" else "");
        if code then begin
          print_newline ();
          Format.printf "%a" Ts_modsched.Codegen.pp
            (Ts_modsched.Codegen.of_kernel tms.Ts_tms.Tms.kernel)
        end)
  in
  let doc = "Schedule a loop with SMS and TMS and print both kernels." in
  Cmd.v (Cmd.info "schedule" ~doc)
    Term.(
      const run $ jobs_arg $ loop_arg $ ncore_arg $ placement_arg $ p_max_arg
      $ code_arg $ unroll_arg $ search_log_arg $ obs_term)

let simulate_cmd =
  let trip_arg =
    Arg.(value & opt int 2000 & info [ "trip" ] ~docv:"N" ~doc:"Iterations to simulate.")
  in
  let warmup_arg =
    (* The one shared warm-up constant (Ts_harness.Defaults.warmup): the
       CLI, the serve protocol and the harness drivers must all default
       to the same warmed measurement. *)
    Arg.(value & opt int Ts_harness.Defaults.warmup
         & info [ "warmup" ] ~docv:"N" ~doc:"Warmup iterations excluded from the numbers.")
  in
  let timeline_arg =
    Arg.(value & flag & info [ "timeline" ] ~doc:"Draw an ASCII execution timeline of the TMS run.")
  in
  let run jobs loop mix placement trip warmup timeline trace_file obs =
    apply_jobs jobs;
    apply_obs obs;
    let g = or_die (read_loop loop) in
    let params = Ts_isa.Spmt_params.apply_mix Ts_isa.Spmt_params.default mix in
    let cfg =
      Ts_spmt.Config.with_placement
        { Ts_spmt.Config.default with params }
        placement
    in
    let ncore = params.Ts_isa.Spmt_params.ncore in
    or_invalid @@ fun () ->
    supervised ~obs @@ fun () ->
    let plan = Ts_spmt.Address_plan.create g in
    let sms = Ts_sms.Sms.schedule g in
    let tms = Ts_tms.Tms.schedule_sweep ~placement ~params g in
    let report tag (st : Ts_spmt.Sim.stats) =
      Printf.printf
        "%-6s %8d cycles (%6.2f/iter)  sync stalls %7d  SEND/RECV %6d  squashes %4d (%.3f%%)\n"
        tag st.cycles
        (float_of_int st.cycles /. float_of_int trip)
        st.sync_stall_cycles st.send_recv_pairs st.squashes
        (st.misspec_rate *. 100.0)
    in
    Printf.printf "simulating %s for %d iterations on %d cores (warmup %d):\n"
      g.Ts_ddg.Ddg.name trip ncore warmup;
    print_placement placement params;
    with_trace trace_file (fun trace ->
        (* One trace process per scheduler variant, one track per core. *)
        if Ts_obs.Trace.enabled trace then begin
          Ts_obs.Trace.process_name trace ~pid:0 "SMS";
          Ts_obs.Trace.process_name trace ~pid:1 "TMS"
        end;
        report "SMS"
          (Ts_spmt.Sim.run ~plan ~warmup ~trace ~trace_pid:0 cfg
             sms.Ts_sms.Sms.kernel ~trip);
        report "TMS"
          (Ts_spmt.Sim.run ~plan ~warmup ~trace ~trace_pid:1 cfg
             tms.Ts_tms.Tms.kernel ~trip));
    let single = Ts_spmt.Single.run ~plan ~warmup cfg g ~trip in
    Printf.printf "%-6s %8d cycles (%6.2f/iter)\n" "1T" single.Ts_spmt.Single.cycles
      (float_of_int single.Ts_spmt.Single.cycles /. float_of_int trip);
    if timeline then begin
      print_newline ();
      let tl =
        Ts_spmt.Timeline.collect ~n_threads:(4 * ncore) ~warmup:(min warmup 512)
          cfg tms.Ts_tms.Tms.kernel
      in
      print_string (Ts_spmt.Timeline.render ~ncore tl)
    end
  in
  let doc = "Schedule a loop and simulate SMS/TMS/single-threaded execution." in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ jobs_arg $ loop_arg $ ncore_arg $ placement_arg $ trip_arg
      $ warmup_arg $ timeline_arg $ trace_arg $ obs_term)

let dot_cmd =
  let run loop =
    let g = or_die (read_loop loop) in
    print_string (Ts_ddg.Dot.to_string g)
  in
  let doc = "Emit Graphviz DOT for a loop's data dependence graph." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ loop_arg)

let limit_arg =
  let doc = "Loops per benchmark in the suite pass (table2/fig4)." in
  Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc)

let suite_cmd =
  let bench_arg =
    let doc = "Benchmark name (wupwise, swim, ... apsi) or 'all'." in
    Arg.(value & pos 0 string "all" & info [] ~docv:"BENCH" ~doc)
  in
  let run jobs bench limit cache_dir no_cache keep_going max_retries
      task_timeout fault_plan obs =
    apply_jobs jobs;
    apply_obs obs;
    apply_cache ~no_cache ~dir:cache_dir;
    apply_resil ~keep_going ~max_retries ~task_timeout ~fault_plan;
    let cfg = Ts_spmt.Config.default in
    let benches =
      if bench = "all" then Ts_workload.Spec_suite.benchmarks
      else
        match Ts_workload.Spec_suite.find bench with
        | b -> [ b ]
        | exception Not_found ->
            prerr_endline ("tsms: unknown benchmark " ^ bench);
            exit 1
    in
    supervised ~obs (fun () ->
        Ts_harness.Suite.compute ?limit ~benches ~cfg ()
        |> Ts_harness.Table2.compute ~params:cfg.params
        |> Ts_harness.Table2.render |> print_string)
  in
  let doc = "Schedule and simulate a benchmark's loops and print Table 2 rows." in
  Cmd.v (Cmd.info "suite" ~doc)
    Term.(
      const run $ jobs_arg $ bench_arg $ limit_arg $ cache_dir_arg
      $ no_cache_arg $ keep_going_arg $ max_retries_arg $ task_timeout_arg
      $ fault_plan_arg $ obs_term)

let compare_cmd =
  let run jobs loop mix placement trace_file obs =
    apply_jobs jobs;
    apply_obs obs;
    let g = or_die (read_loop loop) in
    let params = Ts_isa.Spmt_params.apply_mix Ts_isa.Spmt_params.default mix in
    let cfg =
      Ts_spmt.Config.with_placement
        { Ts_spmt.Config.default with params }
        placement
    in
    let ncore = params.Ts_isa.Spmt_params.ncore in
    let plan = Ts_spmt.Address_plan.create g in
    let trip = 2000 and warmup = 512 in
    let variants =
      [
        ("sms", (Ts_sms.Sms.schedule g).Ts_sms.Sms.kernel);
        ("ims", (Ts_sms.Ims.schedule g).Ts_sms.Ims.kernel);
        ( "ts-sms",
          (Ts_tms.Tms.schedule_sweep ~placement ~params g).Ts_tms.Tms.kernel );
        ( "ts-ims",
          (Ts_tms.Tms_ims.schedule ~placement ~params g).Ts_tms.Tms.kernel );
      ]
    in
    print_placement placement params;
    let open Ts_base.Tablefmt in
    let t =
      create
        ~title:(Printf.sprintf "%s on %d cores, %d iterations" g.Ts_ddg.Ddg.name ncore trip)
        [ ("scheduler", Left); ("II", Right); ("C_delay", Right); ("MaxLive", Right);
          ("cycles/iter", Right); ("sync stalls", Right); ("misspec", Right) ]
    in
    or_invalid @@ fun () ->
    supervised ~obs @@ fun () ->
    with_trace trace_file (fun trace ->
        List.iteri
          (fun i (name, k) ->
            if Ts_obs.Trace.enabled trace then
              Ts_obs.Trace.process_name trace ~pid:i name;
            let st = Ts_spmt.Sim.run ~plan ~warmup ~trace ~trace_pid:i cfg k ~trip in
            add_row t
              [ name; cell_int k.Ts_modsched.Kernel.ii;
                cell_int (Ts_modsched.Kernel.c_delay k ~c_reg_com:params.c_reg_com);
                cell_int (Ts_modsched.Kernel.max_live k);
                cell_f2 (float_of_int st.Ts_spmt.Sim.cycles /. float_of_int trip);
                cell_int st.Ts_spmt.Sim.sync_stall_cycles;
                Printf.sprintf "%.3f%%" (st.Ts_spmt.Sim.misspec_rate *. 100.0) ])
          variants);
    let single = Ts_spmt.Single.run ~plan ~warmup cfg g ~trip in
    add_sep t;
    add_row t
      [ "1-core"; "-"; "-"; "-";
        cell_f2 (float_of_int single.Ts_spmt.Single.cycles /. float_of_int trip);
        "-"; "-" ];
    print t
  in
  let doc = "Compare all four schedulers (and the single core) on one loop." in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(
      const run $ jobs_arg $ loop_arg $ ncore_arg $ placement_arg $ trace_arg
      $ obs_term)

let check_cmd =
  let seeds_arg =
    Arg.(value & opt int Ts_fuzz.Fuzz.default_config.seeds
         & info [ "seeds" ] ~docv:"N" ~doc:"Fuzz seeds to run (0 .. N-1).")
  in
  let trip_arg =
    Arg.(value & opt int Ts_fuzz.Fuzz.default_config.trip
         & info [ "trip" ] ~docv:"N" ~doc:"Measured iterations per simulation.")
  in
  let warmup_arg =
    Arg.(value & opt int Ts_fuzz.Fuzz.default_config.warmup
         & info [ "warmup" ] ~docv:"N" ~doc:"Warmup iterations per simulation.")
  in
  let out_arg =
    let doc =
      "Directory to write the shrunken counterexample into (as \
       $(b,counterexample-SEED.ddg), replayable with the other \
       subcommands) when the sweep fails."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let run jobs seeds trip warmup out obs =
    apply_jobs jobs;
    apply_obs obs;
    if seeds < 1 then begin
      prerr_endline "tsms: --seeds must be >= 1";
      exit 1
    end;
    let cfg = { Ts_fuzz.Fuzz.default_config with seeds; trip; warmup } in
    let t0 = Unix.gettimeofday () in
    let result =
      or_invalid (fun () ->
          Ts_fuzz.Fuzz.run ~log:(fun line -> Printf.printf "[check] %s\n%!" line) cfg)
    in
    let dt = Unix.gettimeofday () -. t0 in
    (match result with
    | None ->
        Printf.printf
          "[check] PASS: %d seeds x %d machine points clean in %.1fs\n" seeds
          (List.length cfg.points) dt
    | Some f ->
        Format.printf "%a@." Ts_fuzz.Fuzz.pp_failure f;
        (match (out, f.ddg) with
        | Some dir, Some g ->
            let path =
              Filename.concat dir (Printf.sprintf "counterexample-%d.ddg" f.seed)
            in
            (try
               if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
               let oc = open_out path in
               output_string oc (Ts_ddg.Parse.to_string g);
               close_out oc;
               Printf.printf "[check] counterexample written to %s\n" path
             with Sys_error msg ->
               prerr_endline ("tsms: cannot write counterexample: " ^ msg))
        | _ -> ());
        dump_obs obs;
        exit 1);
    dump_obs obs
  in
  let doc =
    "Differential fuzzing of the schedulers, the checker and the simulator: \
     generated loops are scheduled with SMS/TMS/TMS-IMS across machine \
     points, every kernel is re-validated from first principles (C1/C2 \
     included), simulated with runtime invariants mirrored against naive \
     reference models, and compared to the analytic cost model. A failure \
     is shrunk to a minimal .ddg counterexample."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ jobs_arg $ seeds_arg $ trip_arg $ warmup_arg $ out_arg $ obs_term)

let experiments_cmd =
  let names_arg =
    let doc =
      "Experiments to run: table1 fig2 table2 fig4 table3 fig5 fig6 ablation \
       unroll schedulers scaling hetero, or 'all'."
    in
    Arg.(value & pos_all string [ "all" ] & info [] ~docv:"NAME" ~doc)
  in
  let run jobs names limit cache_dir no_cache keep_going max_retries
      task_timeout fault_plan obs =
    apply_jobs jobs;
    apply_obs obs;
    apply_cache ~no_cache ~dir:cache_dir;
    apply_resil ~keep_going ~max_retries ~task_timeout ~fault_plan;
    supervised ~obs (fun () ->
        try
          Ts_harness.Experiments.run ?limit ~names (fun block ->
              print_string block;
              print_newline ())
        with Invalid_argument msg ->
          prerr_endline ("tsms: " ^ msg);
          exit 1)
  in
  let doc = "Regenerate the paper's tables and figures." in
  Cmd.v (Cmd.info "experiments" ~doc)
    Term.(
      const run $ jobs_arg $ names_arg $ limit_arg $ cache_dir_arg
      $ no_cache_arg $ keep_going_arg $ max_retries_arg $ task_timeout_arg
      $ fault_plan_arg $ obs_term)

(* --- serve / client ------------------------------------------------- *)

let default_listen = "tcp:127.0.0.1:7433"

let addr_conv what s =
  match Ts_serve.Server.addr_of_string s with
  | Ok a -> a
  | Error msg ->
      prerr_endline (Printf.sprintf "tsms: %s: %s" what msg);
      exit 1

let serve_cmd =
  let listen_arg =
    let doc =
      "Address to listen on: $(b,unix:PATH), $(b,tcp:HOST:PORT), \
       $(b,HOST:PORT) or a bare port number (loopback). Port 0 binds an \
       ephemeral port and prints it."
    in
    Arg.(value & opt string default_listen & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let max_inflight_arg =
    let doc =
      "Compute requests executing concurrently on the worker pool. 0 \
       (the default) means the pool's job count ($(b,--jobs))."
    in
    Arg.(value & opt int 0 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let queue_depth_arg =
    let doc =
      "Requests allowed to wait beyond $(b,--max-inflight); anything \
       past that is answered immediately with a $(b,shed_load) error."
    in
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N" ~doc)
  in
  let lru_entries_arg =
    let doc =
      "Capacity (entries) of the in-memory LRU in front of the on-disk \
       result cache; repeat requests are served without touching the \
       filesystem. 0 disables it."
    in
    Arg.(value & opt int 256 & info [ "lru-entries" ] ~docv:"N" ~doc)
  in
  let run jobs listen max_inflight queue_depth lru_entries cache_dir no_cache
      keep_going max_retries task_timeout fault_plan obs =
    apply_jobs jobs;
    apply_obs obs;
    apply_cache ~no_cache ~dir:cache_dir;
    apply_resil ~keep_going ~max_retries ~task_timeout ~fault_plan;
    Ts_harness.Cached.set_lru (if lru_entries > 0 then Some lru_entries else None);
    let addr = addr_conv "--listen" listen in
    let cfg = Ts_serve.Server.default_config addr in
    let cfg =
      {
        cfg with
        Ts_serve.Server.queue_depth;
        max_inflight =
          (if max_inflight > 0 then max_inflight
           else cfg.Ts_serve.Server.max_inflight);
      }
    in
    let t =
      match Ts_serve.Server.create cfg with
      | t -> t
      | exception Unix.Unix_error (e, fn, arg) ->
          prerr_endline
            (Printf.sprintf "tsms: cannot listen on %s: %s (%s %s)" listen
               (Unix.error_message e) fn arg);
          exit 1
      | exception Invalid_argument msg ->
          prerr_endline ("tsms: " ^ msg);
          exit 1
    in
    let stop _ = Ts_serve.Server.stop t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Printf.printf "tsms: serving on %s (max-inflight %d, queue-depth %d, lru %d)\n%!"
      (Ts_serve.Server.addr_to_string (Ts_serve.Server.bound_addr t))
      cfg.Ts_serve.Server.max_inflight queue_depth lru_entries;
    Ts_serve.Server.run t;
    prerr_endline "tsms: serve: shut down cleanly";
    dump_obs obs
  in
  let doc =
    "Run the scheduler as a long-lived daemon: schedule/simulate requests \
     over a length-prefixed JSON socket protocol, executed on the resident \
     worker pool behind admission control, with the LRU + on-disk cache \
     tier shared across requests (see also $(b,tsms client))."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ jobs_arg $ listen_arg $ max_inflight_arg $ queue_depth_arg
      $ lru_entries_arg $ cache_dir_arg $ no_cache_arg $ keep_going_arg
      $ max_retries_arg $ task_timeout_arg $ fault_plan_arg $ obs_term)

let client_cmd =
  let connect_arg =
    let doc = "Server address (same forms as $(b,tsms serve --listen))." in
    Arg.(value & opt string default_listen & info [ "connect" ] ~docv:"ADDR" ~doc)
  in
  let op_arg =
    let ops =
      [ ("schedule", `Schedule); ("simulate", `Simulate); ("metrics", `Metrics);
        ("health", `Health); ("ping", `Ping) ]
    in
    let doc = "Operation: schedule, simulate, metrics, health or ping." in
    Arg.(required & pos 0 (some (enum ops)) None & info [] ~docv:"OP" ~doc)
  in
  let loop_opt_arg =
    let doc = "Loop (.ddg) for schedule/simulate requests." in
    Arg.(value & pos 1 (some file) None & info [] ~docv:"LOOP.ddg" ~doc)
  in
  let trip_arg =
    Arg.(value & opt int 2000 & info [ "trip" ] ~docv:"N" ~doc:"Iterations to simulate.")
  in
  let warmup_arg =
    Arg.(value & opt int 512
         & info [ "warmup" ] ~docv:"N" ~doc:"Warmup iterations excluded from the numbers.")
  in
  let req_retries_arg =
    let doc = "Per-request retry override sent to the server." in
    Arg.(value & opt (some int) None & info [ "max-retries" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Per-request soft deadline (ms) sent to the server." in
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let raw_arg =
    let doc = "Print the raw JSON response instead of rendering it." in
    Arg.(value & flag & info [ "raw" ] ~doc)
  in
  let jfloat j name =
    (* Prefer the %h copy (exact) over the JSON float (%.12g). *)
    match Option.bind (Ts_obs.Json.member (name ^ "_hex") j) Ts_obs.Json.to_str with
    | Some s -> ( try Some (float_of_string s) with Failure _ -> None)
    | None -> (
        match Ts_obs.Json.member name j with
        | Some (Ts_obs.Json.Float f) -> Some f
        | Some (Ts_obs.Json.Int i) -> Some (float_of_int i)
        | _ -> None)
  in
  let jint j name = Option.bind (Ts_obs.Json.member name j) Ts_obs.Json.to_int in
  let need what = function
    | Some v -> v
    | None ->
        prerr_endline ("tsms: client: server response is missing " ^ what);
        exit 1
  in
  (* Rebuild the kernel from the response's (ii, time) against the same
     locally parsed loop and print it through the same pretty-printer as
     [tsms schedule] — the e2e check compares the two outputs byte for
     byte. [Kernel.of_times] revalidates every dependence constraint, so
     a server/client mismatch fails loudly here. *)
  let render_schedule g ~c_reg_com resp =
    let kj = need "kernel" (Ts_obs.Json.member "kernel" resp) in
    let ii = need "kernel.ii" (jint kj "ii") in
    let time =
      match Ts_obs.Json.member "time" kj with
      | Some (Ts_obs.Json.List xs) ->
          Array.of_list (List.map (fun x -> need "kernel.time" (Ts_obs.Json.to_int x)) xs)
      | _ ->
          prerr_endline "tsms: client: server response is missing kernel.time";
          exit 1
    in
    let k = or_invalid (fun () -> Ts_modsched.Kernel.of_times g ~ii time) in
    print_kernel "TMS" k ~c_reg_com;
    let sj = need "search" (Ts_obs.Json.member "search" resp) in
    Printf.printf
      "TMS search: P_max=%g, F_min=%.2f, threshold C_delay=%d, misspec P_M=%.4f, %d attempts%s\n"
      (need "search.p_max" (jfloat sj "p_max"))
      (need "search.f_min" (jfloat sj "f_min"))
      (need "search.c_delay_threshold" (jint sj "c_delay_threshold"))
      (need "search.misspec" (jfloat sj "misspec"))
      (need "search.attempts" (jint sj "attempts"))
      (match Ts_obs.Json.member "fell_back" sj with
      | Some (Ts_obs.Json.Bool true) -> " (fell back to SMS)"
      | _ -> "")
  in
  let render_simulate ~trip resp =
    let stj = need "stats" (Ts_obs.Json.member "stats" resp) in
    Printf.printf
      "TMS    %8d cycles (%6.2f/iter)  sync stalls %7d  SEND/RECV %6d  squashes %4d (%.3f%%)\n"
      (need "stats.cycles" (jint stj "cycles"))
      (float_of_int (need "stats.cycles" (jint stj "cycles")) /. float_of_int trip)
      (need "stats.sync_stall_cycles" (jint stj "sync_stall_cycles"))
      (need "stats.send_recv_pairs" (jint stj "send_recv_pairs"))
      (need "stats.squashes" (jint stj "squashes"))
      (need "stats.misspec_rate" (jfloat stj "misspec_rate") *. 100.0)
  in
  let run connect op loop mix placement p_max unroll trip warmup req_retries
      deadline raw =
    let addr = addr_conv "--connect" connect in
    let need_loop () =
      match loop with
      | Some l -> l
      | None ->
          prerr_endline "tsms: client: schedule and simulate need a LOOP.ddg";
          exit 1
    in
    let read_text path =
      try In_channel.with_open_text path In_channel.input_all
      with Sys_error msg ->
        prerr_endline ("tsms: " ^ msg);
        exit 1
    in
    let op_v =
      match op with
      | `Schedule ->
          Ts_serve.Protocol.Schedule
            { Ts_serve.Protocol.ddg = read_text (need_loop ()); cores = mix;
              placement; p_max; unroll }
      | `Simulate ->
          Ts_serve.Protocol.Simulate
            { Ts_serve.Protocol.s_ddg = read_text (need_loop ());
              s_cores = mix; s_placement = placement; trip; warmup }
      | `Metrics -> Ts_serve.Protocol.Metrics
      | `Health -> Ts_serve.Protocol.Health
      | `Ping -> Ts_serve.Protocol.Ping
    in
    let req =
      { Ts_serve.Protocol.id = 1; op = op_v; max_retries = req_retries;
        deadline_ms = deadline }
    in
    match Ts_serve.Client.round_trip addr req with
    | Error msg ->
        prerr_endline ("tsms: client: " ^ msg);
        exit 1
    | Ok resp -> (
        if raw then print_endline (Ts_obs.Json.to_string resp);
        if not (Ts_serve.Protocol.response_ok resp) then begin
          (match Ts_serve.Protocol.response_error resp with
          | Some (code, msg) ->
              prerr_endline (Printf.sprintf "tsms: server error [%s]: %s" code msg)
          | None -> prerr_endline "tsms: client: malformed server response");
          (* Shed load is backpressure, not failure: a distinct status so
             scripts (and the CI flood check) can tell the two apart. *)
          exit
            (match Ts_serve.Protocol.response_error resp with
            | Some ("shed_load", _) -> 75
            | _ -> 1)
        end
        else if not raw then
          match op with
          | `Ping -> print_endline "pong"
          | `Health -> print_endline (Ts_obs.Json.to_string resp)
          | `Metrics ->
              print_string
                (Option.value ~default:""
                   (Option.bind (Ts_obs.Json.member "prom" resp) Ts_obs.Json.to_str))
          | `Schedule ->
              let g = or_die (read_loop (need_loop ())) in
              let g = if unroll > 1 then Ts_ddg.Unroll.by g ~factor:unroll else g in
              let params =
                Ts_isa.Spmt_params.apply_mix Ts_isa.Spmt_params.default mix
              in
              render_schedule g ~c_reg_com:params.Ts_isa.Spmt_params.c_reg_com resp
          | `Simulate -> render_simulate ~trip resp)
  in
  let doc =
    "Send one request to a running $(b,tsms serve) daemon and render the \
     response. For $(b,schedule), the kernel is rebuilt locally from the \
     response and printed exactly as $(b,tsms schedule) would print it."
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ connect_arg $ op_arg $ loop_opt_arg $ ncore_arg
      $ placement_arg $ p_max_arg $ unroll_arg $ trip_arg $ warmup_arg
      $ req_retries_arg $ deadline_arg $ raw_arg)

let () =
  let doc = "thread-sensitive modulo scheduling for SpMT multicores (ICPP'08 reproduction)" in
  let info = Cmd.info "tsms" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ schedule_cmd; simulate_cmd; compare_cmd; dot_cmd; suite_cmd;
            check_cmd; experiments_cmd; serve_cmd; client_cmd ]))
