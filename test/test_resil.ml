(* Ts_resil (deterministic fault injection + supervised sweeps) and the
   degradation paths it drives through Ts_persist, Cached and the
   harness: plan parsing, occurrence counters, retry/backoff determinism,
   full failure aggregation, keep-going sweeps, every persist degradation
   (write, torn, read), resuming a partial sweep by rerunning it
   on the same store, and the property that an injected-fault run whose
   retries succeed is bit-identical to a fault-free run. *)

module F = Ts_resil.Fault
module S = Ts_resil.Supervise
module W = Ts_resil.Warn
module P = Ts_persist

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let cval name =
  Ts_obs.Metrics.counter_value
    (Ts_obs.Metrics.counter Ts_obs.Metrics.default name)

let has_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Every test runs against clean resilience state and leaves it clean:
   injection plans, warn-once memory, the sleep hook and the run context
   are all process-wide. *)
let scrub f () =
  let reset () =
    F.disarm ();
    F.set_sleep None;
    W.set_sink None;
    W.reset ();
    S.set_keep_going false;
    S.set_policy S.default_policy;
    S.reset_failures ();
    Ts_harness.Cached.set_store None
  in
  reset ();
  Fun.protect ~finally:reset f

let with_store f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tsms-test-resil-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.file_exists p then
          if Sys.is_directory p then begin
            Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
            Sys.rmdir p
          end
          else Sys.remove p
      in
      rm dir)
    (fun () -> f (P.open_store ~dir))

(* A capturing warn sink: returns the recorder and the captured list. *)
let capture_warnings () =
  let seen = ref [] in
  W.set_sink (Some (fun msg -> seen := msg :: !seen));
  fun () -> List.rev !seen

(* A recording sleep hook (backoff and Slow faults become observable and
   instantaneous). *)
let capture_sleeps () =
  let slept = ref [] in
  F.set_sleep (Some (fun s -> slept := s :: !slept));
  fun () -> List.rev !slept

(* Run [f] with the pool's default parallelism set to [n]. *)
let with_jobs n f =
  let saved = Ts_base.Parallel.get_jobs () in
  Ts_base.Parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Ts_base.Parallel.set_jobs saved) f

(* A flat supervised sweep: item [i] is its own group of [S.sweep_groups],
   so it is task [i], its label reads ["what:i/x"], and a keep-going
   casualty comes back as [None] in its place. *)
let sweep ~what f xs =
  S.sweep_groups ~what ~group:string_of_int ~label:string_of_int
    (fun _ x -> f x)
    (List.mapi (fun i x -> (i, [ x ])) xs)
  |> List.map (fun (_, vs) -> match vs with [ v ] -> Some v | _ -> None)

let arm_ok s =
  match F.parse s with
  | Ok plan -> F.arm plan
  | Error e -> Alcotest.failf "plan %S did not parse: %s" s e

(* ---- plan format ---- *)

let test_plan_roundtrip () =
  let src = "persist.write@*,worker@3,worker@*#1,persist.write@2:torn,worker@1:slow50" in
  match F.parse src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok plan ->
      check_string "to_string" src (F.to_string plan);
      (match F.parse (F.to_string plan) with
      | Ok plan' -> check_bool "roundtrip" true (plan = plan')
      | Error e -> Alcotest.failf "reparse: %s" e);
      check_bool "empty plan" true (F.parse "" = Ok []);
      (* Entry shapes. *)
      (match plan with
      | [ e1; e2; e3; e4; e5 ] ->
          check_bool "e1" true
            (e1 = { F.point = "persist.write"; key = None; attempt = None; kind = F.Exn });
          check_bool "e2" true
            (e2 = { F.point = "worker"; key = Some 3; attempt = None; kind = F.Exn });
          check_bool "e3" true
            (e3 = { F.point = "worker"; key = None; attempt = Some 1; kind = F.Exn });
          check_bool "e4" true
            (e4 = { F.point = "persist.write"; key = Some 2; attempt = None; kind = F.Torn });
          check_bool "e5" true
            (e5 = { F.point = "worker"; key = Some 1; attempt = None; kind = F.Slow 50 })
      | _ -> Alcotest.fail "expected 5 entries")

let test_plan_errors () =
  let bad s = check_bool s true (Result.is_error (F.parse s)) in
  bad "nokey";
  bad "@3";
  bad "worker@x";
  bad "worker@1#0";
  bad "worker@1#x";
  bad "worker@1:weird";
  bad "worker@1:slowx"

let test_seeded_deterministic () =
  let a = F.seeded ~seed:7 ~point:"persist.write" ~n:3 ~out_of:50 in
  let b = F.seeded ~seed:7 ~point:"persist.write" ~n:3 ~out_of:50 in
  check_bool "same seed, same plan" true (a = b);
  check_int "n entries" 3 (List.length a);
  List.iter
    (fun (e : F.entry) ->
      check_string "point" "persist.write" e.point;
      match e.key with
      | Some k -> check_bool "key in range" true (k >= 1 && k <= 50)
      | None -> Alcotest.fail "seeded entries are keyed")
    a;
  let c = F.seeded ~seed:8 ~point:"persist.write" ~n:3 ~out_of:50 in
  check_bool "different seed differs" true (a <> c)

(* ---- occurrence counters and task points ---- *)

let test_counter_point () =
  arm_ok "persist.write@2";
  check_bool "occurrence 1 clean" true (F.check "persist.write" = None);
  check_bool "occurrence 2 fires" true (F.check "persist.write" = Some F.Exn);
  check_bool "occurrence 3 clean" true (F.check "persist.write" = None);
  check_bool "other point untouched" true (F.check "persist.read" = None);
  (* Re-arming resets the occurrence counters. *)
  arm_ok "persist.write@2";
  check_bool "counters reset on arm" true (F.check "persist.write" = None);
  check_bool "then fires again" true (F.check "persist.write" = Some F.Exn);
  F.disarm ();
  check_bool "disarmed is a no-op" true (F.check "persist.write" = None)

let test_star_key () =
  arm_ok "persist.write@*:torn";
  check_bool "every occurrence" true
    (List.init 5 (fun _ -> F.check "persist.write")
    |> List.for_all (( = ) (Some F.Torn)))

let test_task_point () =
  arm_ok "worker@3#2";
  check_bool "wrong attempt" true (F.check_task "worker" ~index:3 ~attempt:1 = None);
  check_bool "right attempt" true
    (F.check_task "worker" ~index:3 ~attempt:2 = Some F.Exn);
  check_bool "wrong index" true (F.check_task "worker" ~index:2 ~attempt:2 = None);
  arm_ok "worker@*#1";
  check_bool "star index, attempt 1" true
    (F.check_task "worker" ~index:9 ~attempt:1 = Some F.Exn);
  check_bool "star index, attempt 2" true
    (F.check_task "worker" ~index:9 ~attempt:2 = None)

let test_arm_from_env () =
  Fun.protect
    ~finally:(fun () -> Unix.putenv "TSMS_FAULT_PLAN" "")
    (fun () ->
      Unix.putenv "TSMS_FAULT_PLAN" "worker@1";
      check_bool "good plan arms" true (F.arm_from_env () = Ok ());
      check_bool "armed" true (F.armed ());
      F.disarm ();
      Unix.putenv "TSMS_FAULT_PLAN" "not-a-plan";
      check_bool "bad plan is an error" true (Result.is_error (F.arm_from_env ()));
      Unix.putenv "TSMS_FAULT_PLAN" "";
      check_bool "empty is ok" true (F.arm_from_env () = Ok ()))

(* ---- warn-once ---- *)

let test_warn_once () =
  let got = capture_warnings () in
  W.once ~key:"k1" "first";
  W.once ~key:"k1" "repeat";
  W.once ~key:"k2" "second";
  check_bool "one message per key" true (got () = [ "first"; "second" ]);
  W.reset ();
  W.once ~key:"k1" "again";
  check_bool "reset forgets keys" true (got () = [ "first"; "second"; "again" ])

(* ---- supervised retries and backoff ---- *)

let test_retry_converges () =
  let sleeps = capture_sleeps () in
  arm_ok "worker@*#1";
  S.set_policy { S.max_retries = 2; backoff_ms = 40; deadline_ms = None };
  let r0 = cval "supervise.retries" in
  let results =
    with_jobs 1 (fun () -> sweep ~what:"t" (fun x -> 2 * x) [ 10; 20; 30 ])
  in
  check_bool "all tasks converge on retry" true
    (results = [ Some 20; Some 40; Some 60 ]);
  check_int "one retry per task" 3 (cval "supervise.retries" - r0);
  check_bool "deterministic first backoff" true
    (sleeps () = [ 0.04; 0.04; 0.04 ])

let test_backoff_sequence () =
  let sleeps = capture_sleeps () in
  arm_ok "worker@0";
  let attempt backoff_ms =
    S.attempt_task
      ~policy:{ S.max_retries = 3; backoff_ms; deadline_ms = None }
      ~point:"worker" ~label:"t0" ~index:0 Fun.id 1
  in
  let f0 = cval "supervise.failures" in
  (match attempt 10 with
  | Error f ->
      check_int "attempts = 1 + retries" 4 f.S.attempts;
      check_string "label" "t0" f.S.label;
      check_int "index" 0 f.S.index
  | Ok _ -> Alcotest.fail "expected one failure");
  check_int "one failure counted" 1 (cval "supervise.failures" - f0);
  check_bool "exponential backoff recorded" true
    (sleeps () = [ 0.01; 0.02; 0.04 ]);
  ignore (attempt 50);
  check_bool "delays scale with backoff_ms" true
    (sleeps () = [ 0.01; 0.02; 0.04; 0.05; 0.1; 0.2 ])

let test_aggregates_all_failures () =
  arm_ok "worker@1,worker@3";
  S.set_keep_going true;
  let run jobs =
    S.reset_failures ();
    let out =
      with_jobs jobs (fun () ->
          sweep ~what:"t" (fun x -> x * x) [ 0; 1; 2; 3; 4; 5 ])
    in
    (out, List.map (fun (f : S.failure) -> (f.index, f.label)) (S.failures ()))
  in
  let want =
    ( [ Some 0; None; Some 4; None; Some 16; Some 25 ],
      [ (1, "t:1/1"); (3, "t:3/3") ] )
  in
  check_bool "sequential: every failure, every survivor" true (run 1 = want);
  check_bool "pooled: identical outcomes" true (run 4 = want)

let test_parallel_map_errors () =
  let f x = if x mod 2 = 0 then failwith ("boom " ^ string_of_int x) else x in
  let indices jobs =
    match Ts_base.Parallel.map ~jobs f [ 2; 1; 4; 3; 6 ] with
    | _ -> Alcotest.fail "expected Map_errors"
    | exception Ts_base.Parallel.Map_errors ies -> List.map fst ies
  in
  check_bool "all failing indices, ascending (jobs=1)" true (indices 1 = [ 0; 2; 4 ]);
  check_bool "all failing indices, ascending (jobs=4)" true (indices 4 = [ 0; 2; 4 ]);
  check_bool "clean map still works" true
    (Ts_base.Parallel.map ~jobs:4 f [ 1; 3; 5 ] = [ 1; 3; 5 ])

let test_failures_of_exn () =
  let f = { S.index = 2; label = "x"; attempts = 1; error = "e" } in
  check_bool "Failures direct" true (S.failures_of_exn (S.Failures [ f ]) = Some [ f ]);
  (match S.failures_of_exn (Ts_base.Parallel.Map_errors [ (1, Failure "raw") ]) with
  | Some [ g ] ->
      check_int "index from pool" 1 g.S.index;
      check_bool "error text" true (g.S.error = Printexc.to_string (Failure "raw"))
  | _ -> Alcotest.fail "Map_errors not recognised");
  (match
     S.failures_of_exn (Ts_base.Parallel.Map_errors [ (0, S.Failures [ f ]) ])
   with
  | Some [ g ] -> check_bool "nested Failures flattened" true (g = f)
  | _ -> Alcotest.fail "nested Failures not flattened");
  check_bool "other exceptions pass" true (S.failures_of_exn Exit = None)

(* ---- keep-going sweeps ---- *)

let test_sweep_raises_all () =
  arm_ok "worker@1,worker@4";
  match sweep ~what:"t" Fun.id [ 5; 6; 7; 8; 9 ] with
  | _ -> Alcotest.fail "expected Failures"
  | exception S.Failures fs ->
      check_int "both failures aggregated" 2 (List.length fs);
      check_bool "labels carry what:" true
        (List.map (fun (f : S.failure) -> f.label) fs = [ "t:1/6"; "t:4/9" ])

let test_sweep_keep_going () =
  S.set_keep_going true;
  arm_ok "worker@2";
  let out = sweep ~what:"t" (fun x -> 10 * x) [ 1; 2; 3; 4 ] in
  check_bool "survivors kept, casualty None" true
    (out = [ Some 10; Some 20; None; Some 40 ]);
  (match S.failures () with
  | [ f ] ->
      check_string "recorded label" "t:2/3" f.S.label;
      check_int "recorded index" 2 f.S.index
  | fs -> Alcotest.failf "expected 1 recorded failure, got %d" (List.length fs));
  (match S.summary () with
  | Some s ->
      check_bool "summary names the task" true
        (has_sub ~sub:"t:2/3" s)
  | None -> Alcotest.fail "expected a summary");
  S.reset_failures ();
  check_bool "reset clears the summary" true (S.summary () = None)

(* ---- persist degradation ---- *)

let test_store_write_degrades () =
  with_store (fun s ->
      let got = capture_warnings () in
      let before = P.digest_hex "w-before" in
      P.store s ~key:before 1;
      arm_ok "persist.write@1";
      let d0 = cval "persist.degraded" in
      let key = P.digest_hex "w" in
      P.store s ~key 42;
      check_bool "failed write is a miss" true ((P.find s ~key : int option) = None);
      check_int "persist.degraded" 1 (cval "persist.degraded" - d0);
      check_int "warned once" 1 (List.length (got ()));
      (* The next write (occurrence 2) is clean: the run stays usable. *)
      P.store s ~key 42;
      check_bool "later write lands" true (P.find s ~key = Some 42);
      (* The failed append closed the pack, so the later write went to a
         new one; a fresh handle finds the writes on both sides. *)
      check_int "a new pack after the failure" 2
        (Array.length (Sys.readdir (Filename.concat (P.dir s) "packs")));
      let fresh = P.open_store ~dir:(P.dir s) in
      check_bool "a fresh handle finds both writes" true
        (P.find fresh ~key:before = Some 1 && P.find fresh ~key = Some 42);
      check_int "no second warning" 1 (List.length (got ())))

let test_store_torn_write () =
  with_store (fun s ->
      arm_ok "persist.write@1:torn";
      let d0 = cval "persist.degraded" in
      let key = P.digest_hex "torn" in
      P.store s ~key [ 1; 2; 3 ];
      (* The torn record landed in the pack but is incomplete: no handle
         indexes it, so it reads as a miss. *)
      check_bool "torn entry reads as a miss" true
        ((P.find s ~key : int list option) = None);
      check_int "torn is not a degrade" 0 (cval "persist.degraded" - d0);
      P.store s ~key [ 1; 2; 3 ];
      check_bool "rewrite heals" true (P.find s ~key = Some [ 1; 2; 3 ]))

(* A torn write closes its pack, so the 3 clean writes after it land in
   a new one: a fresh handle hits those 3 and misses the torn entry. *)
let test_torn_then_clean_writes () =
  with_store (fun s ->
      arm_ok "persist.write@1:torn";
      let key i = P.digest_hex (Printf.sprintf "torn-then-%d" i) in
      for i = 0 to 3 do
        P.store s ~key:(key i) i
      done;
      F.disarm ();
      let fresh = P.open_store ~dir:(P.dir s) in
      check_bool "torn entry misses" true
        ((P.find fresh ~key:(key 0) : int option) = None);
      for i = 1 to 3 do
        check_bool (Printf.sprintf "clean write %d hits" i) true
          (P.find fresh ~key:(key i) = Some i)
      done)

let test_read_fault_is_miss () =
  with_store (fun s ->
      let key = P.digest_hex "r" in
      P.store s ~key "v";
      arm_ok "persist.read@1";
      check_bool "injected read error is a miss" true
        ((P.find s ~key : string option) = None);
      (* Only that read failed: recompute+store writes the entry again
         and the next read is clean. *)
      P.store s ~key "v";
      check_bool "subsequent read hits" true (P.find s ~key = Some "v"))

let test_open_fault_raises () =
  arm_ok "persist.open@1";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tsms-test-resil-open-%d" (Unix.getpid ()))
  in
  check_bool "open_store raises the injected fault" true
    (match P.open_store ~dir with
    | _ -> false
    | exception F.Injected "persist.open" -> true)

let test_default_dir_absolute () =
  let saved =
    List.map
      (fun k -> (k, Sys.getenv_opt k))
      [ "TSMS_CACHE_DIR"; "XDG_CACHE_HOME"; "HOME" ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (k, v) -> Unix.putenv k (Option.value v ~default:""))
        saved)
    (fun () ->
      Unix.putenv "TSMS_CACHE_DIR" "rel-cache";
      let d = P.default_dir () in
      check_bool "relative TSMS_CACHE_DIR absolutised" true
        (not (Filename.is_relative d));
      check_bool "still points at the named directory" true
        (Filename.basename d = "rel-cache");
      (* No HOME at all: the cwd fallback, warned once. *)
      Unix.putenv "TSMS_CACHE_DIR" "";
      Unix.putenv "XDG_CACHE_HOME" "";
      Unix.putenv "HOME" "";
      let got = capture_warnings () in
      let d = P.default_dir () in
      check_bool "fallback is absolute" true (not (Filename.is_relative d));
      check_bool "fallback is _tsms_cache" true
        (Filename.basename d = "_tsms_cache");
      check_int "fallback warned" 1 (List.length (got ())))

(* ---- cached reconstruction ---- *)

let test_cached_reconstruct_fault () =
  with_store (fun s ->
      Ts_harness.Cached.set_store (Some s);
      let g = Ts_workload.Motivating.ddg () in
      let first = fst (Ts_harness.Cached.sms g) in
      arm_ok "cached.reconstruct@1";
      let r0 = cval "persist.reconstruct_failed" in
      let second = fst (Ts_harness.Cached.sms g) in
      check_int "reconstruction failure counted" 1
        (cval "persist.reconstruct_failed" - r0);
      check_bool "recompute returns the same schedule" true
        (second.Ts_sms.Sms.kernel.Ts_modsched.Kernel.time
        = first.Ts_sms.Sms.kernel.Ts_modsched.Kernel.time);
      F.disarm ();
      let third = fst (Ts_harness.Cached.sms g) in
      check_bool "cache healed" true
        (third.Ts_sms.Sms.kernel.Ts_modsched.Kernel.time
        = first.Ts_sms.Sms.kernel.Ts_modsched.Kernel.time))

(* ---- resuming a partial sweep ---- *)

(* A keep-going fig4 sweep loses two loops to injected worker faults; a
   plain rerun on the same store then recomputes exactly those two loops
   (one TMS search each: C2 cannot bind on the suite's loops, so their
   sweeps stop after one search) and reports the rows an uncached run
   reports. *)
let test_rerun_resumes_partial_sweep () =
  with_store (fun s ->
      let cfg = Ts_spmt.Config.default and limit = 2 in
      Ts_harness.Cached.set_store (Some s);
      arm_ok "worker@3,worker@7";
      S.set_keep_going true;
      let fig4 () = Ts_harness.Fig4.compute (Ts_harness.Suite.compute ~limit ~cfg ()) in
      let partial = fig4 () in
      check_int "two loops lost" 2 (List.length (S.failures ()));
      F.disarm ();
      S.set_keep_going false;
      let t0 = cval "tms.schedules" in
      let resumed = fig4 () in
      check_int "only the lost loops are searched" 2
        (cval "tms.schedules" - t0);
      Ts_harness.Cached.set_store None;
      let uncached = fig4 () in
      check_bool "partial rows differ" true (partial <> uncached);
      check_bool "rerun rows = uncached rows" true (resumed = uncached))

(* ---- deadlines (report-only) ---- *)

let test_deadline_report_only () =
  let got = capture_warnings () in
  let policy = { S.max_retries = 0; backoff_ms = 1; deadline_ms = Some 1 } in
  let d0 = cval "supervise.deadline_exceeded" in
  let result =
    S.attempt_task ~policy ~point:"worker" ~label:"slow0" ~index:0
      (fun x ->
        Unix.sleepf 0.005;
        x + 1)
      41
  in
  check_bool "overrunning result is kept" true (result = Ok 42);
  check_int "deadline overrun counted" 1 (cval "supervise.deadline_exceeded" - d0);
  match got () with
  | [ msg ] ->
      check_bool "warning names the task and says kept" true
        (has_sub ~sub:"slow0" msg
        && has_sub ~sub:"result kept" msg)
  | msgs -> Alcotest.failf "expected 1 warning, got %d" (List.length msgs)

(* ---- convergence: injected faults + retries = fault-free ---- *)

let test_retry_run_bit_identical () =
  let xs = List.init 8 (fun i -> i) in
  let f x = (x * x) + (3 * x) in
  let clean = sweep ~what:"c" f xs in
  let (_ : unit -> float list) = capture_sleeps () in
  arm_ok "worker@*#1";
  S.set_policy { S.max_retries = 1; backoff_ms = 10; deadline_ms = None };
  let faulty = sweep ~what:"c" f xs in
  check_bool "every-first-attempt faults + one retry = fault-free" true
    (faulty = clean);
  check_bool "no failures recorded" true (S.failures () = [])

let test_keep_going_survivors_identical () =
  let xs = List.init 6 (fun i -> 100 + i) in
  let f x = x * 7 in
  let clean = sweep ~what:"k" f xs in
  arm_ok "worker@2,worker@5";
  S.set_keep_going true;
  let faulty = sweep ~what:"k" f xs in
  List.iteri
    (fun i (c, fv) ->
      if i = 2 || i = 5 then check_bool "casualty is None" true (fv = None)
      else check_bool "survivor identical to fault-free" true (fv = c))
    (List.combine clean faulty);
  check_int "both casualties recorded" 2 (List.length (S.failures ()))

(* Grouped sweeps flatten in group order (fault-plan indices count
   across groups), regroup in order, and drop keep-going casualties from
   their own group only. *)
let test_sweep_groups_regroup () =
  let run () =
    S.sweep_groups ~what:"g" ~group:Fun.id ~label:string_of_int
      (fun g x -> g ^ string_of_int x)
      [ ("a", [ 1; 2 ]); ("b", []); ("c", [ 3; 4; 5 ]) ]
  in
  check_bool "regrouped in order" true
    (run () = [ ("a", [ "a1"; "a2" ]); ("b", []); ("c", [ "c3"; "c4"; "c5" ]) ]);
  arm_ok "worker@1,worker@3";
  S.set_keep_going true;
  check_bool "casualties left out of their groups" true
    (run () = [ ("a", [ "a1" ]); ("b", []); ("c", [ "c3"; "c5" ]) ]);
  check_bool "labels name the group and the item" true
    (List.map (fun f -> f.S.label) (S.failures ()) = [ "g:a/2"; "g:c/4" ])

(* A sweep's heartbeat advances while its tasks run: the worker that ran
   a task steps it as the task ends, so on one worker task [k] starts
   after exactly [k] heartbeat lines. *)
let test_sweep_heartbeat_live () =
  let lines = Atomic.make 0 in
  Ts_obs.Progress.set_sink (Some (fun _ -> Atomic.incr lines));
  Ts_obs.Progress.set_min_interval 0.0;
  Ts_obs.Progress.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Ts_obs.Progress.set_enabled false;
      Ts_obs.Progress.set_min_interval 1.0;
      Ts_obs.Progress.set_sink None)
  @@ fun () ->
  let seen =
    with_jobs 1 (fun () ->
        S.sweep_groups ~what:"hb" ~group:Fun.id ~label:string_of_int
          (fun _ _ -> Atomic.get lines)
          [ ("g", [ 0; 1; 2; 3; 4 ]) ])
  in
  Alcotest.(check (list (pair string (list int))))
    "task k saw k heartbeats" [ ("g", [ 0; 1; 2; 3; 4 ]) ] seen

(* The harness-level version of the same property: a keep-going suite
   pass with a persistent per-index fault drops exactly that loop and
   schedules the survivors identically to a fault-free run. *)
let test_harness_keep_going () =
  let cfg = Ts_spmt.Config.default in
  let benches = [ Ts_workload.Spec_suite.find "swim" ] in
  let pass () = snd (List.hd (Ts_harness.Suite.compute ~limit:2 ~benches ~cfg ())) in
  let clean = pass () in
  check_int "2 fault-free loops" 2 (List.length clean);
  arm_ok "worker@0";
  S.set_keep_going true;
  let faulty = pass () in
  check_int "loop 0 dropped" 1 (List.length faulty);
  let kernel_time (l : Ts_harness.Suite.loop) =
    ( l.run.sms.Ts_sms.Sms.kernel.Ts_modsched.Kernel.time,
      l.run.tms.Ts_tms.Tms.kernel.Ts_modsched.Kernel.time )
  in
  check_bool "survivor bit-identical to fault-free" true
    (kernel_time (List.hd faulty) = kernel_time (List.nth clean 1));
  match S.failures () with
  | [ f ] ->
      check_bool "failure labelled with sweep and loop" true
        (has_sub ~sub:"suite:swim/" f.S.label)
  | fs -> Alcotest.failf "expected 1 recorded failure, got %d" (List.length fs)

(* --- domain-safety hammers ---

   Warn.once and the supervision counters/failure log are shared by
   every pool worker; hammer them from 4 real domains and require exact
   counts — a racy Hashtbl or ref would lose or duplicate entries. *)

let test_warn_once_hammer () =
  let lock = Mutex.create () in
  let seen = ref [] in
  W.set_sink
    (Some
       (fun msg ->
         Mutex.lock lock;
         seen := msg :: !seen;
         Mutex.unlock lock));
  let n_keys = 100 in
  let doms =
    List.init 4 (fun _d ->
        Domain.spawn (fun () ->
            for _round = 0 to 9 do
              for k = 0 to n_keys - 1 do
                W.once ~key:(Printf.sprintf "hammer-%d" k)
                  (Printf.sprintf "warning %d" k)
              done
            done))
  in
  List.iter Domain.join doms;
  let lines = List.sort_uniq compare !seen in
  check_int "each key warned exactly once" n_keys (List.length !seen);
  check_int "all keys distinct" n_keys (List.length lines);
  (* And the table still works after the stampede. *)
  W.once ~key:"hammer-0" "suppressed";
  check_int "old keys still suppressed" n_keys (List.length !seen);
  W.once ~key:"hammer-after" "fresh";
  check_int "fresh key emits" (n_keys + 1) (List.length !seen)

let test_attempt_task_hammer () =
  let (_ : unit -> float list) = capture_sleeps () in
  let retries0 = cval "supervise.retries" in
  let failures0 = cval "supervise.failures" in
  let policy = { S.default_policy with S.max_retries = 1 } in
  let per = 50 in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            List.init per (fun i ->
                let label = Printf.sprintf "hammer/%d/%d" d i in
                S.attempt_task ~policy ~point:"hammer.point" ~label ~index:i
                  (fun () -> failwith label)
                  ())))
  in
  let results = List.concat_map Domain.join doms in
  check_int "every task failed" (4 * per) (List.length results);
  List.iter
    (fun r ->
      match r with
      | Error f ->
          check_int "attempts = 1 + max_retries" 2 f.S.attempts;
          check_bool "failure carries its own label" true
            (has_sub ~sub:"hammer/" f.S.label && has_sub ~sub:f.S.label f.S.error)
      | Ok () -> Alcotest.fail "a failing task reported success")
    results;
  check_int "one retry counted per task, none lost" (4 * per)
    (cval "supervise.retries" - retries0);
  check_int "one failure counted per task, none lost" (4 * per)
    (cval "supervise.failures" - failures0);
  (* The keep-going failure log aggregates from all domains too. *)
  S.reset_failures ();
  S.set_keep_going true;
  with_jobs 1 (fun () ->
      List.init 4 (fun _ ->
          Domain.spawn (fun () ->
              ignore
                (sweep ~what:"hammer"
                   (fun i -> if i = 1 then failwith "boom" else i)
                   [ 0; 1; 2 ])))
      |> List.iter Domain.join);
  check_int "all concurrent sweep failures recorded" 4
    (List.length (S.failures ()))

let suite =
  [
    Alcotest.test_case "fault: plan roundtrip" `Quick (scrub test_plan_roundtrip);
    Alcotest.test_case "warn: once under 4-domain hammer" `Quick
      (scrub test_warn_once_hammer);
    Alcotest.test_case "supervise: counters under 4-domain hammer" `Quick
      (scrub test_attempt_task_hammer);
    Alcotest.test_case "fault: plan errors" `Quick (scrub test_plan_errors);
    Alcotest.test_case "fault: seeded plans deterministic" `Quick
      (scrub test_seeded_deterministic);
    Alcotest.test_case "fault: counter points" `Quick (scrub test_counter_point);
    Alcotest.test_case "fault: * matches every occurrence" `Quick
      (scrub test_star_key);
    Alcotest.test_case "fault: task points" `Quick (scrub test_task_point);
    Alcotest.test_case "fault: TSMS_FAULT_PLAN" `Quick (scrub test_arm_from_env);
    Alcotest.test_case "warn: once per key" `Quick (scrub test_warn_once);
    Alcotest.test_case "supervise: retry converges" `Quick
      (scrub test_retry_converges);
    Alcotest.test_case "supervise: deterministic backoff" `Quick
      (scrub test_backoff_sequence);
    Alcotest.test_case "supervise: aggregates all failures" `Quick
      (scrub test_aggregates_all_failures);
    Alcotest.test_case "parallel: Map_errors aggregates" `Quick
      (scrub test_parallel_map_errors);
    Alcotest.test_case "supervise: failures_of_exn" `Quick
      (scrub test_failures_of_exn);
    Alcotest.test_case "sweep: raises all failures" `Quick
      (scrub test_sweep_raises_all);
    Alcotest.test_case "sweep: keep-going records and continues" `Quick
      (scrub test_sweep_keep_going);
    Alcotest.test_case "persist: write fault degrades" `Quick
      (scrub test_store_write_degrades);
    Alcotest.test_case "persist: torn write is a miss" `Quick
      (scrub test_store_torn_write);
    Alcotest.test_case "persist: torn write, then clean writes" `Quick
      (scrub test_torn_then_clean_writes);
    Alcotest.test_case "persist: read fault is a miss" `Quick
      (scrub test_read_fault_is_miss);
    Alcotest.test_case "persist: open fault raises" `Quick
      (scrub test_open_fault_raises);
    Alcotest.test_case "persist: default_dir absolute" `Quick
      (scrub test_default_dir_absolute);
    Alcotest.test_case "cached: reconstruct fault recomputes" `Quick
      (scrub test_cached_reconstruct_fault);
    Alcotest.test_case "persist: rerun on the store resumes a sweep" `Slow
      (scrub test_rerun_resumes_partial_sweep);
    Alcotest.test_case "supervise: deadline is report-only" `Quick
      (scrub test_deadline_report_only);
    Alcotest.test_case "property: retries converge to fault-free" `Quick
      (scrub test_retry_run_bit_identical);
    Alcotest.test_case "property: keep-going survivors identical" `Quick
      (scrub test_keep_going_survivors_identical);
    Alcotest.test_case "supervise: grouped sweep regroups in order" `Quick
      (scrub test_sweep_groups_regroup);
    Alcotest.test_case "sweep: heartbeat advances while its tasks run" `Quick
      (scrub test_sweep_heartbeat_live);
    Alcotest.test_case "harness: keep-going drops exactly the faulted loop"
      `Quick (scrub test_harness_keep_going);
  ]
