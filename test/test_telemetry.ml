(* The deep-profiling layer: bucketed histogram quantiles and merging,
   the Prometheus exposition, the Prof span profiler and the Progress
   heartbeat. *)

module J = Ts_obs.Json
module Metrics = Ts_obs.Metrics
module Prof = Ts_obs.Prof
module Progress = Ts_obs.Progress

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- Histogram quantiles --- *)

(* Log2 buckets with 8 sub-buckets per octave bound the relative
   quantile error by 2^(1/8) - 1 < 9.1%; allow 10% in the checks. *)
let within_rel ~expect actual =
  Float.abs (actual -. expect) <= 0.10 *. expect

let test_hist_quantiles () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "q" in
  for i = 1 to 1000 do
    Metrics.observe h (float_of_int i)
  done;
  check_bool "p50" true (within_rel ~expect:500.0 (Metrics.quantile h 0.5));
  check_bool "p90" true (within_rel ~expect:900.0 (Metrics.quantile h 0.9));
  check_bool "p99" true (within_rel ~expect:990.0 (Metrics.quantile h 0.99));
  (* The extremes are tracked exactly, not through buckets. *)
  check_bool "p0 is min" true (Metrics.quantile h 0.0 = 1.0);
  check_bool "p100 is max" true (Metrics.quantile h 1.0 = 1000.0);
  check_bool "mean" true
    (Float.abs (Metrics.histogram_mean h -. 500.5) < 1e-9);
  check_bool "bad q rejected" true
    (match Metrics.quantile h 1.5 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_hist_skewed () =
  (* A heavy-tailed latency shape: the p99 must land in the tail, not be
     dragged down by the mass at the bottom. *)
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "skew" in
  for _ = 1 to 990 do Metrics.observe h 1.0 done;
  for _ = 1 to 10 do Metrics.observe h 1000.0 done;
  check_bool "p50 at the mass" true (within_rel ~expect:1.0 (Metrics.quantile h 0.5));
  check_bool "p90 at the mass" true (within_rel ~expect:1.0 (Metrics.quantile h 0.9));
  check_bool "p999 in the tail" true
    (within_rel ~expect:1000.0 (Metrics.quantile h 0.999))

let test_hist_oddballs () =
  (* Zero, negative and NaN observations land in the underflow bucket
     and never corrupt the positive-value statistics. *)
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "odd" in
  List.iter (Metrics.observe h) [ 0.0; -3.0; Float.nan; 4.0 ];
  check_int "all counted" 4 (Metrics.histogram_count h);
  check_bool "quantiles clamp to underflow min" true
    (Metrics.quantile h 0.0 <= 0.0);
  check_bool "max unaffected" true (Metrics.quantile h 1.0 = 4.0)

(* --- Merge determinism (jobs=1 vs jobs=4) --- *)

(* The same multiset of observations, recorded either into one histogram
   or sharded across four and merged, must produce identical buckets,
   count, extremes and quantiles: bucketing a value is a pure function
   of the value, so the split cannot show through. *)
let test_hist_merge_deterministic () =
  let values =
    List.init 500 (fun i -> Float.of_int (1 + (i * 7 mod 311)) *. 0.37)
  in
  let reg = Metrics.create () in
  let whole = Metrics.histogram reg "whole" in
  List.iter (Metrics.observe whole) values;
  let shards =
    List.init 4 (fun s -> (s, Metrics.histogram reg (Printf.sprintf "s%d" s)))
  in
  List.iteri
    (fun i v -> Metrics.observe (List.assoc (i mod 4) shards) v)
    values;
  let merged = Metrics.histogram reg "merged" in
  (* Merge in a scrambled order: merging must be order-insensitive. *)
  List.iter
    (fun s -> Metrics.merge_histogram ~src:(List.assoc s shards) ~into:merged)
    [ 2; 0; 3; 1 ];
  check_int "count" (Metrics.histogram_count whole)
    (Metrics.histogram_count merged);
  check_bool "sum" true
    (Float.abs (Metrics.histogram_sum whole -. Metrics.histogram_sum merged)
     < 1e-6);
  check_bool "min/max" true
    (Metrics.quantile whole 0.0 = Metrics.quantile merged 0.0
    && Metrics.quantile whole 1.0 = Metrics.quantile merged 1.0);
  check_bool "buckets identical" true
    (Metrics.bucket_counts whole = Metrics.bucket_counts merged);
  List.iter
    (fun q ->
      check_bool
        (Printf.sprintf "q%.2f identical" q)
        true
        (Metrics.quantile whole q = Metrics.quantile merged q))
    [ 0.25; 0.5; 0.9; 0.99 ]

let test_registry_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr ~by:2 (Metrics.counter a "c");
  Metrics.incr ~by:5 (Metrics.counter b "c");
  Metrics.set_gauge (Metrics.gauge a "g") 1.0;
  Metrics.set_gauge (Metrics.gauge b "g") 3.0;
  Metrics.observe (Metrics.histogram a "h") 1.0;
  Metrics.observe (Metrics.histogram b "h") 2.0;
  Metrics.merge ~src:b ~into:a;
  check_int "counters add" 7 (Metrics.counter_value (Metrics.counter a "c"));
  check_bool "gauges max" true
    (Metrics.gauge_value (Metrics.gauge a "g") = 3.0);
  check_int "histograms union" 2
    (Metrics.histogram_count (Metrics.histogram a "h"))

(* --- JSON and Prometheus exposition --- *)

let test_hist_json_shape () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "io" in
  List.iter (Metrics.observe h) [ 2.0; 2.0; 8.0 ];
  let json = Metrics.to_json reg in
  let hist =
    match Option.bind (J.member "metrics" json) (J.member "io") with
    | Some j -> j
    | None -> Alcotest.fail "no metrics.io in json"
  in
  check_bool "count" true (J.member "count" hist = Some (J.Int 3));
  check_bool "sum" true (J.member "sum" hist = Some (J.Float 12.0));
  check_bool "min" true (J.member "min" hist = Some (J.Float 2.0));
  check_bool "max" true (J.member "max" hist = Some (J.Float 8.0));
  (match J.member "buckets" hist with
  | Some (J.List buckets) ->
      (* Sparse: only octaves that saw values, each [upper_bound, count]. *)
      check_int "two occupied buckets" 2 (List.length buckets);
      let total =
        List.fold_left
          (fun acc b ->
            match b with
            | J.List [ J.Float _; J.Int c ] -> acc + c
            | _ -> Alcotest.fail "bucket is not [le, count]")
          0 buckets
      in
      check_int "bucket counts sum to n" 3 total
  | _ -> Alcotest.fail "no buckets list");
  (* Round-trips through the parser. *)
  check_bool "parses back" true
    (match J.parse (J.to_string json) with Ok _ -> true | Error _ -> false)

let test_prom_exposition () =
  let reg = Metrics.create () in
  Metrics.incr ~by:4 (Metrics.counter reg "tms.attempts");
  Metrics.set_gauge (Metrics.gauge reg "pool-size") 4.0;
  let h = Metrics.histogram reg "sim.run_ms" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 2.0; 100.0 ];
  let text = Metrics.render_prom reg in
  check_bool "counter type line" true
    (contains text "# TYPE tsms_tms_attempts counter");
  check_bool "counter sample" true (contains text "tsms_tms_attempts 4");
  check_bool "gauge sanitized" true (contains text "tsms_pool_size 4");
  check_bool "histogram type line" true
    (contains text "# TYPE tsms_sim_run_ms histogram");
  check_bool "inf bucket" true
    (contains text "tsms_sim_run_ms_bucket{le=\"+Inf\"} 4");
  check_bool "sum line" true (contains text "tsms_sim_run_ms_sum 103.5");
  check_bool "count line" true (contains text "tsms_sim_run_ms_count 4");
  (* Bucket samples must be cumulative: counts never decrease in file
     order, and the last one before +Inf is <= 4. *)
  let bucket_counts =
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           if
             contains line "tsms_sim_run_ms_bucket"
             && not (contains line "+Inf")
           then
             match String.rindex_opt line ' ' with
             | Some i ->
                 int_of_string_opt
                   (String.sub line (i + 1) (String.length line - i - 1))
             | None -> None
           else None)
  in
  check_bool "has finite buckets" true (bucket_counts <> []);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check_bool "cumulative" true (monotone bucket_counts);
  check_bool "bounded by count" true
    (List.for_all (fun c -> c <= 4) bucket_counts)

(* --- Prof --- *)

let spin_ms ms =
  let t0 = Unix.gettimeofday () in
  let x = ref 0 in
  while (Unix.gettimeofday () -. t0) *. 1000.0 < ms do
    incr x
  done;
  !x

let test_prof_nesting () =
  Prof.set_enabled true;
  Fun.protect ~finally:(fun () -> Prof.set_enabled false) @@ fun () ->
  let r =
    Prof.span "outer" @@ fun () ->
    ignore (Prof.span "inner" (fun () -> spin_ms 20.0));
    ignore (spin_ms 10.0);
    17
  in
  check_int "span returns the value" 17 r;
  let report = Prof.report () in
  let find name =
    match List.find_opt (fun (row : Prof.row) -> row.name = name) report.rows
    with
    | Some row -> row
    | None -> Alcotest.failf "no %s row" name
  in
  let outer = find "outer" and inner = find "inner" in
  check_int "outer count" 1 outer.count;
  check_int "inner count" 1 inner.count;
  check_bool "inner nested in outer" true (inner.total_s <= outer.total_s);
  (* Outer's self excludes inner: ~10ms of its ~30ms total. *)
  check_bool "self excludes child" true
    (outer.self_s < outer.total_s -. 0.010);
  check_bool "self covers own work" true (outer.self_s >= 0.005);
  check_bool "coverage positive" true (Prof.coverage report > 0.0);
  let table = Prof.render_table report in
  check_bool "table has both spans" true
    (contains table "outer" && contains table "inner");
  check_bool "table says where GC time lands" true
    (contains table "minor heap filled");
  match Prof.to_json report with
  | J.Obj kvs ->
      check_bool "versioned" true (List.assoc_opt "version" kvs = Some (J.Int 1));
      check_bool "has spans" true
        (match List.assoc_opt "spans" kvs with
        | Some (J.List (_ :: _)) -> true
        | _ -> false)
  | _ -> Alcotest.fail "profile json not an object"

let test_prof_exception_safe () =
  Prof.set_enabled true;
  Fun.protect ~finally:(fun () -> Prof.set_enabled false) @@ fun () ->
  (match Prof.span "boom" (fun () -> failwith "x") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  (* The frame was popped and counted despite the raise; a sibling span
     must attribute cleanly afterwards. *)
  ignore (Prof.span "after" (fun () -> spin_ms 1.0));
  let report = Prof.report () in
  let names = List.map (fun (r : Prof.row) -> r.name) report.rows in
  check_bool "raised span counted" true (List.mem "boom" names);
  check_bool "sibling counted" true (List.mem "after" names)

let test_prof_disabled_noop () =
  Prof.set_enabled false;
  Prof.reset ();
  let r = Prof.span "ghost" (fun () -> 3) in
  check_int "value passes through" 3 r;
  check_bool "nothing recorded" true ((Prof.report ()).rows = [])

let test_prof_parallel () =
  (* Spans on worker domains aggregate without crashing, and self-time
     sums can exceed the spawning domain's wall clock. *)
  Prof.set_enabled true;
  Fun.protect ~finally:(fun () -> Prof.set_enabled false) @@ fun () ->
  ignore
    (Ts_base.Parallel.map ~jobs:4
       (fun i -> Prof.span "worker" (fun () -> spin_ms (2.0 +. float_of_int i)))
       (List.init 8 Fun.id));
  let report = Prof.report () in
  match List.find_opt (fun (r : Prof.row) -> r.name = "worker") report.rows with
  | Some row -> check_int "all worker spans counted" 8 row.count
  | None -> Alcotest.fail "no worker row"

(* Every span is charged only its own domain's words: an outer span
   around a pooled map is not charged the workers' allocation, and a
   task's words do not depend on how many domains run beside it. *)
let test_prof_words_domain_local () =
  (* Minor words allocated so far by every domain. Each minor
     collection stops every domain; another domain's count is sampled
     before its minor heap is flushed, so the second one brings it up to
     date. The tasks allocate only small blocks, so every word they
     allocate starts in a minor heap. *)
  let process_words () =
    Gc.minor ();
    Gc.minor ();
    (Gc.quick_stat ()).Gc.minor_words
  in
  let task i =
    Prof.span "task" @@ fun () ->
    ignore (Sys.opaque_identity (List.init 20_000 (fun j -> i + j)))
  in
  let run jobs =
    Prof.set_enabled true;
    Fun.protect ~finally:(fun () -> Prof.set_enabled false) @@ fun () ->
    let w0 = process_words () in
    Prof.span "outer" (fun () ->
        ignore (Ts_base.Parallel.map ~jobs task (List.init 16 Fun.id)));
    let w1 = process_words () in
    let rows = (Prof.report ()).rows in
    let words (r : Prof.row) = r.self_mwords *. 1e6 in
    let task_words =
      match List.find_opt (fun (r : Prof.row) -> r.name = "task") rows with
      | Some r -> words r
      | None -> Alcotest.fail "no task row"
    in
    let span_words = List.fold_left (fun acc r -> acc +. words r) 0.0 rows in
    (task_words, span_words, w1 -. w0)
  in
  let seq_tasks, _, _ = run 1 in
  let par_tasks, par_spans, par_process = run 2 in
  check_bool
    (Printf.sprintf "task words at jobs 2 (%.0f) within 1%% of jobs 1 (%.0f)"
       par_tasks seq_tasks)
    true
    (Float.abs (par_tasks -. seq_tasks) <= 0.01 *. seq_tasks);
  check_bool
    (Printf.sprintf "span words (%.0f) within the process's (%.0f)" par_spans
       par_process)
    true
    (par_spans <= par_process)

(* --- Progress --- *)

let test_progress_heartbeat () =
  let lines = ref [] in
  Progress.set_sink (Some (fun l -> lines := l :: !lines));
  Progress.set_min_interval 0.0;
  Progress.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Progress.set_enabled false;
      Progress.set_min_interval 1.0;
      Progress.set_sink None)
  @@ fun () ->
  let p = Progress.start ~what:"sweep" ~total:3 in
  Progress.step p;
  Progress.step p;
  Progress.step p;
  Progress.finish p;
  let lines = List.rev !lines in
  check_bool "heartbeats emitted" true (List.length lines >= 2);
  List.iter
    (fun l -> check_bool ("labelled: " ^ l) true (contains l "[sweep]"))
    lines;
  let final = List.nth lines (List.length lines - 1) in
  check_bool "final says 3/3" true (contains final "3/3");
  check_bool "reports retries" true (contains final "retries");
  check_bool "no eta once done" true (contains final "eta -")

(* total <= 0 means open-ended (the serve daemon's request stream): no
   fraction, no ETA, and — the original bug — no division by zero or
   negative/NaN ETA. An overshot known total must clamp, not go
   negative. *)
let test_progress_open_ended_total () =
  let lines = ref [] in
  Progress.set_sink (Some (fun l -> lines := l :: !lines));
  Progress.set_min_interval 0.0;
  Progress.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Progress.set_enabled false;
      Progress.set_min_interval 1.0;
      Progress.set_sink None)
  @@ fun () ->
  let p = Progress.start ~what:"serve" ~total:0 in
  Progress.step p;
  Progress.step p;
  Progress.step p;
  Progress.finish p;
  let all = List.rev !lines in
  check_bool "emits heartbeats" true (all <> []);
  let final = List.nth all (List.length all - 1) in
  check_bool "counts without a fraction" true (contains final "3 done");
  List.iter
    (fun l ->
      check_bool ("no fraction: " ^ l) false (contains l "/");
      check_bool ("no eta: " ^ l) true (contains l "eta -");
      check_bool ("no nan: " ^ l) false (contains l "nan");
      check_bool ("no inf: " ^ l) false (contains l "inf"))
    all;
  (* Negative totals behave like 0 (unknown), not like a fraction. *)
  let q = Progress.start ~what:"serve" ~total:(-1) in
  lines := [];
  Progress.step q;
  Progress.finish q;
  List.iter
    (fun l -> check_bool ("negative total open-ended: " ^ l) true (contains l "eta -"))
    !lines

let test_progress_overshoot_clamps () =
  let lines = ref [] in
  Progress.set_sink (Some (fun l -> lines := l :: !lines));
  Progress.set_min_interval 0.0;
  Progress.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Progress.set_enabled false;
      Progress.set_min_interval 1.0;
      Progress.set_sink None)
  @@ fun () ->
  let p = Progress.start ~what:"sweep" ~total:2 in
  Progress.step p;
  Progress.step p;
  Progress.step p;
  Progress.step p;
  Progress.finish p;
  let final = List.hd !lines in
  check_bool "overshoot clamps to total" true (contains final "2/2 done");
  check_bool "no negative eta" false (contains final "eta -0");
  check_bool "eta suppressed at completion" true (contains final "eta -")

let test_progress_disabled_silent () =
  let lines = ref [] in
  Progress.set_sink (Some (fun l -> lines := l :: !lines));
  Progress.set_enabled false;
  Fun.protect ~finally:(fun () -> Progress.set_sink None) @@ fun () ->
  let p = Progress.start ~what:"quiet" ~total:2 in
  Progress.step p;
  Progress.step p;
  Progress.finish p;
  check_bool "no output when disabled" true (!lines = []);
  check_bool "negative interval rejected" true
    (match Progress.set_min_interval (-1.0) with
    | () -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "hist quantiles uniform" `Quick test_hist_quantiles;
    Alcotest.test_case "hist quantiles skewed" `Quick test_hist_skewed;
    Alcotest.test_case "hist oddball values" `Quick test_hist_oddballs;
    Alcotest.test_case "hist merge deterministic" `Quick
      test_hist_merge_deterministic;
    Alcotest.test_case "registry merge" `Quick test_registry_merge;
    Alcotest.test_case "hist json shape" `Quick test_hist_json_shape;
    Alcotest.test_case "prometheus exposition" `Quick test_prom_exposition;
    Alcotest.test_case "prof nesting + self time" `Quick test_prof_nesting;
    Alcotest.test_case "prof exception safe" `Quick test_prof_exception_safe;
    Alcotest.test_case "prof disabled noop" `Quick test_prof_disabled_noop;
    Alcotest.test_case "prof parallel workers" `Quick test_prof_parallel;
    Alcotest.test_case "prof words are the span's domain's" `Quick
      test_prof_words_domain_local;
    Alcotest.test_case "progress heartbeat" `Quick test_progress_heartbeat;
    Alcotest.test_case "progress disabled silent" `Quick
      test_progress_disabled_silent;
    Alcotest.test_case "progress open-ended total" `Quick
      test_progress_open_ended_total;
    Alcotest.test_case "progress overshoot clamps" `Quick
      test_progress_overshoot_clamps;
  ]
