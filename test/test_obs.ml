(* The Ts_obs observability layer: JSON emission/parsing, the metrics
   registry, the Chrome/JSONL tracer, the simulator's structured trace
   (validity + determinism), domain-safety of the tracer, and the hard
   error on the removed TS_SIM_TRACE env vars. *)

module J = Ts_obs.Json
module Metrics = Ts_obs.Metrics
module Trace = Ts_obs.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- Json --- *)

let test_json_roundtrip () =
  let samples =
    [
      J.Null;
      J.Bool true;
      J.Int (-42);
      J.Float 1.5;
      J.Str "plain";
      J.Str "esc \"quotes\" \\ and\nnewline\ttab";
      J.List [ J.Int 1; J.Str "two"; J.List [] ];
      J.Obj [ ("a", J.Int 1); ("b", J.Obj [ ("c", J.Bool false) ]) ];
    ]
  in
  List.iter
    (fun v ->
      match J.parse (J.to_string v) with
      | Ok v' -> check_bool (J.to_string v) true (v = v')
      | Error msg -> Alcotest.failf "roundtrip %s: %s" (J.to_string v) msg)
    samples

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "expected parse error for %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,"; "\"unterminated"; "12 34"; "{\"a\" 1}"; "tru" ]

let test_json_member () =
  let v = J.Obj [ ("x", J.Int 7); ("y", J.Str "s") ] in
  check_bool "x" true (J.member "x" v = Some (J.Int 7));
  check_bool "missing" true (J.member "z" v = None);
  check_bool "non-obj" true (J.member "x" (J.Int 3) = None);
  check_bool "to_int" true (J.to_int (J.Int 5) = Some 5 && J.to_int J.Null = None);
  check_bool "to_str" true (J.to_str (J.Str "a") = Some "a")

(* --- Metrics --- *)

let test_counters_monotonic () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "test.counter" in
  let prev = ref (Metrics.counter_value c) in
  for i = 1 to 10 do
    Metrics.incr ~by:(i mod 3) c;
    let v = Metrics.counter_value c in
    check_bool "non-decreasing" true (v >= !prev);
    prev := v
  done;
  check_bool "negative increment rejected" true
    (match Metrics.incr ~by:(-1) c with
    | () -> false
    | exception Invalid_argument _ -> true);
  (* Same name returns the same underlying cell; wrong kind is an error. *)
  Metrics.incr (Metrics.counter reg "test.counter");
  check_int "shared handle" (!prev + 1) (Metrics.counter_value c);
  check_bool "kind clash rejected" true
    (match Metrics.gauge reg "test.counter" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_metrics_table () =
  let reg = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter reg "b.counter");
  Metrics.set_gauge (Metrics.gauge reg "a.gauge") 2.5;
  let h = Metrics.histogram reg "c.hist" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 6.0 ];
  check_int "hist count" 3 (Metrics.histogram_count h);
  (match J.parse (J.to_string (Metrics.to_json reg)) with
  | Ok json ->
      check_bool "versioned" true (J.member "version" json = Some (J.Int 2));
      (match J.member "metrics" json with
      | Some (J.Obj kvs) ->
          check_bool "sorted keys" true
            (List.map fst kvs = [ "a.gauge"; "b.counter"; "c.hist" ]);
          check_bool "counter value" true (List.assoc "b.counter" kvs = J.Int 3);
          let hist = List.assoc "c.hist" kvs in
          check_bool "hist count json" true
            (J.member "count" hist = Some (J.Int 3));
          check_bool "hist p50" true
            (match J.member "p50" hist with
            | Some (J.Float p) -> p >= 1.5 && p <= 2.5
            | _ -> false)
      | _ -> Alcotest.fail "metrics json has no metrics object")
  | Error msg -> Alcotest.failf "metrics json invalid: %s" msg);
  let table = Metrics.render_table reg in
  check_bool "counter row" true (contains table "b.counter");
  check_bool "quantile columns" true
    (contains table "p50" && contains table "p99");
  (* Mean of {1, 2, 6} is exactly 3; rendered with %.4g. *)
  check_bool "histogram mean" true (contains table "3")

(* --- Trace --- *)

(* Events of a Chrome trace buffer, or fail the test on invalid JSON. *)
let parse_chrome buf =
  match J.parse (Buffer.contents buf) with
  | Ok (J.List events) -> events
  | Ok _ -> Alcotest.fail "chrome trace is not a JSON array"
  | Error msg -> Alcotest.failf "chrome trace invalid: %s" msg

(* Per-(pid, tid) track: B/E counts balance and never go negative in file
   order. *)
let check_balanced events =
  let depth : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match J.member "ph" ev with
      | Some (J.Str ("B" | "E" as ph)) ->
          let get k = Option.bind (J.member k ev) J.to_int in
          let key = (Option.value ~default:0 (get "pid"),
                     Option.value ~default:0 (get "tid")) in
          let d = Option.value ~default:0 (Hashtbl.find_opt depth key) in
          let d = if ph = "B" then d + 1 else d - 1 in
          check_bool "end without begin" true (d >= 0);
          Hashtbl.replace depth key d
      | _ -> ())
    events;
  Hashtbl.iter (fun _ d -> check_int "unclosed spans" 0 d) depth

let test_trace_chrome_shape () =
  let buf = Buffer.create 256 in
  let tr = Trace.to_buffer buf in
  check_bool "enabled" true (Trace.enabled tr);
  check_bool "null disabled" false (Trace.enabled Trace.null);
  Trace.process_name tr ~pid:1 "proc";
  Trace.thread_name tr ~pid:1 ~tid:2 "track";
  Trace.begin_span tr ~pid:1 ~tid:2 ~ts:10 "outer"
    ~args:[ ("k", J.Str "v") ];
  Trace.begin_span tr ~pid:1 ~tid:2 ~ts:11 "inner";
  Trace.instant tr ~pid:1 ~tid:2 ~ts:12 "mark";
  Trace.counter_sample tr ~pid:1 ~ts:12 "occ" [ ("x", 3.0) ];
  Trace.end_span tr ~pid:1 ~tid:2 ~ts:13 "inner";
  Trace.end_span tr ~pid:1 ~tid:2 ~ts:14 "outer";
  Trace.close tr;
  Trace.close tr (* idempotent *);
  let events = parse_chrome buf in
  check_int "event count" 8 (List.length events);
  check_balanced events;
  (* Every event carries name/ph/pid/tid. *)
  List.iter
    (fun ev ->
      List.iter
        (fun k -> check_bool ("has " ^ k) true (J.member k ev <> None))
        [ "name"; "ph"; "pid"; "tid" ])
    events

let test_trace_null_noop () =
  (* The null sink accepts everything silently and ticks stay at 0. *)
  Trace.begin_span Trace.null ~ts:0 "x";
  Trace.end_span Trace.null ~ts:1 "x";
  Trace.instant Trace.null ~ts:2 "y";
  Trace.close Trace.null;
  check_int "tick" 0 (Trace.tick Trace.null);
  check_int "tick again" 0 (Trace.tick Trace.null)

let test_trace_jsonl () =
  let buf = Buffer.create 256 in
  let tr = Trace.to_buffer ~format:Trace.Jsonl buf in
  Trace.instant tr ~ts:1 "a";
  Trace.instant tr ~ts:2 "b";
  Trace.close tr;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  check_int "two lines" 2 (List.length lines);
  List.iter
    (fun l ->
      match J.parse l with
      | Ok (J.Obj _) -> ()
      | Ok _ -> Alcotest.fail "jsonl line is not an object"
      | Error msg -> Alcotest.failf "jsonl line invalid: %s" msg)
    lines

(* --- Simulator tracing --- *)

let sim_setup () =
  let g = Ts_workload.Motivating.ddg () in
  let cfg = Ts_spmt.Config.default in
  let params = cfg.Ts_spmt.Config.params in
  let plan = Ts_spmt.Address_plan.create ~seed:"obs" g in
  let tms = Ts_tms.Tms.schedule_sweep ~params g in
  (cfg, plan, tms.Ts_tms.Tms.kernel)

let test_sim_trace_valid () =
  let cfg, plan, kernel = sim_setup () in
  let buf = Buffer.create 4096 in
  let tr = Trace.to_buffer buf in
  let _st = Ts_spmt.Sim.run ~plan ~warmup:64 ~trace:tr cfg kernel ~trip:512 in
  Trace.close tr;
  let events = parse_chrome buf in
  check_balanced events;
  let count name =
    List.length
      (List.filter (fun ev -> J.member "name" ev = Some (J.Str name)) events)
  in
  check_bool "has exec spans" true (count "exec" > 0);
  check_bool "has commit spans" true (count "commit" > 0);
  check_bool "has squash or sync-stall instants" true
    (count "squash" + count "sync-stall" > 0);
  check_bool "has occupancy samples" true (count "occupancy" > 0);
  (* every sample carries the MDT series and nothing else *)
  List.iter
    (fun ev ->
      if J.member "name" ev = Some (J.Str "occupancy") then
        match J.member "args" ev with
        | Some (J.Obj args) ->
            check_bool "occupancy has mdt" true (List.mem_assoc "mdt" args);
            check_bool "occupancy has no wb" false (List.mem_assoc "wb" args)
        | _ -> Alcotest.fail "occupancy sample without args")
    events

let test_sim_trace_deterministic () =
  (* Tracing must not perturb the simulation: identical stats with the
     null sink and with a live buffer sink. *)
  let cfg, plan, kernel = sim_setup () in
  let st_null = Ts_spmt.Sim.run ~plan ~warmup:64 cfg kernel ~trip:512 in
  let buf = Buffer.create 4096 in
  let tr = Trace.to_buffer buf in
  let st_traced =
    Ts_spmt.Sim.run ~plan ~warmup:64 ~trace:tr cfg kernel ~trip:512
  in
  Trace.close tr;
  check_bool "stats identical" true (st_null = st_traced);
  check_bool "trace non-empty" true (Buffer.length buf > 2)

let test_search_log_attempts () =
  let g = Ts_workload.Motivating.ddg () in
  let params = Ts_isa.Spmt_params.default in
  let buf = Buffer.create 4096 in
  let tr = Trace.to_buffer ~format:Trace.Jsonl buf in
  let r = Ts_tms.Tms.schedule ~trace:tr ~p_max:0.05 ~params g in
  Trace.close tr;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  let events =
    List.map
      (fun l ->
        match J.parse l with
        | Ok ev -> ev
        | Error msg -> Alcotest.failf "search log line invalid: %s" msg)
      lines
  in
  let attempts =
    List.filter (fun ev -> J.member "name" ev = Some (J.Str "tms.attempt")) events
  in
  check_int "one event per attempt" r.Ts_tms.Tms.attempts (List.length attempts);
  check_bool "has result event" true
    (List.exists (fun ev -> J.member "name" ev = Some (J.Str "tms.result")) events)

(* A traced sweep's "tms.sweep.pick" event says how many searches the
   sweep ran, one "tms.search" span each: one where C2 cannot bind (a
   generated loop), every P_max where it does (the motivating loop), the
   smallest value first whatever the list order. *)
let test_search_log_sweep_searches () =
  let params = Ts_isa.Spmt_params.default in
  let sweep_events g =
    let buf = Buffer.create 4096 in
    let tr = Trace.to_buffer ~format:Trace.Jsonl buf in
    ignore (Ts_tms.Tms.schedule_sweep ~trace:tr ~p_maxes:[ 0.25; 0.05; 0.01 ] ~params g);
    Trace.close tr;
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match J.parse l with
           | Ok ev -> ev
           | Error msg -> Alcotest.failf "search log line invalid: %s" msg)
  in
  let arg name ev = Option.bind (J.member "args" ev) (J.member name) in
  let named n = List.filter (fun ev -> J.member "name" ev = Some (J.Str n)) in
  let check_sweep what g ~searches =
    let events = sweep_events g in
    let spans =
      List.filter (fun ev -> J.member "ph" ev = Some (J.Str "B")) (named "tms.search" events)
    in
    (match named "tms.sweep.pick" events with
    | [ pick ] ->
        check_bool (what ^ ": searches arg") true
          (arg "searches" pick = Some (J.Int searches))
    | l -> Alcotest.failf "%s: %d tms.sweep.pick events" what (List.length l));
    check_int (what ^ ": tms.search spans") searches (List.length spans);
    check_bool (what ^ ": smallest P_max searched first") true
      (arg "p_max" (List.hd spans) = Some (J.Float 0.01))
  in
  check_sweep "C2-free" (Fixtures.generated ~seed:200 ()) ~searches:1;
  check_sweep "C2 binds" (Ts_workload.Motivating.ddg ()) ~searches:3

(* --- Tracer domain-safety --- *)

let test_trace_parallel_writers () =
  (* Four worker domains emitting into one Jsonl tracer: every line must
     still be a complete JSON object (no interleaved writes) and no event
     may be lost. Ticks are atomic, so they must come out unique. *)
  let buf = Buffer.create 8192 in
  let tr = Trace.to_buffer ~format:Trace.Jsonl buf in
  let per_task = 25 and n_tasks = 16 in
  ignore
    (Ts_base.Parallel.map ~jobs:4
       (fun task ->
         for k = 0 to per_task - 1 do
           let ts = Trace.tick tr in
           Trace.instant tr ~tid:task ~ts
             (Printf.sprintf "t%d.%d" task k)
         done)
       (List.init n_tasks Fun.id));
  Trace.close tr;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  check_int "no lost or torn lines" (n_tasks * per_task) (List.length lines);
  let ts_seen = Hashtbl.create 512 in
  List.iter
    (fun l ->
      match J.parse l with
      | Ok (J.Obj _ as ev) -> (
          match Option.bind (J.member "ts" ev) J.to_int with
          | Some ts ->
              check_bool "unique ts" false (Hashtbl.mem ts_seen ts);
              Hashtbl.replace ts_seen ts ()
          | None -> Alcotest.fail "event without ts")
      | Ok _ -> Alcotest.fail "jsonl line is not an object"
      | Error msg -> Alcotest.failf "torn jsonl line %S: %s" l msg)
    lines

(* --- Removed legacy env vars --- *)

(* Setting the removed TS_SIM_TRACE / TS_SIM_TRACE_NODES debug vars is a
   hard error pointing at --trace; an empty value counts as unset (there
   is no unsetenv, so "" is how the variable is cleared). *)
let with_env var value f =
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var "") f

let expect_legacy_error var value =
  with_env var value @@ fun () ->
  let cfg, plan, kernel = sim_setup () in
  match Ts_spmt.Sim.run ~plan ~warmup:8 cfg kernel ~trip:32 with
  | _ -> Alcotest.failf "%s=%S: expected Invalid_argument" var value
  | exception Invalid_argument msg ->
      check_bool "error names the var" true (contains msg var);
      check_bool "error names the replacement" true (contains msg "--trace")

let test_legacy_env_rejected () =
  expect_legacy_error "TS_SIM_TRACE" "3-17";
  expect_legacy_error "TS_SIM_TRACE" "garbage";
  expect_legacy_error "TS_SIM_TRACE_NODES" "0,3,8"

let test_legacy_env_empty_ok () =
  with_env "TS_SIM_TRACE" "" @@ fun () ->
  let cfg, plan, kernel = sim_setup () in
  let st = Ts_spmt.Sim.run ~plan ~warmup:8 cfg kernel ~trip:32 in
  check_bool "runs" true (st.Ts_spmt.Sim.cycles > 0)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json member accessors" `Quick test_json_member;
    Alcotest.test_case "counters monotonic" `Quick test_counters_monotonic;
    Alcotest.test_case "metrics table" `Quick test_metrics_table;
    Alcotest.test_case "chrome trace shape" `Quick test_trace_chrome_shape;
    Alcotest.test_case "null tracer no-op" `Quick test_trace_null_noop;
    Alcotest.test_case "jsonl format" `Quick test_trace_jsonl;
    Alcotest.test_case "sim trace valid + balanced" `Quick test_sim_trace_valid;
    Alcotest.test_case "sim trace deterministic" `Quick test_sim_trace_deterministic;
    Alcotest.test_case "search log attempts" `Quick test_search_log_attempts;
    Alcotest.test_case "search log sweep searches" `Quick
      test_search_log_sweep_searches;
    Alcotest.test_case "trace parallel writers" `Quick test_trace_parallel_writers;
    Alcotest.test_case "legacy env rejected" `Quick test_legacy_env_rejected;
    Alcotest.test_case "legacy env empty ok" `Quick test_legacy_env_empty_ok;
  ]
