(* e2ebench/e2e.exe — the end-to-end benchmark of the whole pipeline: the
   paper's evaluation regenerated cold and warm, a misspeculation-heavy
   generated suite, and a simulator sweep over three machines. README.md
   in this directory says why each workload exists and what every metric
   means.

   Every rep runs in a fresh child process (this executable, subcommand
   [child]), driven one at a time from this process, and checks its own
   outputs after its timed section. A host-speed probe runs before the
   first rep and after every rep.

   Usage:
     e2e.exe run --workload W --seed N --seconds S --trace 0|1
         One workload: reps for about S seconds (at least one), then, with
         --trace 1, one traced rep. Prints one JSON line, the last line of
         stdout: {"correct", "attempted", "failed", "metrics"}; the
         metrics are the end-to-end ones, or with --trace 1 the per-layer
         ones. Exits 1 when any output is wrong.
     e2e.exe e2e [--reps N] [--seed N] [--out FILE] [--check DIR]
         Every workload, N reps each (default 5,
         interleaved), then one traced rep each. Writes BENCH_e2e.json
         (median, quartiles, max and sample count of every end-to-end
         metric, plus the per-layer metrics) and, next to it,
         BENCH_e2e.trace.json (the Prof report and the metrics registry
         of each traced rep). --check DIR compares the result with
         DIR/BENCH_e2e.json.
     e2e.exe compare A.json B.json
         ok / regressed / unresolved for every workload and end-to-end
         metric of B against A, with the bounds of BENCHMARK.json.
     e2e.exe bless
         Rewrites the golden files (seed 1) from one rep per workload. *)

open Common

let usage () =
  prerr_string
    "usage: e2e.exe run --workload W --seed N --seconds S --trace 0|1\n\
    \       e2e.exe e2e [--reps N] [--seed N] [--out FILE] [--check DIR]\n\
    \       e2e.exe compare A.json B.json\n\
    \       e2e.exe bless\n\
     workloads: paper-cold paper-warm spec-c2 sim-sweep\n";
  exit 2

let now = Unix.gettimeofday
let bench_file = "BENCHMARK.json"

(* ---- host-speed probe ---- *)

(* A fixed integer-and-allocation kernel (0.13 s on a calm two-vCPU Xeon
   VM). Run around every rep: when its time drifts, so did the host, and
   timings taken in between are suspect. *)
let probe () =
  let t0 = now () in
  let acc = ref 0 in
  for r = 1 to 60 do
    let l = List.init 50_000 (fun i -> ((i * 1103515245) + r) land 0xFFFF) in
    acc := List.fold_left (fun a x -> ((a * 31) + x) land 0x3FFFFFFF) !acc (List.rev l)
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

let drift probes =
  match probes with
  | [] -> 0.0
  | _ -> (List.fold_left max 0.0 probes /. List.fold_left min infinity probes) -. 1.0

let warn_drift what probes =
  let d = drift probes in
  if d > 0.10 then
    Printf.eprintf
      "e2e: WARNING: host-speed probe drifted %.0f%% during %s (%s s); its \
       timings are suspect\n%!"
      (100.0 *. d) what
      (String.concat " " (List.map (Printf.sprintf "%.3f") probes))

(* ---- child processes ---- *)

type session = {
  work : string;  (* scratch directory, removed at the end *)
  seed : int;
  mutable serial : int;
  mutable probes : float list;  (* newest first *)
}

let store s = Filename.concat s.work "store"

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Run one child to completion. [Ok (result, setup_s)], where setup_s is
   child spawn to the start of its timed section. *)
let spawn s ?(trace = false) ?(setup_only = false) ?(bless = false) ?jobs
    ?store:(st = store s) w =
  s.serial <- s.serial + 1;
  let result = Filename.concat s.work (Printf.sprintf "rep%d.json" s.serial) in
  let exe = Sys.executable_name in
  let t_spawn = now () in
  let args =
    [ "child"; "--workload"; name w; "--seed"; string_of_int s.seed; "--store"; st;
      "--result"; result; "--spawned-at"; Printf.sprintf "%.6f" t_spawn ]
    @ (if trace then [ "--trace" ] else [])
    @ (if setup_only then [ "--setup-only" ] else [])
    @ (if bless then [ "--bless" ] else [])
    @ match jobs with Some j -> [ "--jobs"; string_of_int j ] | None -> []
  in
  (* The child's stdout goes to our stderr: our stdout ends with the
     result line and nothing else. *)
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stderr
      Unix.stderr
  in
  match waitpid pid with
  | Unix.WEXITED 0 ->
      let j = read_json result in
      Sys.remove result;
      Ok (j, num (member "setup_s" j))
  | Unix.WEXITED n -> Error (Printf.sprintf "%s rep exited with code %d" (name w) n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Error (Printf.sprintf "%s rep killed by signal %d" (name w) n)

(* The paper-warm reps read the store the latest paper-cold rep filled;
   with none, fill one first at jobs 2 (results are identical at any
   jobs level, and it is quicker). *)
let ensure_store s =
  if not (Sys.file_exists (store s)) then
    match spawn s ~jobs:2 Paper_cold with
    | Ok _ -> ()
    | Error e -> fail ("filling the paper-warm store: " ^ e)

(* One measured (or traced) rep, followed by a probe. *)
let rep s ?trace ?bless w =
  (match w with
  | Paper_cold -> rm_rf (store s)
  | Paper_warm -> ensure_store s
  | Spec_c2 | Sim_sweep -> ());
  let r = spawn s ?trace ?bless w in
  s.probes <- probe () :: s.probes;
  r

(* Set-up samples beyond the reps' own, from children that stop where
   their timed section would start, so that the set-up median always
   has at least three samples. *)
let extra_setups s w ~have =
  let st =
    match w with Paper_cold -> Filename.concat s.work "setup-store" | _ -> store s
  in
  List.init (max 0 (3 - have)) (fun _ ->
      let r = spawn s ~setup_only:true ~store:st w in
      if w = Paper_cold then rm_rf st;
      match r with Ok (_, setup) -> Some setup | Error _ -> None)
  |> List.filter_map Fun.id

(* ---- aggregation ---- *)

type series = {
  w : workload;
  reps : (J.t * float) list;  (* measured reps: result, setup_s *)
  setups : float list;
  traced : J.t option;
  errors : string list;  (* children that died *)
}

let values sr metric =
  if metric = "setup_s" then sr.setups
  else List.map (fun (j, _) -> num (member metric j)) sr.reps

let attempted sr =
  List.fold_left (fun a (j, _) -> a + int_of (member "attempted" j)) 0 sr.reps
  + (match sr.traced with Some j -> int_of (member "attempted" j) | None -> 0)
  + List.length sr.errors

let failed sr =
  List.fold_left (fun a (j, _) -> a + int_of (member "failed" j)) 0 sr.reps
  + (match sr.traced with Some j -> int_of (member "failed" j) | None -> 0)
  + List.length sr.errors

let correct sr = failed sr = 0 && sr.reps <> []

let report_problems sr =
  List.iter (fun e -> Printf.eprintf "e2e: %s: %s\n" (name sr.w) e) sr.errors;
  List.iter
    (fun j ->
      List.iter
        (fun p -> Printf.eprintf "e2e: %s: %s\n" (name sr.w) (str_of p))
        (list_of (member "problems" j)))
    (List.map fst sr.reps @ Option.to_list sr.traced);
  flush stderr

(* The per-layer metrics of the traced rep: (name, unit, value). *)
let layers sr =
  match sr.traced with
  | None -> []
  | Some j ->
      let untraced = median (values sr "wall_s") in
      List.map
        (fun l ->
          (str_of (member "name" l), str_of (member "unit" l), num (member "value" l)))
        (list_of (member "layers" j))
      @ [
          ( "obs.trace_overhead_frac",
            "ratio",
            (num (member "wall_s" j) /. untraced) -. 1.0 );
        ]

let finite v = if Float.is_finite v then v else 0.0

(* ---- `run`: one workload, the contract of BENCHMARK.json ---- *)

let with_session ~seed f =
  let work =
    Filename.concat "_e2e_work" (Printf.sprintf "run-%d" (Unix.getpid ()))
  in
  rm_rf work;
  mkdir_p work;
  (* At exit rather than on return: [fail] and [exit] leave from inside. *)
  at_exit (fun () ->
      rm_rf work;
      try Sys.rmdir "_e2e_work" with Sys_error _ -> ());
  f { work; seed; serial = 0; probes = [ probe () ] }

(* Reps while another one still fits in about [seconds], at least one. *)
let measure s ~seconds ~trace w =
  if w = Paper_warm then ensure_store s;
  let t0 = now () in
  let rec loop acc errors =
    let acc, errors =
      match rep s w with
      | Ok r -> (r :: acc, errors)
      | Error e -> (acc, e :: errors)
    in
    let n = List.length acc + List.length errors in
    let spent = now () -. t0 in
    if n < 20 && spent +. (spent /. float_of_int n) <= seconds then loop acc errors
    else (List.rev acc, errors)
  in
  let reps, errors = loop [] [] in
  let setups = List.map snd reps in
  let setups = setups @ extra_setups s w ~have:(List.length setups) in
  let traced, errors =
    if not trace then (None, errors)
    else
      match rep s ~trace:true w with
      | Ok (j, _) -> (Some j, errors)
      | Error e -> (None, e :: errors)
  in
  { w; reps; setups; traced; errors }

let cmd_run args =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        (match of_name w with Some w -> workload := Some w | None -> usage ());
        parse rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with Some v -> seed := v | None -> usage ());
        parse rest
    | "--seconds" :: n :: rest ->
        (match float_of_string_opt n with
        | Some v when v > 0.0 -> seconds := v
        | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        parse rest
    | _ -> usage ()
  in
  parse args;
  let w = match !workload with Some w -> w | None -> usage () in
  let sr, probes =
    with_session ~seed:!seed (fun s ->
        let sr = measure s ~seconds:!seconds ~trace:!trace w in
        (sr, List.rev s.probes))
  in
  report_problems sr;
  warn_drift (name w) probes;
  let metric (n, u, v) = (n, J.Obj [ ("value", J.Float (finite v)); ("unit", J.Str u) ]) in
  let metrics =
    if !trace then List.map metric (layers sr)
    else List.map (fun (n, u) -> metric (n, u, median (values sr n))) e2e_metrics
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (correct sr));
            ("attempted", J.Int (attempted sr));
            ("failed", J.Int (failed sr));
            ("metrics", J.Obj metrics);
          ]));
  exit (if correct sr then 0 else 1)

(* ---- `compare` ---- *)

type verdict = Ok_ | Regressed | Unresolved

let verdict_name = function
  | Ok_ -> "ok"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* [(name, unit, lower_is_better, bound)] of every end-to-end metric. *)
let bounds () =
  List.map
    (fun m ->
      ( str_of (member "name" m),
        str_of (member "unit" m),
        str_of (member "better" m) = "lower",
        num (member "bound" m) ))
    (list_of (member "end_to_end" (read_json bench_file)))

(* B against A on one metric. Unresolved when either side's spread
   between quartiles exceeds the bound — unless every sample of B beats
   every sample of A. *)
let judge ~lower ~bound a b =
  let med s = num (member "median" s) in
  let samples s = List.map num (list_of (member "samples" s)) in
  let spread s =
    let iqr = num (member "q3" s) -. num (member "q1" s) in
    if iqr = 0.0 then 0.0 else iqr /. Float.abs (med s)
  in
  let ma = med a and mb = med b in
  let worse = (if lower then mb -. ma else ma -. mb) /. Float.abs ma in
  let all_better =
    let sa = samples a and sb = samples b in
    sa <> [] && sb <> []
    &&
    if lower then List.fold_left max neg_infinity sb < List.fold_left min infinity sa
    else List.fold_left min infinity sb > List.fold_left max neg_infinity sa
  in
  let v =
    if Float.max (spread a) (spread b) > bound && not all_better then Unresolved
    else if worse > bound then Regressed
    else Ok_
  in
  (v, worse)

let compare_files a b =
  let bounds = bounds () in
  let regressed = ref false in
  List.iter
    (fun (f, j) ->
      warn_drift f (List.map num (list_of (member "probe_s" (member "host" j)))))
    [ ("A", a); ("B", b) ];
  Printf.printf "%-11s %-16s %12s %12s %8s %7s  %s\n" "workload" "metric" "A median"
    "B median" "worse" "bound" "verdict";
  List.iter
    (fun (wname, wa) ->
      match J.member wname (member "workloads" b) with
      | None -> Printf.printf "%-11s (not in B)\n" wname
      | Some wb ->
          if not (bool_of (member "correct" wb)) then begin
            regressed := true;
            Printf.printf "%-11s B has failed outputs\n" wname
          end;
          List.iter
            (fun (m, unit, lower, bound) ->
              let sa = member m (member "metrics" wa) in
              let sb = member m (member "metrics" wb) in
              if sa = J.Null || sb = J.Null then
                Printf.printf "%-11s %-16s (missing)\n" wname m
              else begin
                let v, worse = judge ~lower ~bound sa sb in
                if v = Regressed then regressed := true;
                Printf.printf "%-11s %-16s %12.4f %12.4f %+7.1f%% %6.1f%%  %s  (%s)\n"
                  wname m (num (member "median" sa)) (num (member "median" sb))
                  (100.0 *. worse) (100.0 *. bound) (verdict_name v) unit
              end)
            bounds)
    (obj_of (member "workloads" a));
  not !regressed

let cmd_compare = function
  | [ a; b ] -> exit (if compare_files (read_json a) (read_json b) then 0 else 1)
  | _ -> usage ()

(* ---- `e2e`: every workload, N reps each ---- *)

let stats_json unit xs =
  let q1, q3 = quartiles xs in
  J.Obj
    [
      ("unit", J.Str unit);
      ("median", J.Float (median xs));
      ("q1", J.Float q1);
      ("q3", J.Float q3);
      ("max", J.Float (List.fold_left max neg_infinity xs));
      ("n", J.Int (List.length xs));
      ("samples", J.List (List.map (fun x -> J.Float x) xs));
    ]

let series_json sr =
  let fail_frac = float_of_int (failed sr) /. float_of_int (max 1 (attempted sr)) in
  J.Obj
    [
      ("jobs", J.Int (jobs sr.w));
      ("correct", J.Bool (correct sr));
      ("attempted", J.Int (attempted sr));
      ("failed", J.Int (failed sr));
      ( "metrics",
        J.Obj
          (List.map (fun (n, u) -> (n, stats_json u (values sr n))) e2e_metrics
          @ [ ("fail_frac", stats_json "fraction" [ fail_frac ]) ]) );
      ( "layers",
        J.Obj
          (List.map
             (fun (n, u, v) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]))
             (layers sr)) );
    ]

let print_series sr =
  Printf.printf "\n%s (jobs %d): %s, %d/%d outputs failed\n" (name sr.w) (jobs sr.w)
    (if correct sr then "correct" else "WRONG OUTPUT")
    (failed sr) (attempted sr);
  Printf.printf "  %-16s %-8s %11s %11s %11s %11s %3s\n" "metric" "unit" "median" "q1" "q3"
    "max" "n";
  List.iter
    (fun (n, u) ->
      let xs = values sr n in
      let q1, q3 = quartiles xs in
      Printf.printf "  %-16s %-8s %11.4f %11.4f %11.4f %11.4f %3d\n" n u (median xs) q1 q3
        (List.fold_left max neg_infinity xs) (List.length xs))
    e2e_metrics;
  List.iter (fun (n, u, v) -> Printf.printf "    %-34s %14.4f %s\n" n v u) (layers sr)

let cmd_e2e args =
  let reps = ref 5 and seed = ref 1 in
  let out = ref "BENCH_e2e.json" in
  let check = ref None in
  let rec parse = function
    | [] -> ()
    | "--reps" :: n :: rest ->
        (match int_of_string_opt n with Some v when v >= 1 -> reps := v | _ -> usage ());
        parse rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with Some v -> seed := v | None -> usage ());
        parse rest
    | "--out" :: f :: rest ->
        out := f;
        parse rest
    | "--check" :: d :: rest ->
        check := Some d;
        parse rest
    | _ -> usage ()
  in
  parse args;
  let trace_out = Filename.remove_extension !out ^ ".trace.json" in
  let series, probes =
    with_session ~seed:!seed (fun s ->
        (* Interleaved, so that a slow spell of the host spreads over
           every workload instead of landing on one. *)
        let runs = List.init !reps (fun _ -> List.map (fun w -> (w, rep s w)) workloads) in
        let traced = List.map (fun w -> (w, rep s ~trace:true w)) workloads in
        let series =
          List.map
            (fun w ->
              let mine = List.concat_map (List.filter (fun (w', _) -> w' = w)) runs in
              let reps =
                List.filter_map (function _, Ok r -> Some r | _, Error _ -> None) mine
              in
              let traced_r = List.assoc w traced in
              let errors =
                List.filter_map (function _, Error e -> Some e | _, Ok _ -> None)
                  (mine @ [ (w, traced_r) ])
              in
              let setups = List.map snd reps in
              {
                w;
                reps;
                setups = setups @ extra_setups s w ~have:(List.length setups);
                traced = (match traced_r with Ok (j, _) -> Some j | Error _ -> None);
                errors;
              })
            workloads
        in
        (series, List.rev s.probes))
  in
  List.iter report_problems series;
  warn_drift "the e2e set" probes;
  List.iter print_series series;
  write_json !out
    (J.Obj
       [
         ("bench", J.Str "e2e");
         ("seed", J.Int !seed);
         ("reps", J.Int !reps);
         ( "host",
           J.Obj
             [
               ("probe_s", J.List (List.map (fun p -> J.Float p) probes));
               ("drift", J.Float (drift probes));
             ] );
         ("workloads", J.Obj (List.map (fun sr -> (name sr.w, series_json sr)) series));
       ]);
  write_json trace_out
    (J.Obj
       [
         ( "workloads",
           J.Obj
             (List.filter_map
                (fun sr ->
                  Option.map
                    (fun j ->
                      ( name sr.w,
                        J.Obj
                          [ ("profile", member "profile" j); ("metrics", member "metrics" j) ]
                      ))
                    sr.traced)
                series) );
       ]);
  Printf.printf "\nwrote %s and %s\n%!" !out trace_out;
  let ok = List.for_all correct series in
  let check_ok =
    match !check with
    | None -> true
    | Some dir ->
        print_newline ();
        compare_files (read_json (Filename.concat dir "BENCH_e2e.json")) (read_json !out)
  in
  exit (if ok && check_ok then 0 else 1)

(* ---- `bless` ---- *)

let cmd_bless = function
  | [] ->
      mkdir_p golden_dir;
      with_session ~seed:1 (fun s ->
          List.iter
            (fun w ->
              match rep s ~bless:true w with
              | Ok (j, _) ->
                  Printf.printf "%s: %d outputs written\n%!" (name w)
                    (int_of (member "attempted" j))
              | Error e -> fail e)
            [ Paper_cold; Spec_c2; Sim_sweep ])
  | _ -> usage ()

(* ---- `child` ---- *)

let cmd_child args =
  let a =
    ref
      {
        Child.workload = Paper_cold;
        seed = 1;
        store = "";
        result = "";
        trace = false;
        setup_only = false;
        bless = false;
        jobs = None;
        spawned_at = 0.0;
      }
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        (match of_name w with Some w -> a := { !a with workload = w } | None -> usage ());
        parse rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with
        | Some v -> a := { !a with seed = v }
        | None -> usage ());
        parse rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some v when v >= 1 -> a := { !a with jobs = Some v }
        | _ -> usage ());
        parse rest
    | "--store" :: d :: rest ->
        a := { !a with store = d };
        parse rest
    | "--spawned-at" :: t :: rest ->
        (match float_of_string_opt t with
        | Some v -> a := { !a with spawned_at = v }
        | None -> usage ());
        parse rest
    | "--result" :: f :: rest ->
        a := { !a with result = f };
        parse rest
    | "--trace" :: rest ->
        a := { !a with trace = true };
        parse rest
    | "--setup-only" :: rest ->
        a := { !a with setup_only = true };
        parse rest
    | "--bless" :: rest ->
        a := { !a with bless = true };
        parse rest
    | _ -> usage ()
  in
  parse args;
  if !a.result = "" || !a.store = "" then usage ();
  Child.run !a

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> cmd_run rest
  | "e2e" :: rest -> cmd_e2e rest
  | "compare" :: rest -> cmd_compare rest
  | "bless" :: rest -> cmd_bless rest
  | "child" :: rest -> cmd_child rest
  | _ -> usage ()
