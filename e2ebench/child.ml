(* One rep of one workload, run in a fresh process so that every rep pays
   the same module initialisation and starts from an empty heap.

   The rep sets up its inputs, runs the timed section, and only then
   checks its outputs: every SMS and TMS kernel against
   Ts_check.Invariant (the independent reference) and, where a golden
   snapshot applies, every per-loop row and the rendered paper text
   against the files under golden/. A traced rep additionally enables
   the library's Prof profiler from outside, wraps each call the
   benchmark itself makes into a layer in a span of its own, and reports
   the per-layer metrics. The result goes to a JSON file the parent
   reads. *)

open Common
module M = Ts_obs.Metrics
module P = Ts_obs.Prof
module K = Ts_modsched.Kernel
module Inv = Ts_check.Invariant
module Cached = Ts_harness.Cached
module Suite = Ts_harness.Suite
module Sim = Ts_spmt.Sim
module Rng = Ts_base.Rng
module Spec = Ts_workload.Spec_suite

let params = Ts_isa.Spmt_params.default
let cfg = Ts_spmt.Config.default
let now = Unix.gettimeofday

(* Input sizes, chosen so that one timed section of spec-c2 or sim-sweep
   takes a few seconds on a two-core box. *)
let spec_c2_loops = 320
let spec_c2_trip = 400 (* the suite's own trip count *)
let sim_sweep_loops = 48
let sim_sweep_trip = 4000

(* spec-c2 draws its memory-dependence probabilities from this range,
   where the suite uses 0.0001-0.0006: high enough that C2 rejects slots
   and the simulator squashes threads. *)
let spec_c2_mem_prob = (0.02, 0.3)

let counter name = M.counter_value (M.counter M.default name)

(* ---- inputs ---- *)

(* The suite benchmarks whose profiles the generated workloads draw
   from: all but lucas, whose 100-240 instruction loops cost up to a
   hundred times a typical loop's search, so that a dozen of them would
   decide the timings of a seed (paper-cold still runs lucas). *)
let profiles =
  Array.of_list
    (List.filter (fun (b : Spec.bench) -> b.avg_inst < 100.0) Spec.benchmarks)

(* Loop [i] has the profile of benchmark [i mod 12]: its instruction
   count within ±40% of Table 2's average, its recurrence share and its
   op mix, as Spec_suite builds its own loops. The size and the
   recurrence class come from the index alone, so that every seed asks
   for the same amount of work; the seed draws the loop body. A body SMS
   cannot schedule is redrawn, as the suite does. *)
let gen_loop ~tag ~seed ?mem_prob i =
  let b = profiles.(i mod Array.length profiles) in
  let shape = Rng.of_string (Printf.sprintf "e2e/%s/%d" tag i) in
  let lo = int_of_float (b.avg_inst *. 0.6)
  and hi = int_of_float (b.avg_inst *. 1.4) in
  let n_inst = max 6 (Rng.int_in shape lo (max lo hi)) in
  let recurrence = Rng.bool shape b.rec_frac in
  let target_rec_ii =
    if recurrence then
      Some
        (max 2
           (int_of_float
              (Float.round (b.avg_mii *. float_of_int n_inst /. b.avg_inst))))
    else None
  in
  let rec draw attempt =
    if attempt > 20 then
      failwith (Printf.sprintf "%s_%d: no draw that SMS can schedule" tag i);
    let rng =
      Rng.of_string (Printf.sprintf "e2e/%s/%d/%d/try%d" tag seed i attempt)
    in
    let profile =
      {
        Ts_workload.Gen.default_profile with
        name = Printf.sprintf "%s_%d" tag i;
        n_inst;
        target_rec_ii;
        mem_prob = Option.value mem_prob ~default:b.mem_prob;
        fp_frac = b.fp_frac;
        fmul_frac = b.fmul_frac;
        self_loop_rate = (if recurrence then 0.10 else 0.12);
        n_extra_sccs = (if recurrence then Rng.int rng 2 else 0);
      }
    in
    let g = Ts_workload.Gen.generate rng profile in
    match Ts_sms.Sms.schedule g with
    | (_ : Ts_sms.Sms.result) -> g
    | exception Ts_sms.Sms.No_schedule _ -> draw (attempt + 1)
  in
  draw 0

let doacross_loops () =
  List.concat_map
    (fun (sel : Ts_workload.Doacross.selected) ->
      List.map (fun g -> (sel, g)) sel.loops)
    Ts_workload.Doacross.all

(* The three machines sim-sweep simulates every kernel on: Table 1's
   quad core and an 8-core ring (both homogeneous, so the simulator's
   fast path engages), and a big.LITTLE ring under locality placement
   (where it switches itself off). *)
let machines () =
  let hetero =
    match Ts_isa.Spmt_params.mix_of_string "2fast+2slow" with
    | Ok m -> Ts_isa.Spmt_params.apply_mix params m
    | Error e -> failwith e
  in
  [
    ("table1", cfg);
    ("8core", Ts_spmt.Config.with_ncore cfg 8);
    ( "2fast2slow",
      Ts_spmt.Config.with_placement { cfg with params = hetero }
        Ts_isa.Placement.Locality );
  ]

(* ---- per-loop outputs and their checks ---- *)

(* A loop's schedules and its (SMS, TMS) simulation pairs, or the error
   that stopped it. *)
type loop_out = {
  label : string;
  out : (Suite.loop_run * (Sim.stats * Sim.stats) list, string) result;
}

let run_loop ~label f =
  { label; out = (try Ok (f ()) with e -> Error (Printexc.to_string e)) }

let tsv_header = function
  | Sim_sweep ->
      "loop\tsms_ii\ttms_ii\tc_delay\tp_max"
      ^ String.concat ""
          (List.map
             (fun (m, _) ->
               Printf.sprintf
                 "\t%s.sms_cycles\t%s.tms_cycles\t%s.sms_squashes\t%s.tms_squashes"
                 m m m m)
             (machines ()))
  | _ ->
      "loop\tsms_ii\ttms_ii\tc_delay\tp_max\tsms_cycles\ttms_cycles\tsms_squashes\t\
       tms_squashes"

let tsv_row l =
  match l.out with
  | Error _ -> l.label ^ "\tERROR"
  | Ok ((r : Suite.loop_run), sims) ->
      String.concat "\t"
        (l.label
         :: string_of_int r.sms.kernel.K.ii
         :: string_of_int r.tms.kernel.K.ii
         :: string_of_int r.tms.achieved_c_delay
         :: Printf.sprintf "%g" r.tms.p_max
         :: List.concat_map
              (fun ((s : Sim.stats), (t : Sim.stats)) ->
                List.map string_of_int [ s.cycles; t.cycles; s.squashes; t.squashes ])
              sims)

(* Every kernel invariant, re-derived from first principles; the TMS
   kernel also against the C1/C2 thresholds its search claims. *)
let kernel_problems (r : Suite.loop_run) =
  let claim =
    if r.tms.fell_back then None
    else
      Some
        {
          Inv.c_delay = r.tms.c_delay_threshold;
          p_max = r.tms.p_max;
          c_reg_com = params.Ts_isa.Spmt_params.c_reg_com;
        }
  in
  let tag who =
    List.map (fun v -> who ^ " " ^ Format.asprintf "%a" Inv.pp_violation v)
  in
  tag "sms" (Inv.check_kernel r.sms.kernel)
  @ tag "tms" (Inv.check_kernel ?claim r.tms.kernel)

let golden_rows path =
  let tbl = Hashtbl.create 1024 in
  (match String.split_on_char '\n' (try read_file path with Sys_error _ -> "") with
  | _header :: rows ->
      List.iter
        (fun line ->
          match String.index_opt line '\t' with
          | Some i -> Hashtbl.replace tbl (String.sub line 0 i) line
          | None -> ())
        rows
  | [] -> ());
  tbl

(* The problems of each loop ([] = the loop is correct). *)
let check_loops ~golden outs =
  let golden = Option.map golden_rows golden in
  Ts_base.Parallel.map
    (fun l ->
      let row = tsv_row l in
      let mismatch =
        match golden with
        | None -> []
        | Some tbl -> (
            match Hashtbl.find_opt tbl l.label with
            | Some want when want = row -> []
            | Some want -> [ Printf.sprintf "row %S differs from golden %S" row want ]
            | None -> [ "no golden row" ])
      in
      let problems =
        match l.out with
        | Error e -> [ "raised " ^ e ]
        | Ok (r, _) -> kernel_problems r
      in
      List.map (fun p -> l.label ^ ": " ^ p) (problems @ mismatch))
    outs

(* Summed simulated cycles of every (SMS, TMS) pair. *)
let cycle_sums outs =
  List.fold_left
    (fun (a, b) l ->
      match l.out with
      | Error _ -> (a, b)
      | Ok (_, sims) ->
          List.fold_left
            (fun (a, b) ((s : Sim.stats), (t : Sim.stats)) ->
              (a + s.cycles, b + t.cycles))
            (a, b) sims)
    (0, 0) outs

(* The suite's loops as (benchmark, trip, loop): the paper workloads'
   inputs, generated by the bench for its checks the way the experiments
   generate them for themselves. *)
let suite_loops () =
  Ts_base.Parallel.map
    (fun (b : Spec.bench) ->
      List.map (fun (g : Ts_ddg.Ddg.t) -> (b.name, b.trip, g)) (Spec.loops b))
    Spec.benchmarks
  |> List.concat

(* The paper workloads' loops, with the schedules and simulations the
   timed run left in the result store. *)
let paper_outs suite =
  let doacross =
    List.map
      (fun ((sel : Ts_workload.Doacross.selected), (g : Ts_ddg.Ddg.t)) ->
        (sel.bench, sel.trip, g))
      (doacross_loops ())
  in
  Ts_base.Parallel.map
    (fun (bench, trip, (g : Ts_ddg.Ddg.t)) ->
      run_loop ~label:(bench ^ "/" ^ g.name) (fun () ->
          let r = Suite.schedule_loop ~params g in
          ( r,
            [ (Cached.sim cfg r.sms.kernel ~trip, Cached.sim cfg r.tms.kernel ~trip) ] )))
    (suite @ doacross)

(* ---- per-layer metrics (traced reps) ---- *)

let starts_with p s = String.starts_with ~prefix:p s

(* Which layer a Prof span belongs to. The bench's own spans are e2e.*
   (the timed section), harness.loop (one per loop) and workload.gen. *)
let layer_of span =
  if span = "sms.schedule" then "sms"
  else if span = "tms.search" || span = "tms_ims.search" then "tms"
  else if starts_with "sim." span then "spmt"
  else if starts_with "cached." span || starts_with "persist." span then "cache"
  else if starts_with "workload." span then "workload"
  else "harness"

let dir_stats dir =
  let rec walk (files, bytes) path =
    match Sys.is_directory path with
    | true ->
        Array.fold_left
          (fun acc f -> walk acc (Filename.concat path f))
          (files, bytes) (Sys.readdir path)
    | false -> (files + 1, bytes + (Unix.stat path).Unix.st_size)
    | exception Sys_error _ -> (files, bytes)
  in
  walk (0, 0) dir

type traced = {
  report : P.report;
  reg : M.registry;  (* copy of the metrics registry at the end of the timed section *)
  loop_ms : float list;
  split : (string * float * int) list;  (* machine, sim seconds, simulated cycles *)
}

(* [gen] is the generation's wall time, loops and SMS probes. *)
let layer_metrics t ~workload ~wall ~cpu ~store ~mcycles ~gen =
  (* [f] summed over the Prof rows whose span name satisfies [keep]. *)
  let over keep f =
    List.fold_left
      (fun a (r : P.row) -> if keep r.name then a +. f r else a)
      0.0 t.report.P.rows
  in
  let self_s (r : P.row) = r.self_s and count (r : P.row) = float_of_int r.count in
  let in_layer l n = layer_of n = l in
  let self l = over (in_layer l) self_s in
  let mwords l = over (in_layer l) (fun r -> r.self_mwords) in
  let calls l = over (in_layer l) count in
  let c name = float_of_int (M.counter_value (M.counter t.reg name)) in
  let h name = M.histogram t.reg name in
  let q name p =
    let v = M.quantile (h name) p in
    if Float.is_nan v then 0.0 else v
  in
  let hsum name = M.histogram_sum (h name) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let gen_s, gen_loops, probes =
    match gen with
    | Some (s, n, p) -> (s, float_of_int n, float_of_int p)
    | None -> (0.0, 0.0, 0.0)
  in
  let slots = [ "admitted"; "c1_reject"; "c2_reject"; "resource_reject" ] in
  let slot s = c ("tms.slots." ^ s) in
  let slots_tried = List.fold_left (fun a s -> a +. slot s) 0.0 slots in
  let searches = calls "tms" and attempts = c "tms.attempts" in
  let sim_s = self "spmt" and threads = c "sim.threads" in
  (* sim.threads counts measured iterations only; the fast path also
     extrapolates warm-up threads, and every Sim.run here warms up for
     Defaults.warmup iterations. *)
  let simulated =
    threads
    +. (float_of_int Ts_harness.Defaults.warmup *. over (starts_with "sim.run.") count)
  in
  (* The paper workloads' cycles come from the store after the run: they
     were simulated in the timed section only if the simulator ran. *)
  let mcycles = if calls "spmt" > 0.0 then mcycles else 0.0 in
  let hits = c "persist.hits" and misses = c "persist.misses" in
  let files, bytes = match store with Some d -> dir_stats d | None -> (0, 0) in
  let jobs = float_of_int (jobs workload) in
  let split =
    List.concat_map
      (fun (m, _) ->
        let s, cyc =
          match List.find_opt (fun (m', _, _) -> m' = m) t.split with
          | Some (_, s, cyc) -> (s, float_of_int cyc)
          | None -> (0.0, 0.0)
        in
        [
          ("sim.self_s." ^ m, "s", s);
          ("sim.ns_per_cycle." ^ m, "ns", ratio (s *. 1e9) cyc);
        ])
      (machines ())
  in
  [
    ("workload.gen_s", "s", gen_s);
    ("workload.loops", "count", gen_loops);
    ("workload.sms_probes", "count", probes);
    ("sms.calls", "count", calls "sms");
    ("sms.self_s", "s", self "sms");
    ("sms.self_mwords", "Mwords", mwords "sms");
    ("sms.ii_attempts", "count", c "sms.attempts");
    ("tms.searches", "count", searches);
    ("tms.self_s", "s", self "tms");
    ("tms.self_mwords", "Mwords", mwords "tms");
    ("tms.attempts", "count", attempts);
    ("tms.attempts_per_search", "count", ratio attempts searches);
    ("tms.attempt_ms.p50", "ms", q "tms.attempt_ms" 0.5);
    ("tms.attempt_ms.p99", "ms", q "tms.attempt_ms" 0.99);
  ]
  @ List.map (fun s -> ("tms.slots." ^ s, "count", slot s)) slots
  @ [
      ("tms.slot_admit_ratio", "ratio", ratio (slot "admitted") slots_tried);
      ("tms.warm.point_hits", "count", c "tms.warm.point_hits");
      ("tms.point_hit_ratio", "ratio", ratio (c "tms.warm.point_hits") attempts);
      ("tms.fallbacks", "count", c "tms.fallbacks");
      ("sim.runs", "count", calls "spmt");
      ("sim.self_s", "s", sim_s);
      ("sim.self_mwords", "Mwords", mwords "spmt");
      ("sim.threads", "count", threads);
      ("sim.mcycles", "Mcycles", mcycles);
      ("sim.ns_per_cycle", "ns", ratio (sim_s *. 1e9) (mcycles *. 1e6));
    ]
  @ split
  @ [
      ("sim.squashes", "count", c "sim.squashes");
      ("sim.squash_ratio", "ratio", ratio (c "sim.squashes") threads);
      ( "sim.fastpath.extrapolated_frac",
        "ratio",
        ratio (c "sim.fastpath.extrapolated_threads") simulated );
      ("cache.hits", "count", hits);
      ("cache.misses", "count", misses);
      ("cache.stores", "count", c "persist.stores");
      ("cache.hit_ratio", "ratio", ratio hits (hits +. misses));
      ("cache.read_s", "s", over (( = ) "persist.read") self_s);
      ( "cache.write_s",
        "s",
        over (fun n -> n = "persist.write" || n = "persist.journal.write") self_s );
      ("cache.read_ms.p99", "ms", q "persist.read_ms" 0.99);
      ("cache.write_ms.p99", "ms", q "persist.write_ms" 0.99);
      ("cache.reconstruct_s", "s", over (starts_with "cached.") self_s);
      ("cache.store_mb", "MiB", float_of_int bytes /. 1048576.0);
      ("cache.store_files", "count", float_of_int files);
      ("pool.tasks", "count", c "pool.tasks");
      ("pool.steals", "count", c "pool.steals");
      ("pool.idle_s", "s", hsum "pool.idle_ms" /. 1000.0);
      (* The pool's own per-map busy times count a nested map inside its
         parent's task again, so busy time is the CPU time the process
         burned over the timed section. *)
      ("pool.busy_s", "s", cpu);
      ("pool.efficiency", "ratio", ratio cpu (wall *. jobs));
      ("pool.task_ms.p99", "ms", q "pool.task_ms" 0.99);
      ("harness.self_s", "s", self "harness");
      ("harness.loop_ms.p50", "ms", percentile t.loop_ms 0.5);
      ("harness.loop_ms.p98", "ms", percentile t.loop_ms 0.98);
      ("obs.prof_coverage", "ratio", P.coverage t.report);
    ]

(* ---- process-level measurements ---- *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Words allocated so far, after a minor collection so that the counts
   of live pool domains are included. *)
let words () =
  Gc.minor ();
  let q = Gc.quick_stat () in
  q.Gc.minor_words +. q.Gc.major_words -. q.Gc.promoted_words

let peak_rss_mb () =
  let status = In_channel.with_open_text "/proc/self/status" In_channel.input_all in
  let line =
    List.find
      (fun l -> starts_with "VmHWM:" l)
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)


(* ---- the rep ---- *)

type args = {
  workload : workload;
  seed : int;
  store : string;  (* result store of the paper workloads *)
  result : string;  (* where the result JSON goes *)
  trace : bool;
  setup_only : bool;  (* stop where the timed section would start *)
  bless : bool;  (* write the golden files instead of comparing *)
  jobs : int option;  (* pool size, when not the workload's own *)
  spawned_at : float;  (* when the parent spawned this process *)
}

type prepared = Paper | Loops of Ts_ddg.Ddg.t list | Kernels of loop_out list

(* What the timed section produced: the rendered paper text, or the
   loops' outputs. *)
type produced = Text of (string, string) result | Outs of loop_out list

let golden_tsv a =
  match a.workload with
  | Paper_cold | Paper_warm -> Some (Filename.concat golden_dir "paper.tsv")
  | Spec_c2 | Sim_sweep when a.seed = 1 ->
      Some (Filename.concat golden_dir (name a.workload ^ ".seed1.tsv"))
  | Spec_c2 | Sim_sweep -> None

(* Generate the inputs, recording in [gen] how long it took, how many
   loops it made and how many SMS probes that cost. *)
let generate ~gen f =
  let p0 = counter "sms.schedules" and t0 = now () in
  let loops = P.span "workload.gen" f in
  gen := Some (now () -. t0, List.length loops, counter "sms.schedules" - p0);
  loops

let prepare a ~gen =
  let generate f = generate ~gen f in
  match a.workload with
  | Paper_cold | Paper_warm ->
      Cached.set_store (Some (Ts_persist.open_store ~dir:a.store));
      Paper
  | Spec_c2 ->
      Loops
        (generate (fun () ->
             List.init spec_c2_loops
               (gen_loop ~tag:"c2" ~seed:a.seed ~mem_prob:spec_c2_mem_prob)))
  | Sim_sweep ->
      let loops =
        generate (fun () -> List.init sim_sweep_loops (gen_loop ~tag:"sweep" ~seed:a.seed))
        @ List.map snd (doacross_loops ())
      in
      Kernels
        (List.map
           (fun (g : Ts_ddg.Ddg.t) ->
             run_loop ~label:g.name (fun () -> (Suite.schedule_loop ~params g, [])))
           loops)

(* The timed section. [loop_ms] and [split] collect the per-loop times
   and the per-machine simulator time for the traced rep. *)
let timed prepared ~loop_ms ~split =
  let time_loop label f =
    let t = now () in
    let l = P.span "harness.loop" (fun () -> run_loop ~label f) in
    (l, (now () -. t) *. 1000.0)
  in
  match prepared with
  | Paper -> (
      let buf = Buffer.create 65536 in
      match
        Ts_harness.Experiments.run ~names:paper_names (fun block ->
            Buffer.add_string buf block;
            Buffer.add_char buf '\n')
      with
      | () -> Text (Ok (Buffer.contents buf))
      | exception e -> Text (Error (Printexc.to_string e)))
  | Loops loops ->
      let outs =
        Ts_base.Parallel.map
          (fun (g : Ts_ddg.Ddg.t) ->
            time_loop g.name (fun () ->
                let r = Suite.schedule_loop ~params g in
                let sim k = Cached.sim cfg k ~trip:spec_c2_trip in
                (r, [ (sim r.sms.kernel, sim r.tms.kernel) ])))
          loops
      in
      loop_ms := List.map snd outs;
      Outs (List.map fst outs)
  | Kernels kernels ->
      let ms = machines () in
      let acc = Array.make (List.length ms) (0.0, 0) in
      let outs =
        List.map
          (fun l ->
            match l.out with
            | Error _ -> (l, None)
            | Ok ((r : Suite.loop_run), _) ->
                time_loop l.label (fun () ->
                    ( r,
                      List.mapi
                        (fun i (_, mcfg) ->
                          let t = now () in
                          let sim k =
                            Sim.run ~warmup:Ts_harness.Defaults.warmup ~fast:true
                              mcfg k ~trip:sim_sweep_trip
                          in
                          let s = sim r.sms.kernel and u = sim r.tms.kernel in
                          let secs, cyc = acc.(i) in
                          acc.(i) <- (secs +. now () -. t, cyc + s.cycles + u.cycles);
                          (s, u))
                        ms ))
                |> fun (l, ms) -> (l, Some ms))
          kernels
      in
      loop_ms := List.filter_map snd outs;
      split := List.mapi (fun i (m, _) -> (m, fst acc.(i), snd acc.(i))) ms;
      Outs (List.map fst outs)

let check_text a text =
  let path = Filename.concat golden_dir "paper.txt" in
  if a.bless then (write_file path text; [])
  else
    match read_file path with
    | want when want = text -> []
    | _ -> [ "paper text differs from " ^ path ]
    | exception Sys_error e -> [ e ]

let run a =
  if a.trace then P.set_enabled true;
  Ts_base.Parallel.set_jobs (Option.value a.jobs ~default:(jobs a.workload));
  let gen = ref None in
  let prepared = prepare a ~gen in
  let base = [ ("setup_s", J.Float (now () -. a.spawned_at)) ] in
  if a.setup_only then write_json a.result (J.Obj base)
  else begin
    if a.trace then begin
      P.reset ();
      M.reset M.default
    end;
    let loop_ms = ref [] and split = ref [] in
    let w0 = words () in
    let c0 = cpu_s () in
    let t0 = now () in
    let produced =
      P.span ("e2e." ^ name a.workload) (fun () -> timed prepared ~loop_ms ~split)
    in
    let wall = now () -. t0 in
    let traced =
      if a.trace then begin
        let report = P.report () in
        let reg = M.create () in
        M.merge ~src:M.default ~into:reg;
        P.set_enabled false;
        Some { report; reg; loop_ms = !loop_ms; split = !split }
      end
      else None
    in
    let cpu = cpu_s () -. c0 in
    let alloc = (words () -. w0) /. 1e6 in
    let rss = peak_rss_mb () in
    (* The paper checks need the suite's loops. Generating them here, at
       the workload's jobs level, also gives the workload layer numbers
       of its own: the timed run repeats this generation. *)
    let suite =
      match produced with
      | Text (Ok _) -> generate ~gen suite_loops
      | Text (Error _) | Outs _ -> []
    in
    (* The checks are outside the timed section: use both cores. *)
    Ts_base.Parallel.set_jobs 2;
    let outs, text_problems =
      match produced with
      | Text (Ok text) -> (paper_outs suite, check_text a text)
      | Text (Error e) -> ([], [ "experiments raised " ^ e ])
      | Outs outs -> (outs, [])
    in
    let loop_problems =
      match golden_tsv a with
      | Some path when a.bless ->
          write_file path
            (String.concat "\n" (tsv_header a.workload :: List.map tsv_row outs) ^ "\n");
          check_loops ~golden:None outs
      | golden -> check_loops ~golden outs
    in
    let failed =
      List.length (List.filter (fun p -> p <> []) loop_problems)
      + List.length text_problems
    in
    let attempted =
      List.length outs + match produced with Text _ -> 1 | Outs _ -> 0
    in
    let sms_cycles, tms_cycles = cycle_sums outs in
    let speedup =
      if tms_cycles > 0 then
        Ts_base.Stats.speedup_percent ~baseline:(float_of_int sms_cycles)
          ~improved:(float_of_int tms_cycles)
      else Float.nan
    in
    let problems = text_problems @ List.concat loop_problems in
    let traced_fields =
      match traced with
      | None -> []
      | Some t ->
          let store =
            match a.workload with
            | Paper_cold | Paper_warm -> Some a.store
            | Spec_c2 | Sim_sweep -> None
          in
          let mcycles = float_of_int (sms_cycles + tms_cycles) /. 1e6 in
          let layers =
            layer_metrics t ~workload:a.workload ~wall ~cpu ~store ~mcycles ~gen:!gen
          in
          [
            ( "layers",
              J.List
                (List.map
                   (fun (n, u, v) ->
                     J.Obj [ ("name", J.Str n); ("unit", J.Str u); ("value", J.Float v) ])
                   layers) );
            ("profile", P.to_json t.report);
            ("metrics", M.to_json t.reg);
          ]
    in
    write_json a.result
      (J.Obj
         (base
         @ [
             ("wall_s", J.Float wall);
             ("cpu_s", J.Float cpu);
             ("alloc_mwords", J.Float alloc);
             ("peak_rss_mb", J.Float rss);
             ("tms_speedup_pct", J.Float speedup);
             ("attempted", J.Int attempted);
             ("failed", J.Int failed);
             ( "problems",
               J.List
                 (List.filteri (fun i _ -> i < 20) problems |> List.map (fun p -> J.Str p)) );
           ]
         @ traced_fields))
  end
