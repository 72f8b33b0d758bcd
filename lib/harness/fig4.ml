type row = {
  bench : string;
  loop_speedup : float;
  program_speedup : float;
  sms_cycles : int;
  tms_cycles : int;
}

let program_speedup_of ~coverage ~loop_speedup_pct =
  let s = 1.0 +. (loop_speedup_pct /. 100.0) in
  ((1.0 /. ((coverage /. s) +. (1.0 -. coverage))) -. 1.0) *. 100.0

let compute ?limit ~cfg () =
  let params = cfg.Ts_spmt.Config.params in
  let take l =
    match limit with
    | None -> l
    | Some k -> List.filteri (fun i _ -> i < k) l
  in
  (* One pool task per loop (flattened across benchmarks, so the pool
     stays busy through the tail of the big suites). Every schedule and
     simulation behind a loop goes through {!Cached}, so rerunning a
     killed sweep on the same store recomputes only the loops it lost. *)
  let tasks =
    List.concat_map
      (fun (bench : Ts_workload.Spec_suite.bench) ->
        List.map
          (fun g -> (bench, g))
          (take (Ts_workload.Spec_suite.loops bench)))
      Ts_workload.Spec_suite.benchmarks
  in
  (* Supervised: a failing loop is retried under the run policy; with
     --keep-going it is reported and excluded (its bench aggregates the
     survivors), without it the sweep raises the full failure list. *)
  let totals =
    Ts_resil.Supervise.sweep_map ~what:"fig4"
      ~label:(fun _ ((bench : Ts_workload.Spec_suite.bench), (g : Ts_ddg.Ddg.t)) ->
        bench.name ^ "/" ^ g.name)
      (fun ((bench : Ts_workload.Spec_suite.bench), (g : Ts_ddg.Ddg.t)) ->
        let r = Suite.schedule_loop ~params g in
        let trip = bench.trip and warmup = Defaults.warmup in
        let sms = Cached.sim ~warmup cfg r.Suite.sms.Ts_sms.Sms.kernel ~trip in
        let tms = Cached.sim ~warmup cfg r.Suite.tms.Ts_tms.Tms.kernel ~trip in
        (sms.Ts_spmt.Sim.cycles, tms.Ts_spmt.Sim.cycles))
      tasks
  in
  List.map
    (fun (bench : Ts_workload.Spec_suite.bench) ->
      let mine =
        List.filter_map
          (fun ((b : Ts_workload.Spec_suite.bench), t) ->
            if b.name = bench.name then t else None)
          (List.combine (List.map fst tasks) totals)
      in
      let sms_cycles = List.fold_left (fun a (s, _) -> a + s) 0 mine in
      let tms_cycles = List.fold_left (fun a (_, t) -> a + t) 0 mine in
      let loop_speedup =
        Ts_base.Stats.speedup_percent
          ~baseline:(float_of_int sms_cycles)
          ~improved:(float_of_int tms_cycles)
      in
      {
        bench = bench.name;
        loop_speedup;
        program_speedup =
          program_speedup_of ~coverage:bench.coverage ~loop_speedup_pct:loop_speedup;
        sms_cycles;
        tms_cycles;
      })
    Ts_workload.Spec_suite.benchmarks

let averages rows =
  ( Ts_base.Stats.mean (List.map (fun r -> r.loop_speedup) rows),
    Ts_base.Stats.mean (List.map (fun r -> r.program_speedup) rows) )

let render rows =
  let open Ts_base.Tablefmt in
  let t =
    create ~title:"Figure 4: speedups of TMS over SMS (quad-core SpMT)"
      [
        ("Benchmark", Left); ("SMS cycles", Right); ("TMS cycles", Right);
        ("Loop speedup", Right); ("Program speedup", Right);
      ]
  in
  List.iter
    (fun r ->
      add_row t
        [
          r.bench; cell_int r.sms_cycles; cell_int r.tms_cycles;
          cell_pct r.loop_speedup; cell_pct r.program_speedup;
        ])
    rows;
  let lavg, pavg = averages rows in
  add_sep t;
  add_row t [ "average"; ""; ""; cell_pct lavg; cell_pct pavg ];
  render t
