module Spec = Ts_workload.Spec_suite

type loop_run = {
  g : Ts_ddg.Ddg.t;
  sms : Ts_sms.Sms.result;
  tms : Ts_tms.Tms.result;
}

type loop = { run : loop_run; sim_sms : Ts_spmt.Sim.stats; sim_tms : Ts_spmt.Sim.stats }

let schedule_loop ?sms ~params g =
  let sms = match sms with Some s -> s | None -> Cached.sms g in
  let tms = Cached.tms_sweep ~sms ~params g in
  { g; sms = fst sms; tms }

let compute ?limit ?(benches = Spec.benchmarks) ~cfg () =
  let params = cfg.Ts_spmt.Config.params in
  (* A task generates, schedules and simulates one loop, all but the
     generation through {!Cached}: a rerun on the same store resumes. *)
  Ts_resil.Supervise.sweep_groups ~what:"suite"
    ~group:(fun (b : Spec.bench) -> b.name)
    ~label:string_of_int
    (fun (b : Spec.bench) i ->
      (* The generator's SMS probe is the loop's SMS: a probe that
         accepts a draw records its result and swing analysis, which are
         then the accepted loop's. Only the unprobed last-resort draw
         leaves them empty. *)
      let probed = ref None in
      let probe g =
        let s = Cached.sms g in
        probed := Some s;
        fst s
      in
      let g = Spec.loop ~probe b i in
      let run = schedule_loop ?sms:!probed ~params g in
      let sim k = Cached.sim ~warmup:Defaults.warmup cfg k ~trip:b.trip in
      {
        run;
        sim_sms = sim run.sms.Ts_sms.Sms.kernel;
        sim_tms = sim run.tms.Ts_tms.Tms.kernel;
      })
    (List.map (fun b -> (b, List.init (Spec.loop_count ?limit b) Fun.id)) benches)
