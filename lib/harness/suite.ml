module Spec = Ts_workload.Spec_suite

type loop_run = {
  g : Ts_ddg.Ddg.t;
  sms : Ts_sms.Sms.result;
  tms : Ts_tms.Tms.result;
}

type loop = { run : loop_run; sim_sms : Ts_spmt.Sim.stats; sim_tms : Ts_spmt.Sim.stats }

let schedule_loop ~params g =
  let sms = Cached.sms g in
  let tms = Cached.tms_sweep ~params g in
  { g; sms; tms }

let compute ?limit ?(benches = Spec.benchmarks) ~cfg () =
  let params = cfg.Ts_spmt.Config.params in
  (* A task generates, schedules and simulates one loop, all but the
     generation through {!Cached}: a rerun on the same store resumes. *)
  Ts_resil.Supervise.sweep_groups ~what:"suite"
    ~group:(fun (b : Spec.bench) -> b.name)
    ~label:string_of_int
    (fun (b : Spec.bench) i ->
      let run = schedule_loop ~params (Spec.loop b i) in
      let sim k = Cached.sim ~warmup:Defaults.warmup cfg k ~trip:b.trip in
      {
        run;
        sim_sms = sim run.sms.Ts_sms.Sms.kernel;
        sim_tms = sim run.tms.Ts_tms.Tms.kernel;
      })
    (List.map (fun b -> (b, List.init (Spec.loop_count ?limit b) Fun.id)) benches)
