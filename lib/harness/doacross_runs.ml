type loop_data = {
  g : Ts_ddg.Ddg.t;
  sms : Ts_sms.Sms.result;
  tms : Ts_tms.Tms.result;
  sim_sms : Ts_spmt.Sim.stats;
  sim_tms : Ts_spmt.Sim.stats;
  sim_single : Ts_spmt.Single.stats;
}

type t = { sel : Ts_workload.Doacross.selected; loops : loop_data list }

let compute_loop ~cfg ~params ~trip g =
  let warmup = Defaults.warmup in
  let sms = Cached.sms g in
  let tms = Cached.tms_sweep ~params g in
  {
    g;
    sms;
    tms;
    sim_sms = Cached.sim ~warmup cfg sms.Ts_sms.Sms.kernel ~trip;
    sim_tms = Cached.sim ~warmup cfg tms.Ts_tms.Tms.kernel ~trip;
    sim_single = Cached.sim_single ~warmup cfg g ~trip;
  }

let compute ~cfg =
  let params = cfg.Ts_spmt.Config.params in
  (* One supervised pool task per loop (art alone holds four of the
     seven); with --keep-going a failed loop is reported and its
     benchmark aggregates the survivors. *)
  Ts_resil.Supervise.sweep_groups ~what:"doacross"
    ~group:(fun (sel : Ts_workload.Doacross.selected) -> sel.bench)
    ~label:(fun (g : Ts_ddg.Ddg.t) -> g.name)
    (fun (sel : Ts_workload.Doacross.selected) g ->
      compute_loop ~cfg ~params ~trip:sel.trip g)
    (List.map (fun (sel : Ts_workload.Doacross.selected) -> (sel, sel.loops))
       Ts_workload.Doacross.all)
  |> List.map (fun (sel, loops) -> { sel; loops })
