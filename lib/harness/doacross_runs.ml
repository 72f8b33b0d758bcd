type loop_data = {
  g : Ts_ddg.Ddg.t;
  plan : Ts_spmt.Address_plan.t;
  sms : Ts_sms.Sms.result;
  tms : Ts_tms.Tms.result;
  sim_sms : Ts_spmt.Sim.stats;
  sim_tms : Ts_spmt.Sim.stats;
  sim_single : Ts_spmt.Single.stats;
}

type t = { sel : Ts_workload.Doacross.selected; loops : loop_data list }

let compute_loop ~cfg ~params ~trip g =
  let warmup = Defaults.warmup in
  let plan = Ts_spmt.Address_plan.create g in
  let sms = Cached.sms g in
  let tms = Cached.tms_sweep ~params g in
  {
    g;
    plan;
    sms;
    tms;
    sim_sms = Cached.sim ~warmup cfg sms.Ts_sms.Sms.kernel ~trip;
    sim_tms = Cached.sim ~warmup cfg tms.Ts_tms.Tms.kernel ~trip;
    sim_single = Cached.sim_single ~warmup cfg g ~trip;
  }

let compute ~cfg =
  let params = cfg.Ts_spmt.Config.params in
  (* Flatten to one pool task per loop (art alone holds four of the seven),
     then regroup the ordered results under their benchmarks. *)
  let tasks =
    List.concat_map
      (fun (sel : Ts_workload.Doacross.selected) ->
        List.map (fun g -> (sel, g)) sel.loops)
      Ts_workload.Doacross.all
  in
  (* Supervised like the other sweeps: with --keep-going a failed loop is
     reported and its benchmark aggregates the survivors. *)
  let datas =
    Ts_resil.Supervise.sweep_map ~what:"doacross"
      ~label:(fun _ ((sel : Ts_workload.Doacross.selected), (g : Ts_ddg.Ddg.t)) ->
        sel.bench ^ "/" ^ g.name)
      (fun ((sel : Ts_workload.Doacross.selected), (g : Ts_ddg.Ddg.t)) ->
        compute_loop ~cfg ~params ~trip:sel.trip g)
      tasks
  in
  let rec regroup sels datas =
    match sels with
    | [] -> []
    | (sel : Ts_workload.Doacross.selected) :: rest ->
        let k = List.length sel.loops in
        let mine = List.filteri (fun i _ -> i < k) datas in
        let others = List.filteri (fun i _ -> i >= k) datas in
        { sel; loops = List.filter_map Fun.id mine } :: regroup rest others
  in
  regroup Ts_workload.Doacross.all datas
