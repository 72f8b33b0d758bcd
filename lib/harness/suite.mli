(** The pass over the synthetic SPECfp2000 suite that Table 2 and
    Figure 4 aggregate: every loop scheduled by SMS and TMS, and both
    kernels simulated, once per run. *)

type loop_run = {
  g : Ts_ddg.Ddg.t;
  sms : Ts_sms.Sms.result;
  tms : Ts_tms.Tms.result;
}

type loop = {
  run : loop_run;
  sim_sms : Ts_spmt.Sim.stats;  (** the SMS kernel over the bench's trip *)
  sim_tms : Ts_spmt.Sim.stats;  (** the TMS kernel, same address plan *)
}

val schedule_loop : params:Ts_isa.Spmt_params.t -> Ts_ddg.Ddg.t -> loop_run
(** SMS plus the TMS [P_max] sweep on one loop. *)

val compute :
  ?limit:int ->
  ?benches:Ts_workload.Spec_suite.bench list ->
  cfg:Ts_spmt.Config.t ->
  unit ->
  (Ts_workload.Spec_suite.bench * loop list) list
(** Every loop of [benches] (default: all 13, in Table 2 order), or the
    first [limit] of each, generated, scheduled ({!schedule_loop}) and
    simulated on [cfg] with the bench's trip and {!Defaults.warmup}. One
    {!Ts_resil.Supervise.sweep_groups} task per loop, labelled
    ["suite:<bench>/<i>"]. *)
