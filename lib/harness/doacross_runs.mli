(** Shared scheduling + simulation pass over the Table 3 DOACROSS loops,
    reused by Table 3, Figure 5, Figure 6 and the speculation ablation. *)

type loop_data = {
  g : Ts_ddg.Ddg.t;
  sms : Ts_sms.Sms.result;
  tms : Ts_tms.Tms.result;
  sim_sms : Ts_spmt.Sim.stats;
  sim_tms : Ts_spmt.Sim.stats;
  sim_single : Ts_spmt.Single.stats;
}

type t = { sel : Ts_workload.Doacross.selected; loops : loop_data list }

val compute : cfg:Ts_spmt.Config.t -> t list
(** Schedule and simulate all seven loops (SMS, TMS, single-threaded, one
    shared address plan per loop, {!Defaults.warmup} warm-up iterations).
    Results go through {!Cached}, so rerunning an interrupted sweep on
    the same store recomputes only the loops it lost. The sweep is
    supervised: under {!Ts_resil.Supervise.keep_going} a failed loop is
    recorded and its benchmark aggregates the survivors. *)
