(** Thread-sensitive iterative modulo scheduling.

    Section 4.1 claims TMS "is not tied to any existing modulo scheduling
    algorithm": the Figure 3 structure — the [F(II, C_delay)] outer search
    plus the C1/C2 issue-slot admission — only needs a base scheduler that
    places one instruction at a time. This module instantiates it over
    {!Ts_sms.Ims} (Rau's iterative modulo scheduling) instead of SMS,
    substantiating the claim; the ablation bench compares the two
    instantiations. *)

type result = Tms.result = {
  kernel : Ts_modsched.Kernel.t;
  mii : int;
  c_delay_threshold : int;
  achieved_c_delay : int;
  p_max : float;
  misspec : float;
  f_min : float;
  attempts : int;
  fell_back : bool;
}

val schedule :
  ?trace:Ts_obs.Trace.t ->
  ?p_max:float ->
  ?max_ii:int ->
  ?placement:Ts_isa.Placement.policy ->
  params:Ts_isa.Spmt_params.t ->
  Ts_ddg.Ddg.t ->
  result
(** TMS-over-IMS. Falls back to plain IMS if the grid is exhausted.
    [trace] receives the same ["tms.attempt"]/["tms.fallback"]/
    ["tms.result"] events as {!Tms.schedule}, with [base = "ims"]. *)
