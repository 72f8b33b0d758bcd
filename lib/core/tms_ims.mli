(** Thread-sensitive iterative modulo scheduling.

    Section 4.1 claims TMS "is not tied to any existing modulo scheduling
    algorithm": the Figure 3 structure — the [F(II, C_delay)] outer search
    plus the C1/C2 issue-slot admission — only needs a base scheduler that
    places one instruction at a time. This module instantiates it over
    {!Ts_sms.Ims} (Rau's iterative modulo scheduling) instead of SMS,
    substantiating the claim; the ablation bench compares the two
    instantiations. The outer search is {!Tms.search}, the same walk
    TMS-over-SMS runs; only the grid-point attempt and the fallback
    differ. *)

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
  ?placement:Ts_isa.Placement.policy ->
  ?ims:Ts_sms.Ims.result ->
  params:Ts_isa.Spmt_params.t ->
  Ts_ddg.Ddg.t ->
  result
(** TMS-over-IMS at {!Tms.default_p_max}, on the grid {!Tms.schedule}
    walks. Each grid point is one {!Ts_sms.Ims.try_ii} pass under
    {!Tms.admissible}; a kernel whose IMS evictions broke its C1 or C2
    claim is rejected. The loop's IMS result [ims] (computed here when
    not given) gives the MII and the fallback kernel.
    Counts on the [tms.*] search counters like {!Tms.schedule}, except
    the [tms.slots.*] verdicts, which IMS does not report. *)
