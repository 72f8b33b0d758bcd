(** Table 2: SMS and TMS compared with traditional modulo-scheduling
    metrics over the whole suite.

    For each benchmark: loop count, average instruction count, average
    MII, then per scheduler the average II, MaxLive and achieved C_delay.
    The shape criteria (Section 5.1): TMS trades a somewhat larger II and
    MaxLive for a much smaller C_delay, i.e. a smaller II-to-C_delay gap —
    more TLP. *)

type row = {
  bench : string;
  n_loops : int;
  avg_inst : float;
  avg_mii : float;
  sms_ii : float;
  sms_maxlive : float;
  sms_c_delay : float;
  tms_ii : float;
  tms_maxlive : float;
  tms_c_delay : float;
}

val compute :
  params:Ts_isa.Spmt_params.t ->
  (Ts_workload.Spec_suite.bench * Suite.loop list) list ->
  row list
(** One row per benchmark of a {!Suite.compute} pass, in its order. *)

val render : row list -> string
(** The table as aligned text. *)
