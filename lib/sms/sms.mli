(** Swing modulo scheduling (the paper's baseline).

    For each candidate II starting at MII, walk the nodes in the
    {!Order.compute_with_dirs} order (the {!swing} analysis) and place each at the first resource-feasible
    cycle of its scheduling window ({!Ts_modsched.Sched.window}) — the
    "lifetime-minimal" strategy whose inter-thread behaviour TMS improves.
    If any node cannot be placed the II is increased and the schedule
    restarted, exactly as in GCC 4.1.1. *)

type result = {
  kernel : Ts_modsched.Kernel.t;
  mii : int;  (** the MII the search started from *)
  attempts : int;  (** IIs tried, including the successful one *)
}

exception No_schedule of string
(** Raised when no II up to the bound admits a schedule (indicates a
    malformed machine/loop pair; cannot happen for loops our generators
    emit). *)

type swing = { mii : int; order : (int * Ts_modsched.Sched.direction) list }
(** The swing analysis: MII and {!Order.compute_with_dirs} at it. TMS
    takes the same order as its [Q_0] (Figure 3, line 3). *)

val swing : Ts_ddg.Ddg.t -> swing
(** The one function SMS and TMS build the analysis with. *)

val schedule :
  ?trace:Ts_obs.Trace.t -> ?max_ii:int -> ?swing:swing Lazy.t -> Ts_ddg.Ddg.t -> result
(** Schedule a loop. [max_ii] defaults to {!Ts_ddg.Mii.ii_upper_bound}.

    [swing] is [lazy (swing g)], shared with {!Ts_tms.Tms.schedule} so
    that the loop builds it once; it changes no result. It is forced on
    the calling domain; two domains must not force it at once.

    [trace] (default {!Ts_obs.Trace.null}) receives ["sms.order"] and
    ["sms.placement"] phase spans on the tracer's logical clock, plus one
    ["sms.attempt"] instant event per II tried. Attempt totals are counted
    on {!Ts_obs.Metrics.default} under [sms.*]. *)

val try_ii :
  Ts_ddg.Ddg.t ->
  ii:int ->
  order:(int * Ts_modsched.Sched.direction) list ->
  Ts_modsched.Kernel.t option
(** One SMS attempt at a fixed II with a precomputed order, exposed for
    tests. {!Ts_tms.Tms.try_schedule} is the same inner loop with the
    C1/C2 admission checks. *)
