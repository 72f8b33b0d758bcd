(** Thread-sensitive modulo scheduling (Figure 3) — the paper's
    contribution.

    TMS wraps the SMS inner loop with two changes:

    + instead of minimising II alone, it minimises the cost-model objective
      [F (II, C_delay)] ({!Cost_model.f_value}): candidate
      [(II, C_delay)] pairs are tried in increasing order of [F], starting
      from [F (MII, 1 + c_reg_com)] as Figure 3 does, or from the
      {!c_delay_floor} when that is larger;
    + an issue slot is admitted only if, with respect to the already
      scheduled instructions, (C1) every new inter-iteration register
      dependence has [sync <= C_delay], and (C2) when the node introduces
      new inter-iteration memory dependences, the misspeculation frequency
      of all non-preserved memory dependences stays within [P_max].

    Within one [F] value we try, for each II, the largest admissible
    [C_delay] (any schedule admitted under a smaller [C_delay] with the
    same [F] is admitted under the larger one, and the objective value is
    identical), in increasing II order.

    The walk does not stop at the first feasible point: greedy swing
    placement often misses the paper-preferred low-II points, whose [F]
    sits within a cycle or so of the optimum (DESIGN.md §7.9(a)).  After
    the first success fixes [F0], the search keeps scanning groups up to
    [F0 + default_f_slack] and returns the feasible point with the lowest
    II, re-trying each failed placement up to [default_place_retries]
    times with the blocking node hoisted to the front of the swing
    order.

    If the whole [(II, C_delay)] grid is exhausted — possible only when a
    memory dependence's probability alone exceeds [P_max] and no
    synchronised dependence can preserve it — TMS degenerates to SMS, as
    the paper's does implicitly once [C_delay] and [P_max] reach their
    upper bounds. *)

type result = {
  kernel : Ts_modsched.Kernel.t;
  mii : int;
  c_delay_threshold : int;  (** the admitted threshold the search used *)
  achieved_c_delay : int;  (** the schedule's actual max {!Ts_modsched.Kernel.sync} *)
  p_max : float;
  misspec : float;  (** [P_M] of the final kernel (equation 3) *)
  f_min : float;  (** objective value of the returned schedule *)
  attempts : int;  (** [(II, C_delay)] schedule attempts made *)
  fell_back : bool;  (** [true] if the SMS fallback was returned *)
}

val default_p_max : float
(** 0.05 — a handful of misspeculations per hundred iterations at most;
    the paper reports observed misspeculation frequencies below 0.1%. *)

val default_f_slack : float
(** 1.5 — how far past the first feasible objective value the grid walk
    keeps scanning for a lower-II point.  Below the cost model's
    resolution against the simulator (~6% MAE), so the deeper pipelining
    is free at modeled accuracy. *)

val default_place_retries : int
(** 3 — bounded order repair: how many times a failed placement is
    re-run with the blocking node hoisted to the front of the swing
    order before the grid point is abandoned. *)

type reject = {
  node : int;  (** the node whose placement failed *)
  window_empty : bool;  (** its scheduling window was empty *)
  resource_rejects : int;  (** slots rejected by the resource check *)
  c1_rejects : int;  (** slots rejected by C1 *)
  c2_rejects : int;  (** slots rejected by C2 *)
}
(** Why one [(II, C_delay)] attempt died: either the failing node had no
    window at all, or every candidate slot was rejected (with the
    per-condition counts). *)

val schedule :
  ?trace:Ts_obs.Trace.t ->
  ?p_max:float ->
  ?placement:Ts_isa.Placement.policy ->
  ?sms:Ts_sms.Sms.result * Ts_sms.Sms.swing Lazy.t ->
  params:Ts_isa.Spmt_params.t ->
  Ts_ddg.Ddg.t ->
  result
(** Run TMS over SMS: {!search} with the swing order plus order repair
    at each grid point and SMS as the fallback. The II grid ends at the
    longest dependence path or MII, whichever is larger, plus 8 (capped
    at {!Ts_ddg.Mii.ii_upper_bound}).

    [sms] is the loop's SMS result [Ts_sms.Sms.schedule ~swing g] with
    its [swing = lazy (Ts_sms.Sms.swing g)], when the caller holds them.
    Its analysis gives the MII and the order ([Q_0]) and its kernel the
    fallback, so TMS runs no part of SMS again; the result is the same.
    The lazy is forced at the start, on the calling domain; two domains
    must not force it at once. Without [sms], TMS builds the analysis
    with {!Ts_sms.Sms.swing}.

    [placement] (default {!Ts_isa.Placement.Round_robin}) makes the
    search price Definition 2 under the given thread-to-core map: the
    params are first passed through
    {!Ts_isa.Placement.effective_params}, so C1 admission and the F
    objective see the worst distance-1 ring-hop cost and target-core
    speed. Round-robin is the identity — results are unchanged. When
    caching results, key on the effective params.

    [trace] (default {!Ts_obs.Trace.null}) receives a ["tms.search"] span
    (args: [loop], [p_max], [mii], [ii_max], [c_delay_floor]) enclosing one ["tms.attempt"] instant event per [(II, C_delay)] point
    tried (args: [ii], [c_delay], objective [f], [accepted], [reason]), a
    ["tms.fallback"] event if the grid is exhausted, and a ["tms.result"]
    event carrying the returned kernel's [II], achieved [C_delay],
    misspeculation estimate [p_m], [f_min] and attempt count. Search
    events use the tracer's logical clock ({!Ts_obs.Trace.tick}).

    Slot-level admission outcomes (resource/C1/C2 rejections, admissions)
    are counted on {!Ts_obs.Metrics.default} under [tms.slots.*], and the
    latency of each placed grid point on the [tms.attempt_ms]
    histogram. A placement walks its window one stage at a time and
    checks resources and C2 only on the cycles whose rows C1 admits
    (see {!admit}); every cycle it passes is still one verdict, and a
    cycle C1 rejects counts on [tms.slots.c1_reject] whether or not it
    would fit. *)

val reject_reason : reject -> string
(** Compact label for traces: ["window-empty"],
    ["resource-exhausted"], ["c1-exhausted"], ["c2-exhausted"], or
    ["mixed-exhausted"] when several conditions contributed. *)

val try_schedule_explained :
  ?asap:int array ->
  Ts_ddg.Ddg.t ->
  order:(int * Ts_modsched.Sched.direction) list ->
  ii:int ->
  c_delay:int ->
  p_max:float ->
  c_reg_com:int ->
  (Ts_modsched.Kernel.t, reject) Stdlib.result
(** One TMS attempt at a fixed [(II, C_delay)] (Figure 3 lines 8-15) with
    the failure diagnosis. [asap] must be
    [Ts_modsched.Sched.asap_table g ~ii] when supplied (grid searches
    cache it per II). *)

val try_schedule :
  ?asap:int array ->
  Ts_ddg.Ddg.t ->
  order:(int * Ts_modsched.Sched.direction) list ->
  ii:int ->
  c_delay:int ->
  p_max:float ->
  c_reg_com:int ->
  Ts_modsched.Kernel.t option
(** {!try_schedule_explained} without the diagnosis, exposed for tests
    and for the ablation benches. *)

type slot_verdict = Admit | Reject_resource | Reject_c1 | Reject_c2

val admit :
  ?c2obs:(float -> bool -> unit) ->
  Ts_modsched.Sched.t ->
  int ->
  cycle:int ->
  c_delay:int ->
  p_max:float ->
  c_reg_com:int ->
  slot_verdict
(** The bare [ISSUE_SLOT_SELECTION] predicate (Figure 3 lines 18-28) with
    the rejecting condition, in this order: C1 on the new inter-iteration
    register dependences, resource fit, C2 on the resulting
    misspeculation frequency. C1 is the interval of rows that the node's
    placed register neighbours admit on the slot's stage: the bounds the
    placement scan skips cycles by (DESIGN.md §5.4). Up to the C2
    comparison it allocates only that two-field interval: it reads the
    partial schedule's incrementally maintained dependence masks
    ({!Ts_modsched.Sched.mem_active_mask}) and only examines the edges
    incident to the candidate node.

    [c2obs] observes every C2 comparison as [(frequency, admitted)] — the
    hook {!schedule_sweep} finds the smallest rejected frequency with. *)

val admissible :
  Ts_modsched.Sched.t ->
  int ->
  cycle:int ->
  c_delay:int ->
  p_max:float ->
  c_reg_com:int ->
  bool
(** C1 and C2 of {!admit}, without its resource fit: whether [v] at
    [cycle] keeps every new synchronised register dependence within
    [c_delay] and the misspeculation frequency within [p_max]. Resources
    are the base scheduler's to test, so one that evicts to make room
    (IMS's forced placement) can still do so. Exposed so other base
    schedulers can be made thread-sensitive (see {!Tms_ims}) and for
    tests. *)

(** {1 The Figure 3 outer search, for any base scheduler} *)

val c_delay_floor : c_reg_com:int -> Ts_ddg.Ddg.t -> int
(** The smallest [C_delay] any modulo schedule of the loop can achieve, at
    any II: [c_reg_com + ]{!Ts_ddg.Mii.reg_rec_ii}, or 0 when the loop has
    no register recurrence. The C1 analogue of RecMII. Around a register
    recurrence with total latency [L] and total distance [D], at most [D]
    edges cross a thread boundary, and their synchronisation delays must
    together cover [L], so one of them is at least
    [c_reg_com + ceil (L / D)]. Every kernel's {!Ts_modsched.Kernel.c_delay}
    is at or above the floor, so every grid point below it fails under
    any base scheduler, and the search never builds those points. *)

type prepared = private {
  params : Ts_isa.Spmt_params.t;  (** effective under the placement *)
  mii : int;
  ii_max : int;  (** last II of the grid *)
  cd_floor : int;  (** {!c_delay_floor} under the effective params *)
  cd_max : int;  (** last [C_delay] of the grid *)
}
(** The per-loop setup of a search: everything that depends on the
    loop, the machine and the placement, but not on [P_max] or on the
    base scheduler. *)

val prepare :
  placement:Ts_isa.Placement.policy ->
  params:Ts_isa.Spmt_params.t ->
  mii:int ->
  Ts_ddg.Ddg.t ->
  prepared
(** [params] passed through {!Ts_isa.Placement.effective_params}, the
    base scheduler's [mii], the [C_delay] floor and the grid bounds
    {!schedule} documents. *)

val search :
  trace:Ts_obs.Trace.t ->
  base:string ->
  p_max:float ->
  prepared ->
  Ts_ddg.Ddg.t ->
  attempt:
    (ii:int -> c_delay:int -> (Ts_modsched.Kernel.t, string) Stdlib.result) ->
  fallback:(Ts_ddg.Ddg.t -> Ts_modsched.Kernel.t) ->
  result
(** The Figure 3 outer search, the one grid walk behind {!schedule},
    {!schedule_sweep} and {!Tms_ims.schedule}. It walks the
    [F (II, C_delay)] groups of {!Cost_model.f_frontier} in ascending
    [F], from [C_delay = max (1 + c_reg_com) cd_floor], calling
    [attempt ~ii ~c_delay] on each point below the incumbent II. An
    attempt returns the kernel or the reason the point failed (the
    ["tms.attempt"] event's [reason]). The search returns the lowest-II
    success within {!default_f_slack} of the first one. When no point
    succeeds it returns [fallback g], flagged [fell_back] with the grid's
    largest [C_delay] as threshold.

    The search counts on {!Ts_obs.Metrics.default}: each attempt on
    [tms.attempts] and its latency on [tms.attempt_ms], one
    [tms.schedules] per search and one [tms.fallbacks] per fallback.
    [trace] receives the events {!schedule} documents, with [base]
    naming the scheduler (["sms"], ["ims"]). Slot verdicts are the
    attempt's to count. *)

val schedule_sweep :
  ?trace:Ts_obs.Trace.t ->
  ?p_maxes:float list ->
  ?placement:Ts_isa.Placement.policy ->
  ?sms:Ts_sms.Sms.result * Ts_sms.Sms.swing Lazy.t ->
  params:Ts_isa.Spmt_params.t ->
  Ts_ddg.Ddg.t ->
  result
(** Section 4.3: "several values for [P_max] can be tried so that the best
    schedule for a loop can be picked". Searches for each value (default
    [\[0.01; 0.05; 0.25\]]) and keeps the schedule with the lowest
    cost-model estimate {!Cost_model.estimate}, the first in list order
    on a tie. The result is the one {!schedule} would give at the value
    it is labelled with.

    [sms] is as for {!schedule}, forced before the searches go to the
    pool. The per-loop setup (effective params, grid bounds, and the
    swing analysis, SMS's when [sms] is given) is shared by the sweep's
    searches. The smallest value
    [p_lo] is searched first. {b When C2 cannot bind}, that search is the
    whole sweep: if no C2 comparison on a grid point its walk consumed
    rejected a frequency at or below the largest value [p_hi] (none
    rejected at all, on the paper's loops), then every comparison keeps
    its verdict at every swept value, so each other search would repeat
    the same walk and return the same kernel at the same cost. The sweep
    then returns that result labelled with the list's first value, the
    one the tie-break keeps. Otherwise the remaining values are searched
    (on the pool unless traced) and the walk's result fills [p_lo]'s
    slot.

    Each search counts once on [tms.schedules], so the counters are
    those of the searches the sweep ran (one where C2 cannot bind), not
    one search per value; the result is identical either way.

    A traced sweep runs its searches in order, [p_lo] first (so a list
    that is not ascending no longer traces in list order), each in its
    own ["tms.search"] span, and ends with a ["tms.sweep.pick"] event
    (args: the chosen [p_max], its [estimate], and [searches], the
    number of searches run). *)
