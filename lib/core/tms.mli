(** Thread-sensitive modulo scheduling (Figure 3) — the paper's
    contribution.

    TMS wraps the SMS inner loop with two changes:

    + instead of minimising II alone, it minimises the cost-model objective
      [F (II, C_delay)] ({!Cost_model.f_value}): candidate
      [(II, C_delay)] pairs are tried in increasing order of [F], starting
      from [F (MII, 1 + c_reg_com)];
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

type point_outcome = {
  po_times : int array option;
      (** issue times of the scheduled kernel; [None] = placement failed *)
  po_reject : reject option;  (** the diagnosis when placement failed *)
  po_tally : int * int * int * int;
      (** slot verdicts (resource, C1, C2, admitted) to replay into the
          [tms.slots.*] counters *)
  po_c2_admit_max : float;
      (** largest misspeculation frequency a C2 comparison admitted
          ([neg_infinity] when none did) *)
  po_c2_reject_min : float;
      (** smallest frequency C2 rejected ([infinity] when none) *)
}
(** The complete recorded outcome of one grid-point attempt. An attempt
    is deterministic given (DDG, II, C_delay, c_reg_com) except for its
    C2 comparisons against [P_max]; the admit/reject envelope captures
    the set of [P_max] values at which the recorded run would have made
    identical decisions, so one entry serves a whole [P_max] sweep. *)

type point_memo = {
  pm_find : ii:int -> c_delay:int -> p_max:float -> point_outcome option;
  pm_store : ii:int -> c_delay:int -> p_max:float -> point_outcome -> unit;
}
(** Warm-start provider ({!Ts_harness.Cached} backs one with the persist
    store). [pm_find] must answer only outcomes whose envelope covers the
    requested [p_max] (see {!envelope_covers}) and that were recorded by
    the same scheduling engine on the same DDG and [c_reg_com]; under
    that contract a warm-started search returns bit-identical results to
    a cold one — the walk merely replays recorded outcomes. Both
    callbacks may be invoked concurrently from pool worker domains. *)

val envelope_covers : admit_max:float -> reject_min:float -> float -> bool
(** [envelope_covers ~admit_max ~reject_min p_max]: would every recorded
    C2 comparison keep its verdict at [p_max]? *)

val schedule :
  ?trace:Ts_obs.Trace.t ->
  ?p_max:float ->
  ?max_ii:int ->
  ?point_memo:point_memo ->
  ?placement:Ts_isa.Placement.policy ->
  params:Ts_isa.Spmt_params.t ->
  Ts_ddg.Ddg.t ->
  result
(** Run TMS. [max_ii] bounds the II grid (default
    {!Ts_ddg.Mii.ii_upper_bound}).

    [placement] (default {!Ts_isa.Placement.Round_robin}) makes the
    search price Definition 2 under the given thread-to-core map: the
    params are first passed through
    {!Ts_isa.Placement.effective_params}, so C1 admission and the F
    objective see the worst distance-1 ring-hop cost and target-core
    speed. Round-robin is the identity — results (and warm-start keys)
    are unchanged. When combining with a caching provider, key on the
    effective params.

    [point_memo] warm-starts the grid walk from previously recorded
    attempt outcomes; hits are counted on [tms.warm.point_hits] and the
    returned result is bit-identical to a cold search.

    [trace] (default {!Ts_obs.Trace.null}) receives a ["tms.search"] span
    enclosing one ["tms.attempt"] instant event per [(II, C_delay)] point
    tried (args: [ii], [c_delay], objective [f], [accepted], [reason]), a
    ["tms.fallback"] event if the grid is exhausted, and a ["tms.result"]
    event carrying the returned kernel's [II], achieved [C_delay],
    misspeculation estimate [p_m], [f_min] and attempt count. Search
    events use the tracer's logical clock ({!Ts_obs.Trace.tick}).

    Slot-level admission outcomes (resource/C1/C2 rejections, admissions)
    are counted on {!Ts_obs.Metrics.default} under [tms.slots.*]. *)

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
    the rejecting condition: resource fit, C1 on the new inter-iteration
    register dependences, C2 on the resulting misspeculation frequency.
    Allocation-free up to the C2 comparison: it reads the partial
    schedule's incrementally maintained dependence masks
    ({!Ts_modsched.Sched.reg_active_mask}) and only examines the edges
    incident to the candidate node.

    [c2obs] observes every C2 comparison as [(frequency, admitted)] — the
    hook the warm-start envelope ({!point_outcome}) is built from. *)

val admissible :
  ?c2obs:(float -> bool -> unit) ->
  Ts_modsched.Sched.t ->
  int ->
  cycle:int ->
  c_delay:int ->
  p_max:float ->
  c_reg_com:int ->
  bool
(** [admit ... = Admit]. Exposed so other base schedulers can be made
    thread-sensitive (see {!Tms_ims}) and for tests. *)

val attempt_event :
  Ts_obs.Trace.t ->
  base:string ->
  ii:int ->
  c_delay:int ->
  f:float ->
  ?reason:string ->
  bool ->
  unit
(** Emit one ["tms.attempt"] instant event (no-op on the null tracer);
    shared with the other thread-sensitive instantiations ({!Tms_ims}).
    [base] names the underlying scheduler (["sms"], ["ims"]); [reason]
    defaults to ["scheduled"] / ["placement-failed"] by acceptance —
    pass {!reject_reason} for the diagnosis. *)

val result_event : Ts_obs.Trace.t -> result -> unit
(** Emit the ["tms.result"] event for a finished search. *)

val schedule_sweep :
  ?trace:Ts_obs.Trace.t ->
  ?p_maxes:float list ->
  ?point_memo:point_memo ->
  ?placement:Ts_isa.Placement.policy ->
  params:Ts_isa.Spmt_params.t ->
  Ts_ddg.Ddg.t ->
  result
(** Section 4.3: "several values for [P_max] can be tried so that the best
    schedule for a loop can be picked". Runs {!schedule} for each value
    (default [\[0.01; 0.05; 0.25\]]) and keeps the schedule with the lowest
    cost-model estimate {!Cost_model.estimate}. A shared [point_memo]
    also deduplicates attempts {e across} the swept values: most C2
    envelopes cover several [P_max]es at once. *)
