(** Iterative modulo scheduling (Rau, MICRO'94) — the classic alternative
    to SMS.

    The paper stresses that TMS "is not tied to any existing modulo
    scheduling algorithm" (Section 4.1): its admission conditions drop into
    any scheduler that tries issue slots for one instruction at a time.
    This module provides that second scheduler, so the claim can be tested
    (see {!Ts_tms.Tms_ims}).

    IMS differs from SMS in two ways: nodes are prioritised by height alone
    (no SCC-driven ordering), and instead of restarting when an instruction
    does not fit, IMS {e forces} it into a slot and evicts whatever
    conflicts, retrying the evicted instructions later within an operation
    budget. *)

type result = {
  kernel : Ts_modsched.Kernel.t;
  mii : int;
  attempts : int;  (** IIs tried *)
  placements : int;  (** total placement operations, evictions included *)
}

exception No_schedule of string

val schedule : ?budget_ratio:int -> Ts_ddg.Ddg.t -> result
(** Schedule a loop, trying IIs from MII up to
    {!Ts_ddg.Mii.ii_upper_bound}. [budget_ratio] (default 6) bounds the
    placement operations per II attempt at [ratio * n_nodes], after which
    the II is increased, as in Rau's formulation. *)

val priority_order : Ts_ddg.Ddg.t -> ii:int -> int list
(** Rau's height-based placement priority at [ii] (highest first, ties by
    node id). Deterministic in [(g, ii)]; grid searches that revisit an II
    compute it once and feed it back through [try_ii ?prio]. *)

val try_ii :
  ?budget_ratio:int ->
  ?admissible:(Ts_modsched.Sched.t -> int -> cycle:int -> bool) ->
  ?asap:int array ->
  ?prio:int list ->
  Ts_ddg.Ddg.t ->
  ii:int ->
  Ts_modsched.Kernel.t option
(** One IMS attempt at a fixed II. [admissible] adds an extra admission
    predicate on (partial schedule, node, cycle) — resource feasibility is
    always checked; thread-sensitive wrappers pass their C1/C2 checks
    here. [asap] and [prio] must equal [Ts_modsched.Sched.asap_table g
    ~ii] and {!priority_order} when supplied (per-II caches for grid
    searches). *)
