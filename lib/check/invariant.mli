(** First-principles kernel validation.

    Everything here is re-derived from the raw schedule — the DDG, the II
    and the per-node issue times — without going through [Kernel]'s or
    [Mrt]'s own helpers, so a bug in the schedulers' incremental
    bookkeeping (a mis-maintained reservation table, a stale dependence
    mask, an off-by-one in an admission predicate) shows up as a
    disagreement here rather than being silently replicated.

    The checks cover the full contract a {!Ts_modsched.Kernel.t} must
    satisfy:

    - shape: [time]/[row]/[stage] arrays are mutually consistent and
      normalised (earliest issue in [\[0, II)]);
    - dependence feasibility: [t(v) >= t(u) + lat(u) - II * d(u, v)] for
      every edge (paper Section 2);
    - [d_ker >= 0] for every edge (Definition 1 — no dependence may travel
      backwards in thread order);
    - the [C_delay] floor: the largest [sync - c_reg_com] over the
      inter-iteration register dependences is at least
      {!Ts_ddg.Mii.reg_rec_ii}, so [C_delay] never falls below the TMS
      search's floor;
    - resource feasibility: per-row issue-slot usage and per-cell
      functional-unit occupancy (including multi-cycle [busy] wrap-around)
      recounted from scratch against the machine description;
    - optionally, the thread-sensitive admission conditions the scheduler
      {e claims} the kernel satisfies: C1 ([sync <= C_delay] for every
      inter-iteration register dependence, Definition 2) and C2 (the
      misspeculation frequency of non-preserved inter-iteration memory
      dependences stays within [P_max], Section 4.2). *)

type violation = { what : string; detail : string }
(** One broken invariant: a short category tag and a human-readable
    description with the offending numbers. *)

val pp_violation : Format.formatter -> violation -> unit

val report : violation list -> string
(** All violations, one per line (empty string for []). *)

type claim = { c_delay : int; p_max : float; c_reg_com : int }
(** The admission thresholds a thread-sensitive scheduler reports a kernel
    was accepted under ({!Ts_tms}'s [c_delay_threshold] and [p_max], plus
    the [c_reg_com] the sync computation used). *)

exception Check_failed of string
(** Raised by the [_exn] enforcement entry points (and by [Sim.run
    ~check:true]) with a full {!report}. *)

val dependence_violations : Ts_ddg.Ddg.t -> ii:int -> int array -> violation list
(** Dependence feasibility of a raw time array at [ii]. *)

val resource_violations : Ts_ddg.Ddg.t -> ii:int -> int array -> violation list
(** Resource feasibility (issue width + per-FU occupancy, with busy-cycle
    wrap-around) of a raw time array at [ii], recounted naively. *)

val check_times : Ts_ddg.Ddg.t -> ii:int -> int array -> violation list
(** [dependence_violations @ resource_violations], plus basic shape
    checks; the contract of [Kernel.of_times]'s input. *)

val check_kernel : ?claim:claim -> Ts_modsched.Kernel.t -> violation list
(** Every kernel invariant listed above, derived from [(g, ii, time)]
    alone; the kernel's [row]/[stage]/[n_stages] fields are treated as
    claims to verify, not as inputs. With [?claim], additionally checks C1
    and C2 against the stated thresholds. *)

val check_kernel_exn : ?claim:claim -> Ts_modsched.Kernel.t -> unit
(** Raises {!Check_failed} with the {!report} when {!check_kernel} finds
    anything. *)

val fail : string -> 'a
(** [raise (Check_failed msg)] — shared by the simulator's inline checks
    so every checker failure is the same exception. *)

val failf : ('a, unit, string, 'b) format4 -> 'a
(** [Printf]-style {!fail}. *)
