(** Content-addressed caching of schedules and simulations.

    Every experiment driver funnels its schedule searches and simulator
    runs through this module. When a {!Ts_persist} store has been
    configured (the CLI's [--cache-dir], default on), each result is
    keyed by a digest of everything that determines it — the loop's full
    DDG (nodes, edges, machine parameters), the SpMT configuration, the
    address-plan seed, trip and warmup counts, and a code-version stamp —
    so regenerating an experiment reuses every loop whose inputs did not
    change, across runs and across drivers (Fig. 4 and Table 2 share
    schedule entries, the DOACROSS studies share simulations).

    Cached values store only plain data: kernels are persisted as their
    [(ii, time)] vectors and rebuilt with {!Ts_modsched.Kernel.of_times},
    which revalidates every dependence constraint — a corrupt or stale
    entry fails reconstruction and is recomputed.

    With no store configured every function here is exactly its uncached
    counterpart. Nothing in this module changes results: cache keys
    separate all inputs, and a cold-cache run equals a warm-cache run
    equals an uncached run (regression-tested). *)

val code_version : int
(** Stamped into every key; bump when scheduler or simulator semantics
    change so stale entries miss instead of resurfacing. *)

val set_store : Ts_persist.t option -> unit
(** Install the store used by all functions below (default [None] =
    caching off). Set once, before spawning parallel work. *)

val get_store : unit -> Ts_persist.t option

val set_lru : int option -> unit
(** Install an in-memory LRU front of the given capacity (entries) ahead
    of the store — a repeat lookup is answered without touching the
    filesystem. [None] or a non-positive capacity disables it (the
    default). Works with or without a persist store; safe to call from
    any domain (hits/misses/evictions are exposed as [lru.*] metrics).
    Calling it again replaces the cache with an empty one. *)

val get_lru : unit -> int option
(** The installed LRU's capacity, if one is installed. *)

(** {2 Warm-started searches}

    Even when a search {e result} misses the cache (a new [p_max], a
    changed core count), its grid walk revisits (II, C_delay) points
    whose attempt outcomes are already on disk: attempts depend only on
    the DDG, [c_reg_com] and — through the recorded C2 envelope — the
    requested [P_max] ({!Ts_tms.Tms.point_memo}). The TMS wrappers below
    therefore seed each search from one persisted point table per
    (engine, DDG, [c_reg_com]) and flush the grown table back after the
    search. Warm-started searches return bit-identical results to cold
    ones — they replay recorded outcomes, never approximate neighbours —
    and hits are counted on [tms.warm.point_hits]. *)

val set_warm_start : bool -> unit
(** Enable/disable warm-started searches (default enabled; the CLI's
    [--no-warm-start]). Purely a performance knob — results are
    identical either way. *)

val get_warm_start : unit -> bool

val point_memo :
  engine:string ->
  params:Ts_isa.Spmt_params.t ->
  Ts_ddg.Ddg.t ->
  (Ts_tms.Tms.point_memo * (unit -> unit)) option
(** The provider itself: [Some (memo, flush)] when warm-start is
    enabled, with [flush] persisting the table (call it once after the
    search; no-op without a store). [engine] keys the table — use
    ["tms"] for swing-based searches and ["tms_ims"] for IMS-based ones;
    the two engines disagree at the same grid point and must never share
    entries. Both callbacks are safe to invoke from pool worker
    domains. Exposed for the search benchmark and the warm-start
    regression tests; normal callers just use {!tms} / {!tms_sweep} /
    {!tms_ims}. *)

(** {2 Cached schedulers} *)

val sms : Ts_ddg.Ddg.t -> Ts_sms.Sms.result
val ims : Ts_ddg.Ddg.t -> Ts_sms.Ims.result

val tms_sweep : params:Ts_isa.Spmt_params.t -> Ts_ddg.Ddg.t -> Ts_tms.Tms.result

val tms :
  ?p_max:float -> params:Ts_isa.Spmt_params.t -> Ts_ddg.Ddg.t -> Ts_tms.Tms.result

val tms_ims : params:Ts_isa.Spmt_params.t -> Ts_ddg.Ddg.t -> Ts_tms.Tms.result

(** {2 Cached simulations}

    Both create the address plan from [seed] (default: the loop name, as
    everywhere else) rather than taking one, so the plan identity is part
    of the key by construction. The SpMT simulation runs with the
    steady-state fast path on — proven (and regression-tested) to return
    stats identical to exact execution.

    [warmup] defaults to {!Defaults.warmup} (512), the same warm-up every
    harness driver and the CLI use — omitting the argument must never
    silently publish cold-cache numbers. Pass [~warmup:0] explicitly to
    measure the cold ramp. *)

val sim :
  ?sync_mem:bool ->
  ?seed:string ->
  ?warmup:int ->
  Ts_spmt.Config.t ->
  Ts_modsched.Kernel.t ->
  trip:int ->
  Ts_spmt.Sim.stats

val sim_single :
  ?seed:string ->
  ?warmup:int ->
  Ts_spmt.Config.t ->
  Ts_ddg.Ddg.t ->
  trip:int ->
  Ts_spmt.Single.stats
