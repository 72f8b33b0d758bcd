(** Content-addressed caching of schedules and simulations.

    Every experiment driver funnels its schedule searches and simulator
    runs through this module. When a {!Ts_persist} store has been
    configured (the CLI's [--cache-dir], default on), each result is
    keyed by a digest of everything that determines it — the loop's full
    DDG (nodes, edges, machine parameters), the SpMT configuration, the
    address-plan seed, trip and warmup counts, and a code-version stamp —
    so regenerating an experiment reuses every loop whose inputs did not
    change, across runs and across experiments (the extension studies reuse
    the DOACROSS pass's schedules and simulations).

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

(** {2 Cached schedulers}

    Each caches one search {e result}. The grid points a search walks
    are not persisted: {!Ts_tms.Tms.schedule_sweep} shares them between
    its own per-[P_max] searches and drops them when it returns, so a
    result that misses the cache is searched cold. *)

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
