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

    The store is the only cache tier: a repeat lookup, within one sweep
    or across [tsms serve] requests, is a store hit (an in-memory index
    lookup plus an unmarshal) followed by that reconstruction.

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

(** {2 Cached schedulers}

    Each caches one search {e result}. The grid points a search walks
    are not persisted: {!Ts_tms.Tms.schedule_sweep} shares them between
    its own per-[P_max] searches and drops them when it returns, so a
    result that misses the cache is searched cold. *)

val sms : Ts_ddg.Ddg.t -> Ts_sms.Sms.result * Ts_sms.Sms.swing Lazy.t
(** The loop's SMS result and the lazy swing analysis it shares with the
    [sms] argument of {!tms_sweep} and {!tms}: only a miss forces it, so
    a warm run builds none, and nothing stores it. Keep the pair on the
    domain that made it (one pool task): two domains must not force it
    at once. A rejection is cached too: a loop SMS cannot schedule raises
    [Ts_sms.Sms.No_schedule] on every call, and a warm call runs no SMS. *)

val ims : Ts_ddg.Ddg.t -> Ts_sms.Ims.result

val tms_sweep :
  ?sms:Ts_sms.Sms.result * Ts_sms.Sms.swing Lazy.t ->
  params:Ts_isa.Spmt_params.t ->
  Ts_ddg.Ddg.t ->
  Ts_tms.Tms.result
(** [sms] goes to the search on a miss; it changes no result, so it is
    not part of the key. *)

val tms :
  ?sms:Ts_sms.Sms.result * Ts_sms.Sms.swing Lazy.t ->
  ?p_max:float ->
  params:Ts_isa.Spmt_params.t ->
  Ts_ddg.Ddg.t ->
  Ts_tms.Tms.result

val tms_ims :
  ?ims:Ts_sms.Ims.result -> params:Ts_isa.Spmt_params.t -> Ts_ddg.Ddg.t -> Ts_tms.Tms.result

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
