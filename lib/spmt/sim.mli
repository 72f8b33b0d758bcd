(** Cycle-level simulation of a modulo-scheduled loop on the SpMT multicore.

    Threads (one kernel iteration each) are spawned round-robin across the
    ring. Within a thread, instructions issue dataflow-style no earlier
    than their kernel row: intra-thread dependences wait for producer
    completion, synchronised register dependences wait for the value to
    arrive over the ring ([k] hops of [c_reg_com] for a kernel distance of
    [k]), and speculated memory dependences do not wait at all — the MDT
    detects premature loads and the offending thread is squashed,
    invalidated ([c_inv]) and re-executed with its register inputs already
    present. Commits are sequential in thread order ([c_commit] each), a
    core is reusable only after its previous thread has committed, and
    spawns chain with [c_spawn].

    The counters below are exactly the quantities Section 5 plots:
    synchronisation stalls (Fig. 6a), dynamic SEND/RECV pairs (Fig. 6b),
    communication overhead (Fig. 6c), and misspeculation frequency. *)

type stats = {
  cycles : int;  (** first spawn to last commit *)
  committed : int;  (** threads committed (= trip count) *)
  squashes : int;  (** threads squashed and re-executed *)
  misspec_rate : float;  (** squashes / committed *)
  sync_stall_cycles : int;  (** cycles threads spent stalled at a RECV *)
  spawn_stall_cycles : int;  (** spawn delayed because no core was free *)
  send_recv_pairs : int;  (** dynamic SEND/RECV pairs in committed threads *)
  send_recv_cycles : int;  (** [c_reg_com * send_recv_pairs] *)
  communication_overhead : int;  (** sync stalls + SEND/RECV cycles *)
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;
  mdt_peak : int;  (** most MDT entries live at once *)
  stall_breakdown : ((int * int) * int) list;
      (** total RECV stall cycles per synchronised dependence
          [(producer, consumer)], largest first — which dependences
          serialise the loop *)
}

type thread_obs = {
  index : int;  (** kernel iteration / thread number *)
  core : int;
  start : int;  (** absolute cycle the thread began executing *)
  end_exec : int;  (** last instruction completion *)
  commit_start : int;
  commit_end : int;
  squashed : bool;  (** this thread was squashed and re-executed *)
}
(** One committed thread's lifecycle, as seen by an [observe] callback. *)

val run :
  ?seed:string ->
  ?plan:Address_plan.t ->
  ?sync_mem:bool ->
  ?warmup:int ->
  ?check:bool ->
  ?observe:(thread_obs -> unit) ->
  ?trace:Ts_obs.Trace.t ->
  ?trace_pid:int ->
  ?fast:bool ->
  Config.t ->
  Ts_modsched.Kernel.t ->
  trip:int ->
  stats
(** Execute [trip] kernel iterations. [plan] (or a fresh one derived from
    [seed], default the loop name) supplies the address streams, so passing
    the same plan to SMS- and TMS-scheduled runs of the same loop compares
    them on identical memory behaviour.

    [sync_mem] (default false) disables data speculation, as in the
    Section 5.2 ablation: every inter-thread memory dependence is
    synchronised like a register dependence (post/wait over the ring, same
    [c_reg_com] cost) and the MDT never squashes anything.

    [check] (default false) turns on the {!Ts_check} runtime invariants:
    every cache access and MDT operation is mirrored onto the naive
    reference models of {!Ts_check.Ref_models} and compared, commits are
    checked to be sequential and no earlier than execution end, squash
    restarts to honour the invalidation overhead, per-node issue/finish
    times to be well-ordered, and stall totals to be non-negative. Any
    violation raises {!Ts_check.Invariant.Check_failed}. A checked run
    returns stats byte-identical to an unchecked one (regression-tested)
    — the checks observe, they never steer.

    [warmup] (default 0) executes that many extra iterations first and
    excludes them from every counter, so [stats] describe the steady state
    (warm caches) rather than the cold-miss ramp — the paper simulates its
    benchmarks to completion, where steady state dominates.

    [trace] (default {!Ts_obs.Trace.null}) receives the cycle-attribution
    event stream for the measured (post-warmup) iterations, on one track
    per core (process [trace_pid], default 0; pass distinct pids to put
    several runs in one file):

    - ["exec"]/["commit"] spans per thread, plus ["exec (squashed)"] and
      ["re-exec"] spans when the MDT squashes a thread;
    - ["squash"] instant events at the detection cycle, and ["sync-stall"]
      instants carrying the blamed producer→consumer dependence edge and
      the stalled cycles;
    - an ["occupancy"] counter track sampling the live MDT entries (its
      [mdt] series) every 32 threads;
    - ["sim.start"]/["sim.end"] markers with the run configuration and
      totals.

    Tracing does not perturb the simulation: a traced run returns stats
    byte-identical to a null-sink run (regression-tested).

    [fast] (default false) enables the steady-state fast path: once two
    consecutive windows of threads repeat the same timing signature at a
    constant shift, remaining threads are extrapolated from the signature
    instead of replayed cycle-by-cycle. Load cache accesses are still
    replayed (the address sequence is timing-independent), and any
    deviation — a latency mismatch, a probabilistic-dependence coin, a
    squash — drops back to exact execution, so the returned stats are
    identical to a [fast:false] run. It serves every core mix and {!Config.placement}: a window is a multiple
    of the placement period, so a window offset keeps its core from
    window to window. The fast path quietly disables itself under
    [trace]/[observe] (which need every thread) and for always-realised
    memory dependences. Combining [fast] with [check]
    runs {e both} paths on the same address plan and raises
    {!Ts_check.Invariant.Check_failed} on any stats field divergence.
    Engagement, extrapolation and mismatch counters land on
    {!Ts_obs.Metrics.default} under [sim.fastpath.*].

    Identical totals are also accumulated on {!Ts_obs.Metrics.default}
    under [sim.*]: counters plus the [sim.run_ms] and [sim.ns_per_cycle]
    latency histograms, and a {!Ts_obs.Prof} span per call named after
    the engine that ran: [sim.run.fast] when the fast path was eligible,
    [sim.run.exact] otherwise (whatever [fast] asked for).

    The legacy [TS_SIM_TRACE]/[TS_SIM_TRACE_NODES] env-var debugging
    (deprecated since the structured tracer landed) has been removed;
    setting either variable makes [run] raise [Invalid_argument] with a
    pointer at [--trace] rather than silently ignore it. *)

val ipc : Ts_modsched.Kernel.t -> stats -> float
(** Committed instructions per cycle (excludes squashed work). *)

(** The exact engine's stages, for tests only ({!run} is the production
    entry point): a test drives a kernel thread by thread, [j = 0, 1,
    ...], each through {!spawn}, {!execute}, {!verify} and {!commit}. *)
module Stage : sig
  type t

  val create :
    ?plan:Address_plan.t ->
    ?sync_mem:bool ->
    ?warmup:int ->
    ?fast:bool ->
    Config.t ->
    Ts_modsched.Kernel.t ->
    trip:int ->
    t
  (** A run set up as {!run} would, unchecked and without a trace. With
      [fast] it has a fast-path run's setup (the coin iterations, the
      address shortcut, the analytic MDT), but the stages stay exact. *)

  val spawn : t -> int -> int
  (** Thread [j]'s start; counts spawn stalls. *)

  val execute : t -> int -> start:int -> unit
  val verify : t -> int -> unit
  val commit : t -> int -> unit

  val start : t -> int
  (** The current thread's start, or its restart if squashed. *)

  val issue : t -> int -> int -> int
  (** [issue st j v]: node [v]'s issue cycle in recent thread [j]. *)

  val finish : t -> int -> int -> int
  val last_commit_end : t -> int

  val addr : t -> int -> int -> int
  (** [addr st v j]: the address memory node [v] touches in thread [j],
      by the path the stages take. *)

  val spawn_stall_cycles : t -> int
  val stall_breakdown : t -> ((int * int) * int) list
  val l1 : t -> int -> Cache.t
  val l2 : t -> Cache.t

  val coin_iters : t -> int array
  (** Under [fast], the iterations in [\[0, warmup + trip)] where some
      memory-dependence edge is realised, ascending; else empty. *)
end
